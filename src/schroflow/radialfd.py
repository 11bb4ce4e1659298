"""Finite-difference scheme for the radial mode equations, the third
propagation route (driven by flow.evolve_route).

After expanding over the angular eigenbasis and substituting
w = r^{(N-1)/2} u, each mode obeys a 1-d equation on (0, R):

    i w_t = -w_rr + (c_k / r^2) w        (Schrodinger)
      w_t =  w_rr - (c_k / r^2) w        (heat)

with c_k = mu_k + (N-1)(N-3)/4; c_k > -1/4 is the Hardy condition for the
mode.  The grid is cell-centered so 1/r^2 is never evaluated at r=0; the
outer boundary is Dirichlet.

Each flow's tridiagonal system matrix is the same at every step, so it is
LU-factored once by LAPACK ``?gttrf`` and every step is one ``?gttrs``
back-substitution.  A duration T must be a whole number of steps dt (to
1e-9 relative, see ``step_count``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

# how far T/dt may sit from a whole number of steps, relative to T/dt
STEP_TOLERANCE = 1e-9


def step_count(T: float, dt: float) -> int:
    """The number of steps dt in the duration T; ValueError unless T >= 0
    is a whole number of steps to within STEP_TOLERANCE (relative)."""
    ratio = T / dt
    if not (math.isfinite(ratio) and ratio >= 0
            and abs(ratio - round(ratio)) <= STEP_TOLERANCE * ratio):
        raise ValueError(f"duration {T!r} is not a whole number >= 0 of steps dt = {dt!r}")
    return round(ratio)


@dataclass(frozen=True)
class RadialSchema:
    """Grid and coefficient for one radial mode equation.

    ``mu`` is the mode's angular eigenvalue; the inverse-square strength
    ``c_k`` of the reduced equation follows from it and N.  The inner
    boundary imposes w(0) = 0 via an antisymmetric ghost cell.
    """

    N: int
    mu: float
    R: float
    M: int
    dt: float

    def __post_init__(self):
        # scipy's ?gttrf wrapper rejects a 2 x 2 tridiagonal system
        if self.M < 3 or self.R <= 0 or self.dt <= 0:
            raise ValueError("RadialSchema requires M >= 3, R > 0, dt > 0")

    @property
    def c_k(self) -> float:
        """Inverse-square strength after the w = r^{(N-1)/2} u substitution."""
        return self.mu + (self.N - 1) * (self.N - 3) / 4.0

    @property
    def h(self) -> float:
        return self.R / self.M

    @property
    def grid(self) -> np.ndarray:
        return (np.arange(self.M) + 0.5) * self.h

    def operator_bands(self) -> np.ndarray:
        """Symmetric tridiagonal -d^2/dr^2 + c/r^2 in banded (3, M) storage.

        The inverse-square potential is sampled as the harmonic mean of the
        cell-face radii, c / (r_{i-1/2} r_{i+1/2}); this keeps the scheme
        accurate near the singularity without baking in any particular power
        behaviour of the solution.  The first cell, whose inner face sits at
        r=0, falls back to the cell-center value.
        """
        h2 = self.h * self.h
        r = self.grid
        i = np.arange(self.M)
        c_k = self.c_k
        pot = c_k / ((np.maximum(i, 1) * self.h) * ((i + 1) * self.h))
        pot[0] = c_k / (r[0] * r[0])
        diag = 2.0 / h2 + pot
        diag[0] = 3.0 / h2 + pot[0]
        bands = np.zeros((3, self.M))
        bands[0, 1:] = -1.0 / h2
        bands[1] = diag
        bands[2, :-1] = -1.0 / h2
        return bands

    def shifted_bands(self, z) -> np.ndarray:
        """Banded storage of I + z A, with A the operator above."""
        eye = np.zeros((3, self.M))
        eye[1] = 1.0
        return eye + z * self.operator_bands()


def _banded_matvec(bands: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = bands[1] * w
    out[:-1] += bands[0, 1:] * w[1:]
    out[1:] += bands[2, :-1] * w[:-1]
    return out


def _march(schema: RadialSchema, u0, T: float, lhs: np.ndarray,
           rhs: np.ndarray | None) -> np.ndarray:
    """Solve lhs w_{n+1} = rhs w_n (rhs=None: identity) for T/dt steps in
    w = r^{(N-1)/2} u; takes and returns the profile u."""
    steps = step_count(T, schema.dt)
    u0 = np.asarray(u0)
    if u0.shape != (schema.M,):
        raise ValueError(f"profile shape {u0.shape} does not match grid size {schema.M}")
    r_half = schema.grid ** ((schema.N - 1) / 2.0)
    w = (r_half * u0).astype(lhs.dtype)
    if not (np.isfinite(w).all() and np.isfinite(lhs).all()):
        raise ValueError("profile and system matrix must be finite")
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (lhs,))
    dl, d, du, du2, ipiv, info = gttrf(lhs[2, :-1], lhs[1], lhs[0, 1:])
    if info > 0:
        raise np.linalg.LinAlgError(f"singular system matrix: zero pivot {info}")
    for _ in range(steps):
        # w and the matvec's output are ours to overwrite
        b = w if rhs is None else _banded_matvec(rhs, w)
        w, _ = gttrs(dl, d, du, du2, ipiv, b, overwrite_b=True)
    if not np.isfinite(w).all():
        raise ValueError("the march left a non-finite profile")
    return w / r_half


def evolve_schrodinger(schema: RadialSchema, u0: np.ndarray, T: float) -> np.ndarray:
    """Crank-Nicolson evolution of the radial profile u over a duration T.

    The discrete propagator of i w_t = -w_rr + (c_k/r^2) w is a Cayley
    transform of a symmetric matrix, so the discrete L^2 norm of w is
    preserved to roundoff.
    """
    z = 0.5j * schema.dt
    return _march(schema, u0, T, schema.shifted_bands(z), schema.shifted_bands(-z))


def evolve_heat(schema: RadialSchema, u0: np.ndarray, T: float) -> np.ndarray:
    """Backward-Euler evolution of the radial heat profile u over a duration T.

    Backward Euler keeps the system matrix of w_t = w_rr - (c_k/r^2) w an
    M-matrix, so positivity of the datum is preserved and the discrete norm
    is non-increasing.
    """
    return _march(schema, u0, T, schema.shifted_bands(schema.dt), None)
