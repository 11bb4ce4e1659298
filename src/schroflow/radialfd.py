"""Finite-difference scheme for the radial mode equations, the third
propagation route (driven by flow.evolve_route).

After expanding over the angular eigenbasis and substituting
w = r^{(N-1)/2} u, each mode obeys a 1-d equation on (0, R):

    i w_t = -w_rr + (c_k / r^2) w        (Schrodinger)
      w_t =  w_rr - (c_k / r^2) w        (heat)

with c_k = mu_k + (N-1)(N-3)/4; c_k > -1/4 is the Hardy condition for the
mode.  The grid is cell-centered so 1/r^2 is never evaluated at r=0; the
outer boundary is Dirichlet.

Each flow's tridiagonal system matrix I + zA (A the discrete operator) is
the same at every step, so it is factored once and every step is one LAPACK
back-substitution with no matrix-vector product:

* heat (backward Euler, z = dt): I + dt A is real, symmetric and, for every
  c_k >= -1/4, positive definite with non-positive off-diagonal entries,
  i.e. an M-matrix.  It is LDL^T-factored by ``?pttrf`` and a step is one
  ``?pttrs`` solve.  Where I + dt A is not positive definite (some
  c_k < -1/4), ``?pttrf`` meets a non-positive pivot and the march refuses
  to run (LinAlgError).
* Schrodinger (Crank-Nicolson, z = i dt/2): I + zA is LU-factored by
  ``?gttrf``.  Since I - zA = 2I - (I + zA), a step is the Cayley form
  w <- 2 (I + zA)^{-1} w - w: one ``?gttrs`` solve and one in-place update.

A duration T must be a whole number of steps dt (to 1e-9 relative, see
``step_count``).
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


def _march(schema: RadialSchema, u0, T: float, lhs: np.ndarray,
           cayley: bool) -> np.ndarray:
    """Step w = r^{(N-1)/2} u through T/dt steps with the system matrix lhs,
    factored once: w <- lhs^{-1} w for a real symmetric positive definite
    lhs (LDL^T by ?pttrf), or with ``cayley`` w <- lhs^{-1} (2I - lhs) w
    (LU by ?gttrf); takes and returns the profile u."""
    steps = step_count(T, schema.dt)
    u0 = np.asarray(u0)
    if u0.shape != (schema.M,):
        raise ValueError(f"profile shape {u0.shape} does not match grid size {schema.M}")
    r_half = schema.grid ** ((schema.N - 1) / 2.0)
    w = (r_half * u0).astype(lhs.dtype)
    if not (np.isfinite(w).all() and np.isfinite(lhs).all()):
        raise ValueError("profile and system matrix must be finite")
    if cayley:
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (lhs,))
        dl, d, du, du2, ipiv, info = gttrf(lhs[2, :-1], lhs[1], lhs[0, 1:])
        if info > 0:
            raise np.linalg.LinAlgError(f"singular system matrix: zero pivot {info}")
        for _ in range(steps):
            y, _ = gttrs(dl, d, du, du2, ipiv, w)
            y *= 2.0
            y -= w
            w = y
    else:
        pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), (lhs,))
        d, e, info = pttrf(lhs[1], lhs[0, 1:])
        if info != 0:
            raise np.linalg.LinAlgError(
                f"system matrix not positive definite: pivot {info}")
        for _ in range(steps):
            # w is ours to overwrite
            w, _ = pttrs(d, e, w, overwrite_b=True)
    if not np.isfinite(w).all():
        raise ValueError("the march left a non-finite profile")
    return w / r_half


def evolve_schrodinger(schema: RadialSchema, u0: np.ndarray, T: float) -> np.ndarray:
    """Crank-Nicolson evolution of the radial profile u over a duration T.

    The discrete propagator (I + zA)^{-1}(I - zA), z = i dt/2, of
    i w_t = -w_rr + (c_k/r^2) w is a Cayley transform of the real symmetric
    A, so the discrete L^2 norm of w is preserved to roundoff.  Each step
    applies it as 2 (I + zA)^{-1} w - w: one solve with the LU factor of
    I + zA, no product with I - zA.
    """
    return _march(schema, u0, T, schema.shifted_bands(0.5j * schema.dt), cayley=True)


def evolve_heat(schema: RadialSchema, u0: np.ndarray, T: float) -> np.ndarray:
    """Backward-Euler evolution of the radial heat profile u over a duration T.

    For c_k >= -1/4 the system matrix I + dt A of w_t = w_rr - (c_k/r^2) w
    is symmetric positive definite with non-positive off-diagonal entries, an
    M-matrix, so positivity of the datum is preserved and the discrete norm
    is non-increasing; each step is one solve with its LDL^T factor.  Where
    I + dt A is not positive definite (some c_k < -1/4) the march refuses to
    run: np.linalg.LinAlgError.
    """
    return _march(schema, u0, T, schema.shifted_bands(schema.dt), cayley=False)
