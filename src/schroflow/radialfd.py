"""Finite-difference scheme for the radial mode equations, the third
propagation route (driven by flow.evolve_route).

After expanding over the angular eigenbasis, each mode's profile u obeys
i u_t = H_k u (Schrodinger) or u_t = -H_k u (heat) on (0, R), with

    H_k u = -u'' - ((N-1)/r) u' + (mu_k / r^2) u.

The scheme works in the ground-state form.  RadialSchema takes the mode's
index alpha_k, the root of alpha^2 - (N-2) alpha = mu_k that
oscillator.SpectralTable tabulates for a Hardy-valid problem, and the
substitution v = r^{alpha_k} u cancels the inverse-square term exactly,

    H_k u = r^{-alpha_k} (-v'' - ((d-1)/r) v'),     d = N - 2 alpha_k,

a radial Laplacian in dimension d >= 2 with no potential, and the regular
solution has a smooth v.  Its finite-volume form on cells r_i = (i + 1/2) h,
with lumped cell volumes h r_i^{d-1}, is second order in h for smooth v,
on the modes with alpha_k > 0 as on the others, and its error is a series
in h^2: flow.evolve_route's fd route marches on h and h/3 and cancels the
h^2 term by Richardson extrapolation, with no change to the scheme here.
Symmetrised, the operator acts on w = r^{(N-1)/2} u = r^{(d-1)/2} v, so
that sqrt(cell volume) v = sqrt(h) w and the conserved discrete norm is
sum h r_i^{N-1} |u_i|^2 on every mode.  The outer boundary is Dirichlet.

Each flow's step is built from tridiagonal system matrices I + zA (A the
discrete operator) that are the same at every step, so each is factored
once and every step is LAPACK back-substitution with no matrix-vector
product:

* heat (backward Euler, z = dt): A is positive definite, so I + dt A is
  real, symmetric, positive definite with non-positive off-diagonal entries,
  i.e. an M-matrix.  It is LDL^T-factored by ``?pttrf`` and a step is one
  ``?pttrs`` solve; a non-positive pivot reported by LAPACK raises
  LinAlgError.
* Schrodinger (diagonal Pade (12,12), A-stable and of order 24): with
  x = -i dt A the step is P_12(x) / Q_12(x), P_12(x) = Q_12(-x),

      Q_12(x) = sum_{j=0..12} (24-j)! 12! / (24! j! (12-j)!) (-x)^j,

  unitary since A is real symmetric.  Q_12 has six pairs of complex
  conjugate roots x_k, so the step is the product of twelve Cayley factors
  (I + c_k A)^{-1} (I - c_k A), c_k = i dt / x_k.  Each I + c_k A is
  LU-factored by ``?gttrf``, and since I - c_k A = 2I - (I + c_k A) a step
  is w <- 2 (I + c_k A)^{-1} w - w for k = 1..12: twelve ``?gttrs`` solves
  and twelve in-place updates.

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

# the roots x_k of the Pade (12,12) denominator Q_12 (module docstring), to
# double precision, conjugate pairs adjacent, in the order
# evolve_schrodinger applies their Cayley factors
_PADE_ROOTS = tuple(x for root in (complex(16.50684402282416, 1.7353871440195376),
                                   complex(15.99454119920287, 5.218133073891597),
                                   complex(14.93114248070354, 8.74033918670913),
                                   complex(13.222008499912704, 12.34306998607446),
                                   complex(10.659417181751659, 16.105813728514065),
                                   complex(6.686046615605067, 20.24859361448164))
                    for x in (root, root.conjugate()))


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
    """Grid and operator for one radial mode equation.

    ``alpha`` is the mode's ground-state exponent alpha_k, a row of a
    SpectralTable (u ~ r^{-alpha} at 0); the operator is the lumped
    finite-volume radial Laplacian in v = r^alpha u, symmetrised to act on
    w = r^{(N-1)/2} u.
    """

    N: int
    alpha: float
    R: float
    M: int
    dt: float

    def __post_init__(self):
        # scipy's ?gttrf wrapper rejects a 2 x 2 tridiagonal system
        if self.M < 3 or self.R <= 0 or self.dt <= 0:
            raise ValueError("RadialSchema requires M >= 3, R > 0, dt > 0")
        # alpha <= (N-2)/2 is p = N - 1 - 2 alpha >= 1 in operator_bands;
        # at p <= 0 its origin face 0**p would be 1 or inf, not 0.  NaN
        # passes here, and _factored refuses the matrix it makes
        half = (self.N - 2) / 2.0
        if self.alpha > half:
            raise ValueError(f"RadialSchema requires alpha <= (N-2)/2 = {half!r}, "
                             f"got alpha = {self.alpha!r}")

    @property
    def h(self) -> float:
        return self.R / self.M

    @property
    def grid(self) -> np.ndarray:
        return (np.arange(self.M) + 0.5) * self.h

    def operator_bands(self) -> np.ndarray:
        """Symmetric tridiagonal operator A in banded (3, M) storage.

        With p = N - 1 - 2 alpha, face fluxes F_j = (j h)^p (F_0 = 0 at the
        origin, F_M = 2 R^p for the Dirichlet face at R) and cells r_i:

            A_ii = (F_i + F_{i+1}) / (h^2 r_i^p),
            A_{i,i+1} = A_{i+1,i} = -F_{i+1} / (h^2 (r_i r_{i+1})^{p/2}).

        A r^{p/2} vanishes in every row but the last, and A is positive
        definite for every alpha <= (N-2)/2, the bound the schema holds to
        (p >= 1, so F_0 = 0**p = 0).  Each entry is formed from ratios of
        radii, so large p does not overflow early.
        """
        h2 = self.h * self.h
        p = self.N - 1 - 2.0 * self.alpha
        r = self.grid
        faces = np.arange(self.M + 1) * self.h
        flux_in = (faces[:-1] / r) ** p
        flux_out = (faces[1:] / r) ** p
        flux_out[-1] *= 2.0
        bands = np.zeros((3, self.M))
        bands[1] = (flux_in + flux_out) / h2
        off = -(faces[1:-1] / np.sqrt(r[:-1] * r[1:])) ** p / h2
        bands[0, 1:] = off
        bands[2, :-1] = off
        return bands

    def shifted_bands(self, z) -> np.ndarray:
        """Banded storage of I + z A, with A the operator above."""
        return _shifted(self.operator_bands(), z)


def _shifted(bands: np.ndarray, z) -> np.ndarray:
    """Banded storage of I + z A from the banded A."""
    lhs = z * bands
    lhs[1] += 1.0
    # the corners lie outside the matrix; keep them +0.0, which z * 0.0 is
    # not where Re z < 0
    lhs[0, 0] = lhs[2, -1] = 0.0
    return lhs


def _factored(lhs: np.ndarray, cayley: bool) -> list:
    """The LAPACK factor of one banded system matrix, without its info
    flag: LU by ?gttrf with ``cayley``, else LDL^T by ?pttrf, which needs
    lhs real symmetric positive definite."""
    if not np.isfinite(lhs).all():
        raise ValueError("system matrix must be finite")
    if cayley:
        gttrf, = get_lapack_funcs(("gttrf",), (lhs,))
        *factor, info = gttrf(lhs[2, :-1], lhs[1], lhs[0, 1:])
        if info > 0:
            raise np.linalg.LinAlgError(f"singular system matrix: zero pivot {info}")
    else:
        pttrf, = get_lapack_funcs(("pttrf",), (lhs,))
        *factor, info = pttrf(lhs[1], lhs[0, 1:])
        if info != 0:
            raise np.linalg.LinAlgError(
                f"system matrix not positive definite: pivot {info}")
    return factor


def _march(schema: RadialSchema, u0, T: float, shifts: list,
           cayley: bool) -> np.ndarray:
    """Step w = r^{(N-1)/2} u through T/dt steps with the system matrices
    I + zA, one per shift z, each factored once.  Heat takes one shift and
    a step w <- (I + zA)^{-1} w; with ``cayley`` a step applies, for each
    shift in turn, w <- (I + zA)^{-1} (I - zA) w = 2 (I + zA)^{-1} w - w.
    Takes and returns the profile u."""
    steps = step_count(T, schema.dt)
    u0 = np.asarray(u0)
    if u0.shape != (schema.M,):
        raise ValueError(f"profile shape {u0.shape} does not match grid size {schema.M}")
    r_half = schema.grid ** ((schema.N - 1) / 2.0)
    w = (r_half * u0).astype(np.result_type(float, *shifts))
    if not np.isfinite(w).all():
        raise ValueError("profile must be finite")
    # A is built once; each banded I + zA is dropped once factored: the
    # march holds factors only
    bands = schema.operator_bands()
    factors = [_factored(_shifted(bands, z), cayley) for z in shifts]
    if cayley:
        gttrs, = get_lapack_funcs(("gttrs",), (w,))
        for _ in range(steps):
            for factor in factors:
                y, _ = gttrs(*factor, w)
                y *= 2.0
                y -= w
                w = y
    else:
        pttrs, = get_lapack_funcs(("pttrs",), (w,))
        factor, = factors
        for _ in range(steps):
            # w is ours to overwrite
            w, _ = pttrs(*factor, w, overwrite_b=True)
    if not np.isfinite(w).all():
        raise ValueError("the march left a non-finite profile")
    return w / r_half


def evolve_schrodinger(schema: RadialSchema, u0: np.ndarray, T: float) -> np.ndarray:
    """Pade (12,12) evolution of the radial profile u over a duration T.

    The step e^{x}, x = -i dt A, of i w_t = A w is replaced by its diagonal
    Pade (12,12) approximant, the product of the twelve Cayley factors
    (I + c_k A)^{-1} (I - c_k A), c_k = i dt / x_k over the roots x_k of its
    denominator Q_12 (module docstring).  It is of order 24 in dt and,
    A being real symmetric, unitary, so the discrete L^2 norm of w is
    preserved to roundoff.  Each factor is applied as 2 (I + c_k A)^{-1} w - w:
    one solve with the LU factor of I + c_k A, no product with I - c_k A.
    """
    return _march(schema, u0, T, [1j * schema.dt / x for x in _PADE_ROOTS], cayley=True)


def evolve_heat(schema: RadialSchema, u0: np.ndarray, T: float) -> np.ndarray:
    """Backward-Euler evolution of the radial heat profile u over a duration T.

    The system matrix I + dt A of w_t = -A w is symmetric positive definite
    with non-positive off-diagonal entries, an M-matrix, so positivity of the
    datum is preserved and the discrete norm is non-increasing; each step is
    one solve with its LDL^T factor.  A non-positive pivot reported by
    LAPACK raises np.linalg.LinAlgError.
    """
    return _march(schema, u0, T, [schema.dt], cayley=False)
