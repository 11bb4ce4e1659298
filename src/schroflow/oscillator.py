"""Spectral bookkeeping for the singular harmonic oscillator H + |x|^2/4.

From the angular eigenvalues mu_k this module derives the indices

    alpha_k = (N-2)/2 - sqrt(((N-2)/2)^2 + mu_k),
    beta_k  = sqrt(((N-2)/2)^2 + mu_k),

classifies the problem (Hardy validity, loss-of-decay range), tabulates a
Hardy-valid problem, gives the oscillator levels
gamma_{n,j} = 2n - alpha_j + N/2, and builds/normalizes/projects the
separable eigenfunctions

    V_{n,j}(x) = r^{-alpha_j} e^{-r^2/4} P_{n}(r^2/2) psi_j(theta).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .angular import AngularEigensystem
from .specfun import PolySpec

DECAY_INVALID = "invalid"
DECAY_LOSS = "loss_of_decay"
DECAY_CLASSICAL = "classical_candidate"


class HardyViolation(ValueError):
    """The lowest angular eigenvalue violates the strict Hardy bound, so the
    oscillator basis does not exist."""

    def __init__(self):
        super().__init__("mu_1 <= -((N-2)/2)^2")


def angular_indices(mu: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray, str]:
    """(alpha_k, beta_k, decay class) of the ascending angular eigenvalues
    mu_k in dimension N.  A Hardy-violating mu_1 <= -((N-2)/2)^2 is class
    ``invalid``, and its beta_k below the bound are clamped at 0."""
    half = (N - 2) / 2.0
    beta = np.sqrt(np.maximum(half * half + mu, 0.0))
    if not mu[0] > -half * half:
        decay = DECAY_INVALID
    elif mu[0] < 0:
        decay = DECAY_LOSS
    else:
        decay = DECAY_CLASSICAL
    return half - beta, beta, decay


@dataclass(frozen=True)
class SpectralTable:
    """Rows (k, mu_k, alpha_k, beta_k) for k = 1..K_max of a Hardy-valid
    problem, its decay class, and the angular eigensystem the rows come from
    (``build_table``).  A table exists only where the oscillator basis does:
    constructing one whose mu_1 <= -((N-2)/2)^2 raises HardyViolation."""

    mu: np.ndarray
    eigsys: AngularEigensystem
    alpha: np.ndarray = field(init=False)
    beta: np.ndarray = field(init=False)
    decay_class: str = field(init=False)

    def __post_init__(self):
        alpha, beta, decay = angular_indices(self.mu, self.N)
        if decay == DECAY_INVALID:
            raise HardyViolation()
        for name, value in (("alpha", alpha), ("beta", beta), ("decay_class", decay)):
            object.__setattr__(self, name, value)

    @property
    def N(self) -> int:
        return self.eigsys.N

    @property
    def K_max(self) -> int:
        return len(self.mu)

    def row(self, k: int):
        """1-based row access: (mu_k, alpha_k, beta_k)."""
        if not 1 <= k <= self.K_max:
            raise IndexError(f"mode index k={k} outside 1..{self.K_max}")
        return float(self.mu[k - 1]), float(self.alpha[k - 1]), float(self.beta[k - 1])


def build_table(eigsys: AngularEigensystem, K_max: int) -> SpectralTable:
    """The index table of the first K_max angular modes; HardyViolation if
    the problem violates the Hardy condition."""
    if K_max < 1 or K_max > len(eigsys.eigenvalues):
        raise IndexError(
            f"K_max={K_max} outside the {len(eigsys.eigenvalues)} available modes"
        )
    return SpectralTable(np.asarray(eigsys.eigenvalues[:K_max], dtype=float), eigsys)


@dataclass(frozen=True)
class ModeIndex:
    """Oscillator index pair: radial quantum number n >= 0, angular mode j >= 1."""

    n: int
    j: int

    def __post_init__(self):
        if self.n < 0 or self.j < 1:
            raise ValueError(f"ModeIndex requires n >= 0 and j >= 1, got {self}")


def gamma_of(index: ModeIndex, table: SpectralTable) -> float:
    """Oscillator level gamma_{n,j} = 2n - alpha_j + N/2."""
    _, alpha_j, _ = table.row(index.j)
    return 2.0 * index.n - alpha_j + table.N / 2.0


@dataclass(frozen=True)
class NormalizedMode:
    """An L^2-normalized oscillator eigenfunction in separated form."""

    index: ModeIndex
    N: int
    alpha: float
    gamma: float
    norm: float
    poly: PolySpec

    def radial(self, r):
        """Normalized radial factor r^{-alpha} e^{-r^2/4} P(r^2/2) / norm at
        radii r > 0."""
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= 0):
            raise ValueError("the radial value requires r > 0")
        with np.errstate(over="ignore"):
            r2 = r_arr * r_arr         # inf past r ~ 1.3e154, where gauss is 0
        gauss = np.exp(-r2 / 4.0)
        # past the underflow of the Gaussian the polynomial (n = 20 from
        # r ~ 2e8) and r^{-alpha} can overflow, and inf * 0 = NaN; those
        # samples are 0
        live = gauss > 0
        core = gauss * self.poly(np.where(live, r2, 0.0) / 2.0) / self.norm
        return np.where(live, r_arr, 1.0) ** (-self.alpha) * core


class AccuracyWarning(UserWarning):
    """A sampling is too coarse for the requested operation: a projection
    grid with too few points inside the mode's support, or decay times that
    span too few decades for a fit."""


def make_mode(index: ModeIndex, table: SpectralTable) -> NormalizedMode:
    """Construct and normalize the oscillator eigenfunction V_{n,j}.

    With b = N/2 - alpha_j and P = L_n^{b-1} / binom(n+b-1, n), the norm is
    exact (t = r^2/2 and the Laguerre orthogonality relation):

        int_0^inf r^{N-1-2 alpha_j} e^{-r^2/2} P(r^2/2)^2 dr
            = 2^{b-1} Gamma(b) / binom(n+b-1, n),

    evaluated in log space.  The angular factor is already unit-normalized
    on the sphere.
    """
    _, alpha_j, _ = table.row(index.j)
    n, b = index.n, table.N / 2.0 - alpha_j
    log_norm_sq = ((b - 1.0) * math.log(2.0) + 2.0 * math.lgamma(b)
                   + math.lgamma(n + 1.0) - math.lgamma(n + b))
    return NormalizedMode(
        index=index,
        N=table.N,
        alpha=alpha_j,
        gamma=gamma_of(index, table),
        norm=math.exp(0.5 * log_norm_sq),
        poly=PolySpec(n, b),
    )


def project(state, mode: NormalizedMode) -> complex:
    """Projection coefficient of a separated state onto a normalized mode.

    Angular orthogonality makes the coefficient a single radial quadrature of
    f_j(r) conj(V_radial(r)) r^{N-1} on the state's grid; exactly zero when
    the state carries no j-component.  Emits AccuracyWarning when the grid is
    coarser than 16 points per unit radius over the mode's effective support.
    """
    j = mode.index.j
    if j not in state.profiles:
        return 0.0 + 0.0j
    r = state.grid
    support = min(2.0 * math.sqrt(max(mode.gamma, 1.0)) + 4.0, float(r[-1]))
    n_inside = int(np.sum(r <= support))
    if n_inside < 16 * support:
        warnings.warn(
            f"grid has {n_inside} points inside the mode support radius {support:.1f} "
            f"(< {int(16 * support)}); projection accuracy may suffer",
            AccuracyWarning,
            stacklevel=2,
        )
    integrand = state.profiles[j] * np.conj(mode.radial(r)) * r ** (state.N - 1)
    return complex(np.sum(state.weights * integrand))
