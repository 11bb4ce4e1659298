"""Angular eigenproblems on the unit sphere.

Two regimes are covered:

* ``circle_eigensystem`` -- the magnetic operator
  (-i d/dtheta + alpha(theta))^2 + a(theta) on the circle (N=2).  alpha is
  gauged down to its flux phi = alpha_hat_0: ``assemble_circle`` writes the
  Fourier-Galerkin matrix of (-i d/dtheta + phi)^2 + a, and the other
  harmonics of alpha only multiply each eigenfunction by e^{-i Lambda(theta)},
  Lambda' = alpha - phi;
* ``constant_a_spectrum`` -- closed-form spectrum l(l+N-2) + a for constant a
  (N >= 3).

``eigensolve`` turns an assembled Hermitian matrix into a deterministic,
ascending, orthonormal eigensystem of its lowest ``count`` eigenpairs.  A
diagonal matrix, the circle matrix of every constant a, is read off its
diagonal; any other is diagonalised by ``np.linalg.eigh``.  Only the kept
pairs are ordered, phased and checked; the diagonal route's residual
gathers M's columns at the kept unit vectors, O(nK) for K kept pairs, where
eigh's forms M @ vecs, O(n^2 K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .specfun import sph_harm

HERMITICITY_TOL = 1e-12
# eigensolve's residual bound, relative to max(|M|, 1)
EIGENSOLVE_TOL = 1e-11


class AngularProblemError(ValueError):
    """Invalid coefficients or truncation for an angular problem."""


@dataclass(frozen=True)
class AngularProblem:
    """Definition of the operator (-i d/dtheta + alpha)^2 + a on the circle.

    ``scalar_coeff`` is a constant or a dict of Fourier coefficients
    {q: a_hat_q}; ``magnetic_coeff`` is a dict of Fourier coefficients of the
    scalar tangential component alpha(theta).  Both describe real functions,
    so their coefficients must be conjugate-symmetric.  ``truncation`` is the
    Fourier cutoff K.
    """

    scalar_coeff: float | dict
    magnetic_coeff: dict | None = None
    truncation: int = 16

    def __post_init__(self):
        _check_real_symmetry(_as_fourier(self.scalar_coeff))
        _check_real_symmetry(self.magnetic_coeff or {})


def _check_real_symmetry(coeffs: dict) -> None:
    for q, c in coeffs.items():
        if abs(np.conj(coeffs.get(-q, 0.0)) - c) > HERMITICITY_TOL:
            raise AngularProblemError(
                f"Fourier coefficients are not conjugate-symmetric at q={q}; "
                "the coefficient function must be real-valued"
            )


@dataclass(frozen=True)
class AngularEigensystem:
    """Eigenvalues/eigenvectors of the angular operator, ascending, with
    eigenvalues repeated according to multiplicity.

    ``basis_tag`` is ``circle_fourier`` (N=2, ``eigensolve``: coefficients on
    the e^{im theta} modes, m = -K..K) or ``analytic_constant`` (N >= 3,
    ``constant_a_spectrum``: exact degree-l harmonics, row k-1 of the
    (count, 2) integer array ``mode_labels`` carries mode k's (l, m); their
    values are provided for N=3).  ``gauge`` holds the Fourier coefficients
    {q: Lambda_hat_q} of the real phase Lambda(theta) by which a circle
    eigenfunction is e^{-i Lambda} times its vector's Fourier series.
    """

    basis_tag: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_bound: float
    N: int
    mode_labels: np.ndarray | None = None
    gauge: dict | None = None

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def angular_value(self, k, theta, phi=None):
        """Value of the k-th (1-based) normalized eigenfunction; an integer
        array of k gives shape k.shape + theta.shape, each value the bits of
        its own scalar call."""
        idx = np.asarray(k) - 1
        bad = np.flatnonzero((idx < 0) | (idx >= len(self.eigenvalues)))
        if bad.size:
            raise IndexError(f"mode index k={idx.flat[bad[0]] + 1} out of range")
        if self.basis_tag == "analytic_constant":
            if self.N != 3:
                raise NotImplementedError("analytic eigenfunction evaluation is provided for N=3")
            l, m = self.mode_labels[idx, 0], self.mode_labels[idx, 1]
            return sph_harm(l, m, theta, 0.0 if phi is None else phi)
        theta = np.asarray(theta, dtype=float)
        K = (len(self.eigenvectors) - 1) // 2
        phase = np.multiply.outer(np.arange(-K, K + 1), theta)
        if self.gauge:
            # e^{im theta} e^{-i Lambda(theta)}
            phase = phase - sum(c * np.exp(1j * q * theta) for q, c in self.gauge.items()).real
        waves = np.exp(1j * phase)
        # one dot per mode: a matrix product over all modes sums in another
        # order and moves the last bits
        values = [np.tensordot(self.eigenvectors[:, i], waves, axes=(0, 0)) for i in idx.flat]
        return np.reshape(values, idx.shape + theta.shape) / math.sqrt(2 * math.pi)

    def sup_abs(self, k: int) -> float:
        """Estimate of max |psi_k| over the sphere on 256 angles."""
        if self.basis_tag == "circle_fourier":
            theta = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
        else:   # |Y_l^m| does not depend on the longitude
            theta = np.linspace(0.0, math.pi, 256)
        return float(np.max(np.abs(self.angular_value(k, theta))))


def assemble_circle(problem: AngularProblem) -> np.ndarray:
    """Fourier-Galerkin matrix of the flux operator (-i d/dtheta + phi)^2 + a
    on modes e^{im theta}, m = -K..K, phi = alpha_hat_0.

    On the circle alpha is gauge-equivalent to its flux:
    (-i d/dtheta + alpha) = e^{-i Lambda} (-i d/dtheta + phi) e^{i Lambda}
    with Lambda' = alpha - phi, so the other harmonics of alpha change no
    eigenvalue and enter only the eigenfunctions (``circle_eigensystem``).
    M_{mn} = (m^2 + 2m phi + phi^2) delta_{mn} + a_hat_{m-n}; Hermitian by
    construction from the conjugate-symmetric coefficients, which
    ``AngularProblem`` checks (``eigensolve`` checks M).
    """
    K = problem.truncation
    # g = phi^2 + a
    g_hat = _as_fourier(problem.scalar_coeff)
    flux = {q: c for q, c in (problem.magnetic_coeff or {}).items() if q == 0}
    if flux:
        g_hat[0] = g_hat.get(0, 0.0) + flux[0] * flux[0]
    # only the diagonals q = m - n that carry a coefficient are written; each
    # takes the product and the sum even where phi or a_hat_q is absent, so
    # its signed zeros are those of the entry-by-entry sum
    n = 2 * K + 1
    ms = np.arange(-K, K + 1)
    M = np.zeros((n, n), dtype=complex)
    for q in sorted(set(g_hat) | set(flux)):
        if abs(q) <= 2 * K:
            rows = np.arange(max(q, 0), n + min(q, 0))
            M[rows, rows - q] = (complex(flux.get(q, 0.0)) * (ms[rows] + ms[rows - q])
                                 + complex(g_hat.get(q, 0.0)))
    M[np.diag_indices_from(M)] += ms * ms
    return M


def circle_eigensystem(problem: AngularProblem, count: int | None = None) -> AngularEigensystem:
    """The lowest ``count`` eigenpairs of the circle problem: those of the
    flux operator (``assemble_circle``, ``eigensolve``), whose eigenfunctions
    ``angular_value`` multiplies by e^{-i Lambda}, Lambda = sum over q != 0
    of alpha_hat_q e^{iq theta}/(iq)."""
    eig = eigensolve(assemble_circle(problem), count=count)
    gauge = {q: c / (1j * q) for q, c in (problem.magnetic_coeff or {}).items() if q != 0}
    return replace(eig, gauge=gauge) if gauge else eig


def _as_fourier(scalar_coeff) -> dict:
    if isinstance(scalar_coeff, dict):
        return dict(scalar_coeff)
    if np.isscalar(scalar_coeff):
        return {0: complex(scalar_coeff)}
    raise AngularProblemError(
        "circle problems take a constant or Fourier-coefficient dict for a(theta)"
    )


def _require_hermitian(M: np.ndarray, d: np.ndarray | None = None) -> None:
    """Raise unless M is Hermitian to HERMITICITY_TOL.  Given the diagonal
    d of a diagonal M, only d is read: the rest is zero."""
    if d is None:
        dev, size = np.max(np.abs(M - M.conj().T)), np.max(np.abs(M))
    else:
        dev, size = np.max(np.abs(d - d.conj())), np.max(np.abs(d))
    if dev > HERMITICITY_TOL * max(1.0, size):
        raise AngularProblemError(f"matrix is not Hermitian (deviation {dev:.3e})")


class EigensolveError(RuntimeError):
    """Eigendecomposition failed to reach the residual bound EIGENSOLVE_TOL."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def eigensolve(M: np.ndarray, count: int | None = None) -> AngularEigensystem:
    """The lowest ``count`` eigenpairs of a Hermitian matrix (all of them if
    ``count`` is None or at least the dimension), as an N=2 eigensystem whose
    vectors are coefficients on the circle Fourier modes (``assemble_circle``).

    A diagonal M, such as the circle matrix of a constant a, gives its
    stably sorted diagonal and, up to the cut, unit vectors; any other M is
    diagonalised by ``np.linalg.eigh``.  Either way only the kept pairs are
    ordered, phased and checked.  Output is deterministic for identical
    input: eigenvalues ascending, degenerate clusters ordered by the basis
    index of the dominant coefficient, each vector rotated so its first
    significant coefficient is positive real.  A cluster that the cut splits
    is ordered as a whole first, so the kept pairs are the first ``count`` of
    the full solve.  A non-finite matrix, or a residual that is not finite or
    exceeds EIGENSOLVE_TOL*max(|M|, 1), raises ``EigensolveError``.
    """
    M = np.asarray(M)
    n = len(M)
    d = np.diagonal(M)
    # the off-diagonal entries, as n - 1 rows of n between diagonal ones
    diagonal = not M.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any()
    if not np.all(np.isfinite(d if diagonal else M)):
        raise EigensolveError("angular matrix has non-finite entries", math.nan)
    _require_hermitian(M, d if diagonal else None)
    if count is not None and count < 1:
        raise ValueError(f"eigensolve needs count >= 1, got {count}")
    if diagonal:
        by_value = np.argsort(d.real, kind="stable")
        vals = d.real[by_value]
    else:
        vals, vecs = np.linalg.eigh(M)
    # the tolerance scale is max|lambda| of the whole spectrum, kept or not
    scale = max(np.max(np.abs(vals)), 1.0)
    kept = len(vals) if count is None else min(count, len(vals))
    # a cluster joins only values that roundoff can split apart: a wider one
    # joins distinct values, and its basis-index order is then not ascending
    clusters = _clusters(vals, 64 * np.finfo(float).eps * scale, kept)
    if diagonal:
        stop = clusters[-1][1]
        vecs = np.zeros((n, stop), dtype=np.result_type(M, 1.0))
        vecs[by_value[:stop], np.arange(stop)] = 1.0
    # order degenerate clusters by dominant-coefficient index
    order = list(range(len(vals)))
    for i, j in clusters:
        if j > i + 1:
            order[i:j] = sorted(order[i:j],
                                key=lambda k: int(np.argmax(np.abs(vecs[:, k]))))
    vals = vals[order[:kept]]
    vecs = vecs[:, order[:kept]]
    # fix the free phase: first coefficient above threshold (else the first)
    # is positive real
    pivot = vecs[np.argmax(np.abs(vecs) > 1e-8, axis=0), np.arange(kept)]
    live = pivot != 0
    vecs[:, live] *= np.conj(pivot[live]) / np.abs(pivot[live])
    if diagonal:
        # kept vector k is a multiple of the unit vector e_{rows[k]}, so
        # M @ vecs is M's own columns rows[k] times those entries: O(n K)
        rows = by_value[order[:kept]]
        image = M[:, rows] * vecs[rows, np.arange(kept)]
    else:
        image = M @ vecs
    residual = float(np.max(np.linalg.norm(image - vecs * vals, axis=0)))
    # for Hermitian M the spectral norm |M| is max |lambda|, so scale = max(|M|, 1);
    # a NaN residual fails the check too
    if not residual <= EIGENSOLVE_TOL * scale:
        raise EigensolveError(
            f"eigensolve residual {residual:.3e} exceeds tol*max(|M|, 1) = "
            f"{EIGENSOLVE_TOL * scale:.3e}",
            residual,
        )
    gram_dev = float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1]))))
    return AngularEigensystem(
        basis_tag="circle_fourier",
        eigenvalues=vals,
        eigenvectors=vecs,
        residual_bound=max(residual, gram_dev),
        N=2,
    )


def _clusters(vals: np.ndarray, width: float, kept: int) -> list:
    """Degenerate clusters [i, j) of the ascending ``vals`` that start below
    ``kept``: each runs while values stay within ``width`` of its first."""
    clusters = []
    i = 0
    while i < kept:
        j = i + 1
        while j < len(vals) and vals[j] - vals[i] <= width:
            j += 1
        clusters.append((i, j))
        i = j
    return clusters


def harmonic_multiplicity(l: int, N: int) -> int:
    """Dimension of the space of degree-l spherical harmonics on S^{N-1}."""
    if l < 0:
        raise ValueError("degree l must be >= 0")
    low = math.comb(N + l - 3, l - 2) if l >= 2 else 0
    return int(math.comb(N + l - 1, l) - low)


def constant_a_spectrum(N: int, a: float, count: int) -> AngularEigensystem:
    """Exact spectrum mu = l(l+N-2) + a of -Laplace_{S^{N-1}} + a, each
    eigenvalue repeated with its harmonic multiplicity, at least ``count``
    entries (whole degree blocks are kept)."""
    if N < 3:
        raise AngularProblemError("constant_a_spectrum requires N >= 3")
    if count < 1:
        raise AngularProblemError("count must be >= 1")
    mult = []
    while sum(mult) < count:
        mult.append(harmonic_multiplicity(len(mult), N))
    ls = np.arange(len(mult))
    degree = np.repeat(ls, mult)
    # the label's second entry counts the modes of a degree block from 0;
    # on S^2 it is the order m = -l..l
    within = np.arange(len(degree)) - np.repeat(np.cumsum(mult) - mult, mult)
    return AngularEigensystem(
        basis_tag="analytic_constant",
        eigenvalues=np.repeat(ls * (ls + N - 2) + a, mult),
        eigenvectors=None,
        residual_bound=0.0,
        N=N,
        mode_labels=np.column_stack((degree, within - degree if N == 3 else within)),
    )
