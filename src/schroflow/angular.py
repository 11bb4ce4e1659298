"""Angular eigenproblems on the unit sphere.

Two regimes are covered:

* ``assemble_circle`` -- Fourier-Galerkin matrix of the magnetic operator
  (-i d/dtheta + alpha(theta))^2 + a(theta) on the circle (N=2), written
  only on the diagonals that carry a Fourier coefficient;
* ``constant_a_spectrum`` -- closed-form spectrum l(l+N-2) + a for constant a
  (N >= 3).

``eigensolve`` turns an assembled Hermitian matrix into a deterministic,
ascending, orthonormal eigensystem of its lowest ``count`` eigenpairs.  A
matrix of bandwidth b with b*b <= n, such as the circle matrix, gets its whole
spectrum from ``eigvals_banded`` and only the vectors up to the kept ones, by
inverse iteration on its banded LU, and its residual from the band storage;
a wider one is diagonalised by ``np.linalg.eigh``.  Only the kept pairs are
ordered, phased and checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals_banded, get_lapack_funcs, qr

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
    values are provided for N=3).
    """

    basis_tag: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_bound: float
    N: int
    mode_labels: np.ndarray | None = None

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
        K = (len(self.eigenvectors) - 1) // 2
        waves = np.exp(1j * np.multiply.outer(np.arange(-K, K + 1), np.asarray(theta, dtype=float)))
        # one dot per mode: a matrix product over all modes sums in another
        # order and moves the last bits
        values = [np.tensordot(self.eigenvectors[:, i], waves, axes=(0, 0)) for i in idx.flat]
        return np.reshape(values, idx.shape + waves.shape[1:]) / math.sqrt(2 * math.pi)

    def sup_abs(self, k: int) -> float:
        """Estimate of max |psi_k| over the sphere on 256 angles."""
        if self.basis_tag == "circle_fourier":
            theta = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
        else:   # |Y_l^m| does not depend on the longitude
            theta = np.linspace(0.0, math.pi, 256)
        return float(np.max(np.abs(self.angular_value(k, theta))))


def assemble_circle(problem: AngularProblem) -> np.ndarray:
    """Fourier-Galerkin matrix of (-i d/dtheta + alpha)^2 + a on modes
    e^{im theta}, m = -K..K.

    M_{mn} = m^2 delta_{mn} + (n+m) alpha_hat_{m-n} + g_hat_{m-n} with
    g = alpha^2 + a; Hermitian by construction from the conjugate-symmetric
    coefficients, which ``AngularProblem`` checks (``eigensolve`` checks M).
    """
    K = problem.truncation
    a_hat = _as_fourier(problem.scalar_coeff)
    al_hat = dict(problem.magnetic_coeff or {})
    # g = alpha^2 + a via coefficient convolution
    g_hat: dict = dict(a_hat)
    for p, cp in al_hat.items():
        for q, cq in al_hat.items():
            g_hat[p + q] = g_hat.get(p + q, 0.0) + cp * cq
    # only the diagonals q = m - n that carry a coefficient are written; each
    # takes the product and the sum even where alpha_hat_q or g_hat_q is
    # absent, so its signed zeros are those of the entry-by-entry sum
    n = 2 * K + 1
    ms = np.arange(-K, K + 1)
    M = np.zeros((n, n), dtype=complex)
    for q in sorted(set(g_hat) | set(al_hat)):
        if abs(q) <= 2 * K:
            rows = np.arange(max(q, 0), n + min(q, 0))
            M[rows, rows - q] = (complex(al_hat.get(q, 0.0)) * (ms[rows] + ms[rows - q])
                                 + complex(g_hat.get(q, 0.0)))
    M[np.diag_indices_from(M)] += ms * ms
    return M


def _as_fourier(scalar_coeff) -> dict:
    if isinstance(scalar_coeff, dict):
        return dict(scalar_coeff)
    if np.isscalar(scalar_coeff):
        return {0: complex(scalar_coeff)}
    raise AngularProblemError(
        "circle problems take a constant or Fourier-coefficient dict for a(theta)"
    )


def _require_hermitian(M: np.ndarray, b: int | None = None) -> None:
    """Raise unless M is Hermitian to HERMITICITY_TOL.  Given the bandwidth
    b of M, only its 2b+1 central diagonals are read: the rest is zero."""
    if b is None:
        dev, size = np.max(np.abs(M - M.conj().T)), np.max(np.abs(M))
    else:
        diagonals = [np.diagonal(M, d) for d in range(-b, b + 1)]
        dev = max(np.max(np.abs(diagonals[b + d] - diagonals[b - d].conj()))
                  for d in range(b + 1))
        size = max(np.max(np.abs(v)) for v in diagonals)
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

    A matrix of bandwidth b with b*b <= n takes the band route: the whole
    spectrum from ``eigvals_banded`` in O(n^2 b) sets the tolerance scale and
    the cut, then ``_band_eigh`` computes only the pairs up to the kept ones,
    by inverse iteration, and the residual M X - X Lambda is formed on the
    band.  A wider band takes ``np.linalg.eigh`` on the dense matrix.  The route depends on M alone, never on ``count``.  Either way
    only the kept pairs are ordered, phased and checked.  Output is
    deterministic for identical input: eigenvalues ascending, degenerate
    clusters ordered by the basis index of the dominant coefficient, each
    vector rotated so its first significant coefficient is positive real.  A
    cluster that the cut splits is ordered as a whole first, so the kept
    pairs are the first ``count`` of the full solve.  A non-finite matrix, or
    a residual that is not finite or exceeds EIGENSOLVE_TOL*max(|M|, 1),
    raises ``EigensolveError``.
    """
    M = np.asarray(M)
    if not np.all(np.isfinite(M)):
        raise EigensolveError("angular matrix has non-finite entries", math.nan)
    b = _bandwidth(M)
    band = b * b <= len(M)
    _require_hermitian(M, b if band else None)
    if count is not None and count < 1:
        raise ValueError(f"eigensolve needs count >= 1, got {count}")
    if band:
        ab = _general_band(M, b)
        vals = eigvals_banded(ab[2 * b:], lower=True, check_finite=False)
    else:
        vals, vecs = np.linalg.eigh(M)
    # the tolerance scale is max|lambda| of the whole spectrum, kept or not
    scale = max(np.max(np.abs(vals)), 1.0)
    kept = len(vals) if count is None else min(count, len(vals))
    clusters = _clusters(vals, 10 * EIGENSOLVE_TOL * scale, kept)
    if band:
        vals, vecs = _band_eigh(ab, b, vals, scale, clusters)
    # order degenerate clusters by dominant-coefficient index
    order = list(range(len(vals)))
    for i, j in clusters:
        if j > i + 1:
            order[i:j] = sorted(order[i:j],
                                key=lambda k: int(np.argmax(np.abs(vecs[:, k]))))
    vals = vals[order[:kept]]
    vecs = vecs[:, order[:kept]]
    # fix the free phase: first coefficient above threshold is positive real
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        idx = int(np.argmax(np.abs(col) > 1e-8)) if np.any(np.abs(col) > 1e-8) else 0
        pivot = col[idx]
        if pivot != 0:
            vecs[:, k] = col * (np.conj(pivot) / abs(pivot))
    product = _band_matmul(ab, b, vecs) if band else M @ vecs
    residual = float(np.max(np.linalg.norm(product - vecs * vals, axis=0)))
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


def _bandwidth(M: np.ndarray) -> int:
    """Largest |i - j| over the nonzero entries of M."""
    i, j = np.nonzero(M != 0)
    return int(np.max(np.abs(i - j), initial=0))


def _general_band(M: np.ndarray, b: int) -> np.ndarray:
    """M of bandwidth b in LAPACK general band storage: M[i, j] at
    ``ab[2b + i - j, j]``, under b rows that ``?gbtrf`` fills; rows 2b..3b
    are the lower band storage of ``eigvals_banded``."""
    n = len(M)
    ab = np.zeros((3 * b + 1, n), dtype=np.result_type(M, 1.0))
    for d in range(b + 1):
        ab[2 * b + d, :n - d] = np.diagonal(M, -d)
        ab[2 * b - d, d:] = np.diagonal(M, d)
    return ab


def _band_matmul(ab: np.ndarray, b: int, X: np.ndarray) -> np.ndarray:
    """M @ X for M in ``_general_band`` storage."""
    n = len(X)
    Y = ab[2 * b, :, None] * X
    for d in range(1, b + 1):
        Y[d:] += ab[2 * b + d, :n - d, None] * X[:n - d]
        Y[:n - d] += ab[2 * b - d, d:, None] * X[d:]
    return Y


# inverse iteration: eigenvalues closer than GROUP_GAP*scale share a close
# group, reorthogonalised and Rayleigh-Ritz rotated together.  Vectors of
# different groups lose orthogonality by about eps/GROUP_GAP at worst (LAPACK
# ?stein groups at 1e-3; 1e-4 keeps a 401-mode circle matrix's lowest 24
# pairs free of a 70-pair group).  An iterate converges once its growth
# reaches 1/(n*shift), and takes one more step.
GROUP_GAP = 1e-4
MAX_ITERATIONS = 5


def _band_eigh(ab: np.ndarray, b: int, vals: np.ndarray, scale: float,
               clusters: list) -> tuple:
    """The eigenpairs ``0..stop-1`` of the matrix in ``_general_band`` storage
    ``ab``, whose ascending eigenvalues are ``vals``, by Wilkinson inverse
    iteration; ``stop`` ends the close group that holds the last of
    ``clusters``.  Returns the vectors' Rayleigh quotients and the vectors
    as columns, like ``np.linalg.eigh``.

    Each shift sits four ulps of ``scale`` below its eigenvalue and is
    factored by ``?gbtrf``; a zero pivot is replaced by that distance, so no
    iterate turns non-finite.  Start vectors are a fixed pseudo-random
    sequence, the same for every ``stop``.  Within a close group each vector
    is reorthogonalised against the group's earlier ones, and the group is
    then Rayleigh-Ritz rotated, which resolves every eigenvalue gap above
    roundoff.  Below that the rotation is arbitrary, so each degenerate
    cluster of ``clusters`` is split into runs within
    ``EIGENSOLVE_TOL*scale/2`` of their first value, and each run gets a
    basis that depends only on its eigenspace: the projections of the
    coordinate vectors that a pivoted QR picks.  Any basis of such a run
    keeps the residual within half of ``eigensolve``'s bound.  Whole groups
    are computed, so no pair depends on ``stop``.
    """
    n = len(vals)
    # wider than the clusters, 10*EIGENSOLVE_TOL*scale, so that no
    # degenerate cluster spans two groups
    gap = GROUP_GAP * scale
    bounds = (np.flatnonzero(np.diff(vals) > gap) + 1).tolist() + [n]
    stop = next(e for e in bounds if e >= clusters[-1][1])
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    starts = np.random.default_rng(0).standard_normal((stop, n))
    shift = 4 * np.spacing(scale)
    # the vectors are the rows of V, so that a group is one contiguous block
    V = np.empty((stop, n), dtype=ab.dtype)
    g0 = 0
    for g1 in bounds[:bounds.index(stop) + 1]:
        for j in range(g0, g1):
            lu = ab.copy()
            lu[2 * b] -= vals[j] - shift
            lu, piv, info = gbtrf(lu, b, b, overwrite_ab=True)
            if info > 0:
                lu[2 * b, lu[2 * b] == 0] = shift
            x, converged = starts[j], False
            for _ in range(MAX_ITERATIONS):
                x = gbtrs(lu, b, b, x / _norm(x), piv)[0]
                if converged:
                    break
                converged = _norm(x) * n * shift >= 1
            for _ in range(2 if j > g0 else 0):
                x -= (V[g0:j] @ x.conj()).conj() @ V[g0:j]
            V[j] = x / _norm(x)
        if g1 - g0 > 1:
            W = V[g0:g1]
            H = W.conj() @ _band_matmul(ab, b, W.T)
            V[g0:g1] = np.linalg.eigh(0.5 * (H + H.conj().T))[1].T @ W
        g0 = g1
    for i, j in clusters:
        for p, q in _clusters(vals[i:j], EIGENSOLVE_TOL * scale / 2, j - i):
            if q - p > 1:
                run = V[i + p:i + q]
                V[i + p:i + q] = qr(run.conj(), mode="economic", pivoting=True)[0].T @ run
    ritz = np.einsum("ij,ji->i", V.conj(), _band_matmul(ab, b, V.T)).real
    return ritz, V.T


def _norm(x: np.ndarray) -> float:
    """2-norm of a vector; a quarter of ``np.linalg.norm``'s call cost, which
    the inverse iteration pays four times per vector."""
    return math.sqrt(np.vdot(x, x).real)


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
