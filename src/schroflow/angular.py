"""Angular eigenproblems on the unit sphere.

Three regimes are covered:

* ``assemble_circle`` -- Fourier-Galerkin matrix of the magnetic operator
  (-i d/dtheta + alpha(theta))^2 + a(theta) on the circle (N=2);
* ``assemble_sphere`` -- spherical-harmonic Galerkin matrix of
  -Laplace_{S^2} + a(theta) (N=3, no magnetic term);
* ``constant_a_spectrum`` -- closed-form spectrum l(l+N-2) + a for constant a.

``eigensolve`` turns an assembled Hermitian matrix into a deterministic,
ascending, orthonormal eigensystem of its lowest ``count`` eigenpairs.  A
matrix of bandwidth b with b*b <= n, such as the circle matrix, gets its whole
spectrum from ``eigvals_banded`` and only the vectors up to the kept ones, by
inverse iteration on its banded LU; a wider one is diagonalised by
``np.linalg.eigh``.  Only the kept pairs are ordered, phased and checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvals_banded, get_lapack_funcs, qr, toeplitz

from .specfun import real_sph_harm, sph_harm

HERMITICITY_TOL = 1e-12


class AngularProblemError(ValueError):
    """Invalid coefficients or truncation for an angular problem."""


@dataclass(frozen=True)
class AngularProblem:
    """Definition of the operator (-i grad_S + A)^2 + a on S^{N-1}.

    ``scalar_coeff`` is a constant, a dict of circle Fourier coefficients
    {q: a_hat_q}, or a callable a(theta) on the sphere.  ``magnetic_coeff``
    (circle only) is a dict of Fourier coefficients of the scalar tangential
    component alpha(theta).  ``truncation`` is the Fourier cutoff K on the
    circle or the harmonic degree cutoff L_max on the sphere.
    """

    N: int
    scalar_coeff: object
    magnetic_coeff: dict | None = None
    truncation: int = 16

    def __post_init__(self):
        if self.N < 2:
            raise AngularProblemError("dimension N must be >= 2")
        if self.N >= 3 and self.magnetic_coeff:
            raise AngularProblemError("magnetic coefficients are supported only for N=2")
        for coeffs in (self._scalar_fourier(), self.magnetic_coeff):
            if isinstance(coeffs, dict):
                _check_real_symmetry(coeffs)

    def _scalar_fourier(self):
        if isinstance(self.scalar_coeff, dict):
            return self.scalar_coeff
        return None


def _check_real_symmetry(coeffs: dict, tol: float = 1e-12) -> None:
    for q, c in coeffs.items():
        if abs(np.conj(coeffs.get(-q, 0.0)) - c) > tol:
            raise AngularProblemError(
                f"Fourier coefficients are not conjugate-symmetric at q={q}; "
                "the coefficient function must be real-valued"
            )


@dataclass(frozen=True)
class AngularEigensystem:
    """Eigenvalues/eigenvectors of the angular operator, ascending, with
    eigenvalues repeated according to multiplicity.

    ``basis_tag`` is one of ``circle_fourier`` (coefficients on e^{im theta}
    modes, m = -K..K), ``sphere_harmonic`` (real harmonics, (l, m) pairs in
    lexicographic order) or ``analytic_constant`` (exact degree-l harmonics,
    ``mode_labels`` carries (l, m)).
    """

    basis_tag: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_bound: float
    N: int
    mode_labels: tuple = ()

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def angular_value(self, k: int, theta, phi=None):
        """Value of the k-th (1-based) normalized eigenfunction."""
        idx = k - 1
        if idx < 0 or idx >= len(self.eigenvalues):
            raise IndexError(f"mode index k={k} out of range")
        if self.basis_tag == "analytic_constant":
            l, m = self.mode_labels[idx]
            if self.N == 3:
                return sph_harm(l, m, theta, 0.0 if phi is None else phi)
            if self.N == 2:
                return np.exp(1j * m * np.asarray(theta)) / math.sqrt(2 * math.pi)
            raise NotImplementedError(
                "analytic eigenfunction evaluation is provided for N in {2, 3}"
            )
        if self.basis_tag == "circle_fourier":
            coeffs = self.eigenvectors[:, idx]
            K = (len(coeffs) - 1) // 2
            ms = np.arange(-K, K + 1)
            th = np.asarray(theta, dtype=float)
            return np.tensordot(coeffs, np.exp(1j * np.multiply.outer(ms, th)), axes=(0, 0)) / math.sqrt(
                2 * math.pi
            )
        if self.basis_tag == "sphere_harmonic":
            coeffs = self.eigenvectors[:, idx]
            out = 0.0
            for c, (l, m) in zip(coeffs, self.mode_labels):
                if c != 0.0:
                    out = out + c * real_sph_harm(l, m, theta, 0.0 if phi is None else phi)
            return out
        raise ValueError(f"unknown basis_tag {self.basis_tag!r}")

    def sup_abs(self, k: int, samples: int = 256) -> float:
        """Grid estimate of max |psi_k| over the sphere."""
        if self.basis_tag == "analytic_constant" and self.N == 3:
            l, m = self.mode_labels[k - 1]
            theta = np.linspace(0.0, math.pi, samples)
            return float(np.max(np.abs(sph_harm(l, m, theta, 0.0))))
        if self.N == 2 or self.basis_tag == "circle_fourier":
            theta = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
            return float(np.max(np.abs(self.angular_value(k, theta))))
        theta = np.linspace(0.0, math.pi, samples)
        phi = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        return float(np.max(np.abs(self.angular_value(k, tt, pp))))


def assemble_circle(problem: AngularProblem) -> np.ndarray:
    """Fourier-Galerkin matrix of (-i d/dtheta + alpha)^2 + a on modes
    e^{im theta}, m = -K..K.

    M_{mn} = m^2 delta_{mn} + (n+m) alpha_hat_{m-n} + g_hat_{m-n} with
    g = alpha^2 + a; Hermitian by construction from the conjugate-symmetric
    coefficients, which are checked here (``eigensolve`` checks M again).
    """
    if problem.N != 2:
        raise AngularProblemError("assemble_circle requires N=2")
    K = problem.truncation
    a_hat = _as_fourier(problem.scalar_coeff)
    al_hat = dict(problem.magnetic_coeff or {})
    _check_real_symmetry(a_hat)
    _check_real_symmetry(al_hat)
    # g = alpha^2 + a via coefficient convolution
    g_hat: dict = dict(a_hat)
    for p, cp in al_hat.items():
        for q, cq in al_hat.items():
            g_hat[p + q] = g_hat.get(p + q, 0.0) + cp * cq
    # the coefficient terms are Toeplitz in m - n = -2K..2K: first column
    # m - n = 0..2K, first row m - n = 0..-2K; built in place, so that at
    # most one matrix-sized temporary lives beside M
    g, al = (np.array([c.get(q, 0.0) for q in range(-2 * K, 2 * K + 1)], dtype=complex)
             for c in (g_hat, al_hat))
    ms = np.arange(-K, K + 1)
    M = toeplitz(al[2 * K:], al[2 * K::-1])
    M *= np.add.outer(ms, ms)
    M += toeplitz(g[2 * K:], g[2 * K::-1])
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


def sphere_quadrature(L_max: int, n_theta: int | None = None, n_phi: int | None = None):
    """Gauss-Legendre x trapezoid product quadrature on S^2.

    Returns (theta, phi, w) flattened node arrays with sum(w) = 4 pi.
    """
    nt = n_theta if n_theta is not None else 2 * L_max + 2
    np_ = n_phi if n_phi is not None else 4 * L_max + 4
    if nt < 2 * L_max + 2 or np_ < 4 * L_max + 4:
        raise AngularProblemError(
            f"sphere quadrature needs >= {2*L_max+2} colatitude and >= {4*L_max+4} "
            f"longitude nodes for L_max={L_max}"
        )
    x, wx = np.polynomial.legendre.leggauss(nt)
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(np_) / np_
    wphi = 2.0 * math.pi / np_
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ww = np.repeat(wx * wphi, np_)
    return tt.ravel(), pp.ravel(), ww


def sphere_mode_labels(L_max: int) -> tuple:
    return tuple((l, m) for l in range(L_max + 1) for m in range(-l, l + 1))


def assemble_sphere(problem: AngularProblem, n_theta: int | None = None,
                    n_phi: int | None = None) -> np.ndarray:
    """Galerkin matrix of -Laplace_{S^2} + a(theta) over real harmonics up to
    degree L_max: diag(l(l+1)) plus the quadrature Gram of a."""
    if problem.N != 3:
        raise AngularProblemError("assemble_sphere requires N=3")
    L_max = problem.truncation
    labels = sphere_mode_labels(L_max)
    theta, phi, w = sphere_quadrature(L_max, n_theta, n_phi)
    a = problem.scalar_coeff
    a_vals = np.full_like(theta, float(a)) if np.isscalar(a) else np.asarray(
        [a(t) for t in theta]
    )
    Y = np.empty((len(labels), len(theta)))
    for i, (l, m) in enumerate(labels):
        Y[i] = real_sph_harm(l, m, theta, phi)
    M = (Y * (w * a_vals)) @ Y.T
    M[np.diag_indices_from(M)] += [l * (l + 1) for l, _ in labels]
    M = 0.5 * (M + M.T)
    return M


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
    """Eigendecomposition failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def eigensolve(M: np.ndarray, tol: float = 1e-11, N: int = 2, mode_labels: tuple = (),
               count: int | None = None) -> AngularEigensystem:
    """The lowest ``count`` eigenpairs of a Hermitian matrix (all of them if
    ``count`` is None or at least the dimension).

    A matrix of bandwidth b with b*b <= n takes the band route: the whole
    spectrum from ``eigvals_banded`` in O(n^2 b) sets the tolerance scale and
    the cut, then ``_band_eigh`` computes only the pairs up to the kept ones,
    by inverse iteration.  A wider band takes ``np.linalg.eigh`` on the dense
    matrix.  The route depends on M alone, never on ``count``.  Either way
    only the kept pairs are ordered, phased and checked.  Output is
    deterministic for identical input: eigenvalues ascending, degenerate
    clusters ordered by the basis index of the dominant coefficient, each
    vector rotated so its first significant coefficient is positive real.  A
    cluster that the cut splits is ordered as a whole first, so the kept
    pairs are the first ``count`` of the full solve.  A non-finite matrix or
    residual raises ``EigensolveError``.  N sets the basis of the vectors:
    circle Fourier modes for N=2 (``assemble_circle``), real sphere harmonics
    labelled by ``mode_labels`` otherwise (``assemble_sphere``).
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
    clusters = _clusters(vals, 10 * tol * scale, kept)
    if band:
        vals, vecs = _band_eigh(ab, b, vals, scale, tol, clusters)
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
    residual = float(
        np.max(np.linalg.norm(M @ vecs - vecs * vals, axis=0))
    )
    # for Hermitian M the spectral norm |M| is max |lambda|, so scale = max(|M|, 1);
    # a NaN residual fails the check too
    if not residual <= tol * scale:
        raise EigensolveError(
            f"eigensolve residual {residual:.3e} exceeds tol*max(|M|, 1) = {tol * scale:.3e}",
            residual,
        )
    gram_dev = float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1]))))
    return AngularEigensystem(
        basis_tag="circle_fourier" if N == 2 else "sphere_harmonic",
        eigenvalues=vals,
        eigenvectors=vecs,
        residual_bound=max(residual, gram_dev),
        N=N,
        mode_labels=mode_labels,
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
               tol: float, clusters: list) -> tuple:
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
    cluster of ``clusters`` is split into runs within ``tol*scale/2`` of
    their first value, and each run gets a basis that depends only on its
    eigenspace: the projections of the coordinate vectors that a pivoted QR
    picks.  Any basis of such a run keeps the residual within half of
    ``eigensolve``'s bound.  Whole groups are computed, so no pair depends
    on ``stop``.
    """
    n = len(vals)
    # wide enough that no degenerate cluster spans two groups
    gap = max(GROUP_GAP, 10 * tol) * scale
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
        for p, q in _clusters(vals[i:j], tol * scale / 2, j - i):
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
    eigenvalues = []
    labels = []
    l = 0
    while len(eigenvalues) < count:
        mult = harmonic_multiplicity(l, N)
        eigenvalues.extend([l * (l + N - 2) + a] * mult)
        if N == 3:
            labels.extend((l, m) for m in range(-l, l + 1))
        else:
            labels.extend((l, i) for i in range(mult))
        l += 1
    return AngularEigensystem(
        basis_tag="analytic_constant",
        eigenvalues=np.array(eigenvalues),
        eigenvectors=None,
        residual_bound=0.0,
        N=N,
        mode_labels=tuple(labels),
    )
