import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from schroflow import angular
from schroflow.angular import (AngularProblem, AngularProblemError,
                               EigensolveError, assemble_circle,
                               assemble_sphere, constant_a_spectrum, eigensolve,
                               harmonic_multiplicity, sphere_mode_labels,
                               sphere_quadrature)


class TestAharonovBohmCircle:
    def test_constant_flux_spectrum(self):
        # (-i d/dtheta + 0.3)^2 on the circle has eigenvalues (m + 0.3)^2
        prob = AngularProblem(N=2, scalar_coeff=0.0,
                              magnetic_coeff={0: 0.3}, truncation=32)
        eig = eigensolve(assemble_circle(prob), N=2)
        expected = np.sort([(m + 0.3) ** 2 for m in range(-32, 33)])
        dev = np.abs(eig.eigenvalues - expected)
        # interior modes |m| <= 30 are unaffected by truncation
        assert dev[:61].max() <= 1e-10

    def test_scalar_shift(self):
        base = AngularProblem(N=2, scalar_coeff=0.0,
                              magnetic_coeff={0: 0.3}, truncation=16)
        shifted = AngularProblem(N=2, scalar_coeff=2.5,
                                 magnetic_coeff={0: 0.3}, truncation=16)
        e0 = eigensolve(assemble_circle(base), N=2).eigenvalues
        e1 = eigensolve(assemble_circle(shifted), N=2).eigenvalues
        assert np.allclose(e1 - e0, 2.5, atol=1e-10)

    def test_no_coefficients_gives_m_squared(self):
        prob = AngularProblem(N=2, scalar_coeff=0.0, truncation=8)
        eig = eigensolve(assemble_circle(prob), N=2)
        expected = np.sort([m * m for m in range(-8, 9)])
        assert np.allclose(eig.eigenvalues, expected, atol=1e-12)

    def test_complex_coefficient_rejected(self):
        with pytest.raises(AngularProblemError):
            AngularProblem(N=2, scalar_coeff={1: 1.0}, truncation=8)

    def test_magnetic_on_sphere_rejected(self):
        with pytest.raises(AngularProblemError):
            AngularProblem(N=3, scalar_coeff=0.0, magnetic_coeff={0: 0.3})

    def test_eigenfunction_satisfies_operator(self):
        # for alpha(theta)=0.3 the k-th eigenfunction is a pure Fourier mode
        prob = AngularProblem(N=2, scalar_coeff=0.0,
                              magnetic_coeff={0: 0.3}, truncation=16)
        eig = eigensolve(assemble_circle(prob), N=2)
        theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        psi1 = eig.angular_value(1, theta)
        # mu_1 = 0.09 belongs to m=0: the ground state is constant
        assert np.allclose(psi1, psi1[0], atol=1e-10)
        assert abs(abs(psi1[0]) - 1.0 / math.sqrt(2 * math.pi)) < 1e-10


def _loop_circle_matrix(problem):
    """The Fourier-Galerkin matrix entry by entry, over dict lookups."""
    K = problem.truncation
    a_hat = (dict(problem.scalar_coeff) if isinstance(problem.scalar_coeff, dict)
             else {0: complex(problem.scalar_coeff)})
    al_hat = dict(problem.magnetic_coeff or {})
    g_hat = dict(a_hat)
    for p, cp in al_hat.items():
        for q, cq in al_hat.items():
            g_hat[p + q] = g_hat.get(p + q, 0.0) + cp * cq
    ms = np.arange(-K, K + 1)
    M = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    for i, m in enumerate(ms):
        for j, n in enumerate(ms):
            val = g_hat.get(m - n, 0.0) + (n + m) * al_hat.get(m - n, 0.0)
            if m == n:
                val += m * m
            M[i, j] = val
    return M


class TestCircleAssembly:
    @pytest.mark.parametrize("scalar, magnetic", [
        pytest.param(0.2, {0: 0.3, 1: 0.1 + 0.25j, -1: 0.1 - 0.25j}, id="complex +-1 flux"),
        pytest.param(0.2, {0: 0.3, 1: complex(-0.2, 0.15), -1: complex(-0.2, -0.15)},
                     id="complex +-1 flux, negative real part"),
        pytest.param({0: 0.5, 2: -0.25, -2: -0.25}, {0: -0.3, 3: 0.1, -3: 0.1},
                     id="real Fourier a and flux"),
        pytest.param(-1.5, None, id="constant a"),
        # off-diagonal entries of real part -0.0 at q = 1, m + n < 0
        pytest.param({0: 0.5, 1: complex(-0.0, 0.1), -1: complex(-0.0, -0.1)},
                     {0: -0.3, 1: 0.2j, -1: -0.2j}, id="signed zeros"),
    ])
    def test_bitwise_equal_to_loop_assembly(self, scalar, magnetic):
        prob = AngularProblem(N=2, scalar_coeff=scalar, magnetic_coeff=magnetic,
                              truncation=9)
        M, ref = assemble_circle(prob), _loop_circle_matrix(prob)
        assert np.array_equal(M, ref)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(M)), np.signbit(part(ref)))


class TestSphereGalerkin:
    def test_constant_coefficient_matches_analytic(self):
        prob = AngularProblem(N=3, scalar_coeff=2.0, truncation=6)
        eig = eigensolve(assemble_sphere(prob), N=3,
                         mode_labels=sphere_mode_labels(6))
        exact = constant_a_spectrum(3, 2.0, len(eig))
        assert np.allclose(eig.eigenvalues,
                           exact.eigenvalues[:len(eig)], atol=1e-10)

    def test_cos_theta_coupling(self):
        # <Y_00 | cos theta | Y_10> = 1/sqrt(3)
        prob = AngularProblem(N=3, scalar_coeff=np.cos, truncation=4)
        M = assemble_sphere(prob)
        labels = sphere_mode_labels(4)
        i00 = labels.index((0, 0))
        i10 = labels.index((1, 0))
        assert M[i00, i10] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert np.max(np.abs(M - M.T)) < 1e-13

    def test_quadrature_weight_sum(self):
        _, _, w = sphere_quadrature(5)
        assert np.sum(w) == pytest.approx(4 * math.pi, rel=1e-13)

    def test_quadrature_underresolved_rejected(self):
        with pytest.raises(AngularProblemError):
            sphere_quadrature(5, n_theta=4)


class TestEigensolve:
    def test_identity_matrix(self):
        eig = eigensolve(np.eye(5), N=2)
        assert np.allclose(eig.eigenvalues, 1.0)
        assert eig.residual_bound <= 1e-14

    def test_basis_follows_the_dimension(self):
        # a real N=2 matrix is a circle Fourier matrix, whatever its dtype
        eig = eigensolve(np.diag([1.0, 2.0, 3.0]), N=2)
        assert abs(eig.angular_value(1, 0.3)) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
        assert eig.sup_abs(1) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(12, 12))
        M = A + A.T
        e1 = eigensolve(M, N=2)
        e2 = eigensolve(M.copy(), N=2)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_degenerate_block_ordering(self):
        # twofold degenerate eigenvalue: vectors come out ordered by the
        # index of their dominant coefficient, pivot positive real
        M = np.diag([2.0, 1.0, 1.0, 5.0])
        eig = eigensolve(M, N=2)
        assert np.allclose(eig.eigenvalues, [1.0, 1.0, 2.0, 5.0])
        assert eig.eigenvectors[1, 0] == pytest.approx(1.0)
        assert eig.eigenvectors[2, 1] == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(AngularProblemError):
            eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]), N=2)

    @staticmethod
    def _assert_first_pairs(M, count):
        full = eigensolve(M, N=2)
        kept = eigensolve(M, N=2, count=count)
        n = min(count, len(full))
        assert len(kept) == n
        assert np.array_equal(kept.eigenvalues, full.eigenvalues[:n])
        assert np.array_equal(kept.eigenvectors, full.eigenvectors[:, :n])

    @pytest.mark.parametrize("count", [1, 5, 12, 13, 40])
    def test_count_keeps_the_first_pairs(self, count):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
        self._assert_first_pairs(A + A.conj().T, count)

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_count_cuts_a_degenerate_cluster(self, count):
        # flux 1/2 plus a gradient: the spectrum (m + 1/2)^2 + a is doubly
        # degenerate with non-trivial vectors; counts 1 and 3 cut a pair,
        # whose order comes from sorting the whole pair
        prob = AngularProblem(N=2, scalar_coeff=0.7, truncation=12,
                              magnetic_coeff={0: 0.5, 1: 0.1 + 0.2j, -1: 0.1 - 0.2j})
        M = assemble_circle(prob)
        vals = eigensolve(M, N=2).eigenvalues
        assert np.allclose(vals[:4], [0.95, 0.95, 2.95, 2.95], atol=1e-12)
        self._assert_first_pairs(M, count)

    @pytest.mark.parametrize("spoiled, raises", [(1, True), (4, False)])
    def test_count_checks_only_kept_pairs(self, monkeypatch, spoiled, raises):
        # each route's full output is spoiled at pair `spoiled`; only the
        # kept pairs 0..2 are checked
        def spoil(vecs):
            vecs[:, spoiled] += 0.1 * vecs[:, spoiled + 1]
            return vecs

        eigh, band_eigh = np.linalg.eigh, angular._band_eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: (eigh(M)[0], spoil(eigh(M)[1])))

        def band_spoiled(ab, b, vals, scale, tol, _):
            # the whole spectrum's pairs, in place of those up to the cut
            every = angular._clusters(vals, 10 * tol * scale, len(vals))
            ritz, vecs = band_eigh(ab, b, vals, scale, tol, every)
            return ritz, spoil(vecs)

        monkeypatch.setattr(angular, "_band_eigh", band_spoiled)
        band = np.diag(np.arange(1.0, 8.0))
        # a corner coupling widens the band to 6, past the band route
        dense = band.copy()
        dense[0, 6] = dense[6, 0] = 1e-3
        for M in (band, dense):
            if raises:
                with pytest.raises(EigensolveError):
                    eigensolve(M, N=2, count=3)
            else:
                assert eigensolve(M, N=2, count=3).residual_bound <= 1e-15

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            eigensolve(np.eye(3), N=2, count=0)

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, (6, 6),
                      elements=st.floats(-5, 5, allow_nan=False)))
    def test_reconstruction_property(self, A):
        M = A + A.T
        eig = eigensolve(M, N=2)
        assert np.all(np.diff(eig.eigenvalues) >= -1e-10)
        V = eig.eigenvectors
        assert np.max(np.abs(V.conj().T @ V - np.eye(6))) < 1e-10
        recon = (V * eig.eigenvalues) @ V.conj().T
        assert np.max(np.abs(recon - M)) < 1e-9 * max(1.0, np.max(np.abs(M)))


def _magnetic_200():
    """The truncation-200 magnetic matrix: bandwidth 2, dimension 401, with
    the gauge-equivalent spectrum (m + 0.3)^2 + 0.2."""
    prob = AngularProblem(N=2, scalar_coeff=0.2, truncation=200,
                          magnetic_coeff={0: 0.3, 1: 0.1 + 0.2j, -1: 0.1 - 0.2j})
    return assemble_circle(prob)


class TestBandRoute:
    def test_matches_eigh(self):
        M = _magnetic_200()
        eig = eigensolve(M, N=2)
        vals, vecs = np.linalg.eigh(M)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(eig.eigenvalues - vals)) <= 1e-12 * scale
        # no two eigenvalues lie closer than 0.4, so every pair is
        # non-degenerate and matches eigh's pair of the same index
        assert np.all(np.diff(eig.eigenvalues) > 0.39)
        overlap = np.abs(np.sum(eig.eigenvectors.conj() * vecs, axis=0))
        assert np.min(overlap) >= 1 - 1e-12

    def test_real_matrix_keeps_real_vectors(self):
        M = np.diag(np.arange(12.0)) + np.diag(np.full(11, 0.4), 1) + np.diag(np.full(11, 0.4), -1)
        eig = eigensolve(M, N=3, count=5)
        assert eig.eigenvectors.dtype == np.float64
        assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(M)[:5], rtol=0, atol=1e-13)
        assert eig.residual_bound <= 1e-13

    def test_wide_band_is_bitwise_eigh(self):
        # bandwidth 11 of 12: np.linalg.eigh, then only the phase fix (the
        # eigenvalues are distinct, so no cluster is reordered)
        rng = np.random.default_rng(11)
        A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        M = A + A.conj().T
        vals, vecs = np.linalg.eigh(M)
        for k in range(12):
            pivot = vecs[np.argmax(np.abs(vecs[:, k]) > 1e-8), k]
            vecs[:, k] *= np.conj(pivot) / abs(pivot)
        eig = eigensolve(M, N=2)
        assert np.array_equal(eig.eigenvalues, vals)
        assert np.array_equal(eig.eigenvectors, vecs)

    @pytest.mark.parametrize("b, band", [(0, True), (4, True), (5, False), (15, False)])
    def test_routing_rule(self, monkeypatch, b, band):
        # the band route when b*b <= n, here n = 16, whatever the count
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return eigvals_banded(*args, **kwargs)

        eigvals_banded = angular.eigvals_banded
        monkeypatch.setattr(angular, "eigvals_banded", spy)
        M = np.diag(np.arange(16.0) ** 2)
        if b:
            M += np.diag(np.full(16 - b, 0.5), b) + np.diag(np.full(16 - b, 0.5), -b)
        for count in (None, 3):
            calls.clear()
            eigensolve(M, N=2, count=count)
            assert calls == ([1] if band else [])

    @pytest.mark.parametrize("count", [1, 2])
    def test_count_cuts_a_close_group(self, count):
        # eigenvalues 1, 1 + 2e-9 and 1 + 4e-5 form one close group, which
        # the counts cut; the first two are one degenerate cluster but two
        # runs, so the group's Rayleigh-Ritz rotation acts on their vectors.
        # Two layers of plane rotations keep the bandwidth at 3 of 20.
        n = 20
        layers = np.eye(n), np.eye(n)
        for start, Q in enumerate(layers):
            for i in range(start, n - 1, 2):
                c, s = math.cos(0.3 + 0.4 * start + 0.1 * i), math.sin(0.3 + 0.4 * start + 0.1 * i)
                Q[i:i + 2, i:i + 2] = [[c, -s], [s, c]]
        Q = layers[0] @ layers[1]
        d = np.concatenate(([1.0, 1.0 + 2e-9, 1.0 + 4e-5], 3.0 + 2.0 * np.arange(n - 3)))
        M = Q @ np.diag(d) @ Q.T
        M = 0.5 * (M + M.T)
        assert angular._bandwidth(M) == 3
        TestEigensolve._assert_first_pairs(M, count)

    def test_zero_pivot_stays_finite(self):
        # the shift of the eigenvalue 1, four ulps below it, lands exactly on
        # the diagonal entry 1 - 4 ulps: LAPACK reports a zero pivot
        M = np.diag([1.0, 1.0 - 4 * np.spacing(1.0), 0.5])
        eig = eigensolve(M, N=2)
        assert np.all(np.isfinite(eig.eigenvectors))
        assert np.allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [2, 0, 1]], atol=1e-15)
        assert eig.residual_bound <= 1e-15


class TestNonFinite:
    def test_non_finite_matrix_rejected(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(EigensolveError):
                eigensolve(np.diag([1.0, bad, 2.0]), N=2)

    def test_nan_residual_fails_the_check(self, monkeypatch):
        eigh = np.linalg.eigh

        def nan_vectors(M):
            vals, vecs = eigh(M)
            return vals, np.full_like(vecs, np.nan)

        monkeypatch.setattr(np.linalg, "eigh", nan_vectors)
        rng = np.random.default_rng(2)
        A = rng.normal(size=(6, 6))
        with pytest.raises(EigensolveError):
            eigensolve(A + A.T, N=2)


class TestConstantSpectrum:
    def test_multiplicities_three_dim(self):
        for l in range(6):
            assert harmonic_multiplicity(l, 3) == 2 * l + 1

    def test_multiplicities_four_dim(self):
        for l in range(6):
            assert harmonic_multiplicity(l, 4) == (l + 1) ** 2

    def test_spectrum_values_and_labels(self):
        eig = constant_a_spectrum(3, -0.1875, 10)
        assert eig.eigenvalues[0] == pytest.approx(-0.1875)
        assert np.allclose(eig.eigenvalues[1:4], 2.0 - 0.1875)
        assert np.allclose(eig.eigenvalues[4:9], 6.0 - 0.1875)
        assert eig.mode_labels[0] == (0, 0)
        assert eig.mode_labels[1] == (1, -1)
        assert len(eig) >= 10

    def test_two_dim_rejected(self):
        with pytest.raises(AngularProblemError):
            constant_a_spectrum(2, 0.0, 3)

    def test_angular_value_is_harmonic(self):
        eig = constant_a_spectrum(3, 0.0, 4)
        # k=1 is Y_00
        assert eig.angular_value(1, 0.4, 1.0) == pytest.approx(
            1.0 / math.sqrt(4 * math.pi))
