import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from schroflow import cli
from schroflow.angular import (AngularProblem, AngularProblemError,
                               EigensolveError, assemble_circle,
                               circle_eigensystem, constant_a_spectrum,
                               eigensolve, harmonic_multiplicity)


class TestAharonovBohmCircle:
    def test_constant_flux_spectrum(self):
        # (-i d/dtheta + 0.3)^2 on the circle has eigenvalues (m + 0.3)^2
        prob = AngularProblem(scalar_coeff=0.0,
                              magnetic_coeff={0: 0.3}, truncation=32)
        eig = eigensolve(assemble_circle(prob))
        expected = np.sort([(m + 0.3) ** 2 for m in range(-32, 33)])
        dev = np.abs(eig.eigenvalues - expected)
        # interior modes |m| <= 30 are unaffected by truncation
        assert dev[:61].max() <= 1e-10

    def test_scalar_shift(self):
        base = AngularProblem(scalar_coeff=0.0,
                              magnetic_coeff={0: 0.3}, truncation=16)
        shifted = AngularProblem(scalar_coeff=2.5,
                                 magnetic_coeff={0: 0.3}, truncation=16)
        e0 = eigensolve(assemble_circle(base)).eigenvalues
        e1 = eigensolve(assemble_circle(shifted)).eigenvalues
        assert np.allclose(e1 - e0, 2.5, atol=1e-10)

    def test_no_coefficients_gives_m_squared(self):
        prob = AngularProblem(scalar_coeff=0.0, truncation=8)
        eig = eigensolve(assemble_circle(prob))
        expected = np.sort([m * m for m in range(-8, 9)])
        assert np.allclose(eig.eigenvalues, expected, atol=1e-12)

    def test_gauged_spectrum_is_exact(self):
        # alpha's harmonics +-1 are gauged away: the spectrum is that of the
        # flux 0.3 alone, (m + 0.3)^2 + 0.2, with no truncation error
        eig = cli.build_eigensystem({"N": 2, "a": 0.2, "truncation": 16,
                                     "magnetic": {0: 0.3, 1: 0.4 + 0.3j, -1: 0.4 - 0.3j}}, 24)
        expected = np.sort([(m + 0.3) ** 2 + 0.2 for m in range(-16, 17)])[:24]
        assert np.max(np.abs(eig.eigenvalues - expected)) <= 1e-12

    def test_complex_coefficient_rejected(self):
        with pytest.raises(AngularProblemError):
            AngularProblem(scalar_coeff={1: 1.0}, truncation=8)

    def test_eigenfunction_satisfies_operator(self):
        # for alpha(theta)=0.3 the k-th eigenfunction is a pure Fourier mode
        prob = AngularProblem(scalar_coeff=0.0,
                              magnetic_coeff={0: 0.3}, truncation=16)
        eig = eigensolve(assemble_circle(prob))
        theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        psi1 = eig.angular_value(1, theta)
        # mu_1 = 0.09 belongs to m=0: the ground state is constant
        assert np.allclose(psi1, psi1[0], atol=1e-10)
        assert abs(abs(psi1[0]) - 1.0 / math.sqrt(2 * math.pi)) < 1e-10
        # a non-constant alpha, harmonics +-1 and +-3 beside the flux: the
        # operator applied by FFT on 256 angles to the gauged eigenfunctions
        al_hat = {0: 0.3, 1: 0.2 + 0.1j, -1: 0.2 - 0.1j, 3: 0.15j, -3: -0.15j}
        eig = circle_eigensystem(AngularProblem(scalar_coeff=0.2, magnetic_coeff=al_hat,
                                                truncation=16), count=8)
        theta = 2 * math.pi * np.arange(256) / 256
        alpha = sum(c * np.exp(1j * q * theta) for q, c in al_hat.items()).real
        wavenumber = np.fft.fftfreq(256, 1.0 / 256)

        def covariant(f):
            # (-i d/dtheta + alpha) f
            return np.fft.ifft(wavenumber * np.fft.fft(f, axis=-1), axis=-1) + alpha * f

        psi = eig.angular_value(np.arange(1, 9), theta)
        residual = covariant(covariant(psi)) + 0.2 * psi - eig.eigenvalues[:, None] * psi
        assert np.max(np.abs(residual)) <= 1e-9


def _loop_circle_matrix(problem):
    """The Fourier-Galerkin matrix entry by entry, over dict lookups, of the
    flux operator: alpha keeps only alpha_hat_0, the rest is gauged away."""
    K = problem.truncation
    a_hat = (dict(problem.scalar_coeff) if isinstance(problem.scalar_coeff, dict)
             else {0: complex(problem.scalar_coeff)})
    al_hat = {q: c for q, c in (problem.magnetic_coeff or {}).items() if q == 0}
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
        pytest.param({1: 0.25, -1: 0.25}, {2: 0.1, -2: 0.1}, id="no flux, no a_hat_0"),
        pytest.param(-1.5, None, id="constant a"),
        # off-diagonal entries of real part -0.0 at q = 1, m + n < 0
        pytest.param({0: 0.5, 1: complex(-0.0, 0.1), -1: complex(-0.0, -0.1)},
                     {0: -0.3, 1: 0.2j, -1: -0.2j}, id="signed zeros"),
        # alpha_hat_{+-12} lies in the band m - n = -18..18, g_hat_{+-24} past it
        pytest.param(0.2, {0: -0.3, 12: 0.1, -12: 0.1}, id="coefficients past the band"),
    ])
    def test_bitwise_equal_to_loop_assembly(self, scalar, magnetic):
        prob = AngularProblem(scalar_coeff=scalar, magnetic_coeff=magnetic,
                              truncation=9)
        M, ref = assemble_circle(prob), _loop_circle_matrix(prob)
        assert np.array_equal(M, ref)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(M)), np.signbit(part(ref)))


def _near_degenerate():
    """A of M = A + A^T with eigenvalues 0, 0, 0 and 2.0e-10: closer than
    10 EIGENSOLVE_TOL but not split apart by roundoff."""
    A = np.zeros((6, 6))
    A[0, 1], A[5, 0], A[5, 5] = 1e-5, 1.0, 1.0
    return A


class TestEigensolve:
    def test_identity_matrix(self):
        eig = eigensolve(np.eye(5))
        assert np.allclose(eig.eigenvalues, 1.0)
        assert eig.residual_bound <= 1e-14

    def test_basis_follows_the_dimension(self):
        # an eigensolve matrix is a circle Fourier matrix, whatever its dtype
        eig = eigensolve(np.diag([1.0, 2.0, 3.0]))
        assert abs(eig.angular_value(1, 0.3)) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
        assert eig.sup_abs(1) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(12, 12))
        M = A + A.T
        e1 = eigensolve(M)
        e2 = eigensolve(M.copy())
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_degenerate_block_ordering(self):
        # twofold degenerate eigenvalue: vectors come out ordered by the
        # index of their dominant coefficient, pivot positive real
        M = np.diag([2.0, 1.0, 1.0, 5.0])
        eig = eigensolve(M)
        assert np.allclose(eig.eigenvalues, [1.0, 1.0, 2.0, 5.0])
        assert eig.eigenvectors[1, 0] == pytest.approx(1.0)
        assert eig.eigenvectors[2, 1] == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(AngularProblemError):
            eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @staticmethod
    def _assert_first_pairs(M, count):
        full = eigensolve(M)
        kept = eigensolve(M, count=count)
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
        # flux 1/2: the spectrum (m + 1/2)^2 + a is doubly degenerate; counts
        # 1 and 3 cut a pair, whose order comes from sorting the whole pair.
        # The diagonal circle matrix takes the diagonal route; a unitary
        # change of basis takes eigh, with non-trivial degenerate vectors
        prob = AngularProblem(scalar_coeff=0.7, truncation=12, magnetic_coeff={0: 0.5})
        M = assemble_circle(prob)
        rng = np.random.default_rng(5)
        Q = np.linalg.qr(rng.normal(size=M.shape) + 1j * rng.normal(size=M.shape))[0]
        rotated = Q @ M @ Q.conj().T
        for A in (M, 0.5 * (rotated + rotated.conj().T)):
            vals = eigensolve(A).eigenvalues
            assert np.allclose(vals[:4], [0.95, 0.95, 2.95, 2.95], atol=1e-12)
            self._assert_first_pairs(A, count)

    @pytest.mark.parametrize("spoiled, raises", [(1, True), (4, False)])
    def test_count_checks_only_kept_pairs(self, monkeypatch, spoiled, raises):
        # each route's full output is spoiled at pair `spoiled`: eigh's
        # vector, and the diagonal entry that the diagonal route reads as
        # that pair's eigenvalue; only the kept pairs 0..2 are checked
        def spoil(vecs):
            vecs[:, spoiled] += 0.1 * vecs[:, spoiled + 1]
            return vecs

        def spoil_diagonal(M):
            d = diagonal(M).copy()
            d[spoiled] += 0.1
            return d

        eigh, diagonal = np.linalg.eigh, np.diagonal
        monkeypatch.setattr(np.linalg, "eigh", lambda M: (eigh(M)[0], spoil(eigh(M)[1])))
        monkeypatch.setattr(np, "diagonal", spoil_diagonal)
        diag = np.diag(np.arange(1.0, 8.0))
        # a corner coupling takes eigh
        dense = diag.copy()
        dense[0, 6] = dense[6, 0] = 1e-3
        for M in (diag, dense):
            if raises:
                with pytest.raises(EigensolveError):
                    eigensolve(M, count=3)
            else:
                assert eigensolve(M, count=3).residual_bound <= 1e-15

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            eigensolve(np.eye(3), count=0)

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, (6, 6),
                      elements=st.floats(-5, 5, allow_nan=False)))
    @example(_near_degenerate())
    def test_reconstruction_property(self, A):
        M = A + A.T
        eig = eigensolve(M)
        assert np.all(np.diff(eig.eigenvalues) >= -1e-10)
        V = eig.eigenvectors
        assert np.max(np.abs(V.conj().T @ V - np.eye(6))) < 1e-10
        recon = (V * eig.eigenvalues) @ V.conj().T
        assert np.max(np.abs(recon - M)) < 1e-9 * max(1.0, np.max(np.abs(M)))


def _magnetic_200():
    """The truncation-200 magnetic matrix, dimension 401: the flux 0.3
    alone, so diagonal, with the spectrum (m + 0.3)^2 + 0.2."""
    prob = AngularProblem(scalar_coeff=0.2, truncation=200,
                          magnetic_coeff={0: 0.3, 1: 0.1 + 0.2j, -1: 0.1 - 0.2j})
    return assemble_circle(prob)


class TestBandRoute:
    """The route a band matrix takes: its diagonal when the bandwidth is 0,
    np.linalg.eigh otherwise."""

    def test_matches_eigh(self):
        # the diagonal route on the benchmark's magnetic matrix
        M = _magnetic_200()
        eig = eigensolve(M)
        vals, vecs = np.linalg.eigh(M)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(eig.eigenvalues - vals)) <= 1e-12 * scale
        # no two eigenvalues lie closer than 0.4, so every pair is
        # non-degenerate and matches eigh's pair of the same index
        assert np.all(np.diff(eig.eigenvalues) > 0.39)
        overlap = np.abs(np.sum(eig.eigenvectors.conj() * vecs, axis=0))
        assert np.min(overlap) >= 1 - 1e-12

    @pytest.mark.parametrize("tilt", [0.0, 1e-10])
    def test_diagonal_residual_is_the_dense_one(self, tilt):
        # the diagonal route gathers M's kept columns; its residual is the
        # dense max |M @ vecs - vecs vals|, nonzero once the diagonal carries
        # an imaginary part that eigensolve drops from the eigenvalues
        M = _magnetic_200()
        M[np.diag_indices_from(M)] += 1j * tilt * (np.arange(len(M)) % 3)
        eig = eigensolve(M, count=24)
        vals, vecs = eig.eigenvalues, eig.eigenvectors
        dense = float(np.max(np.linalg.norm(M @ vecs - vecs * vals, axis=0)))
        assert eig.residual_bound == dense
        assert (dense > 0) == (tilt > 0)
        # and the pairs are the stably sorted diagonal and its unit vectors
        by_value = np.argsort(np.diagonal(M).real, kind="stable")[:24]
        assert np.array_equal(vals, np.diagonal(M).real[by_value])
        assert vecs.dtype == np.complex128
        assert np.array_equal(vecs, np.eye(len(M), dtype=complex)[:, by_value])

    def test_real_matrix_keeps_real_vectors(self):
        M = np.diag(np.arange(12.0)) + np.diag(np.full(11, 0.4), 1) + np.diag(np.full(11, 0.4), -1)
        eig = eigensolve(M, count=5)
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
        eig = eigensolve(M)
        assert np.array_equal(eig.eigenvalues, vals)
        assert np.array_equal(eig.eigenvectors, vecs)

    @pytest.mark.parametrize("b, diagonal", [(0, True), (4, False), (5, False), (15, False)])
    def test_routing_rule(self, monkeypatch, b, diagonal):
        # eigh for any off-diagonal entry, here at distance b, whatever the count
        calls = []

        def spy(M):
            calls.append(1)
            return eigh(M)

        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", spy)
        M = np.diag(np.arange(16.0) ** 2)
        if b:
            M += np.diag(np.full(16 - b, 0.5), b) + np.diag(np.full(16 - b, 0.5), -b)
        for count in (None, 3):
            calls.clear()
            eigensolve(M, count=count)
            assert calls == ([] if diagonal else [1])


class TestNonFinite:
    def test_non_finite_matrix_rejected(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(EigensolveError):
                eigensolve(np.diag([1.0, bad, 2.0]))

    def test_nan_residual_fails_the_check(self, monkeypatch):
        eigh = np.linalg.eigh

        def nan_vectors(M):
            vals, vecs = eigh(M)
            return vals, np.full_like(vecs, np.nan)

        monkeypatch.setattr(np.linalg, "eigh", nan_vectors)
        rng = np.random.default_rng(2)
        A = rng.normal(size=(6, 6))
        with pytest.raises(EigensolveError):
            eigensolve(A + A.T)


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
        assert tuple(eig.mode_labels[0]) == (0, 0)
        assert tuple(eig.mode_labels[1]) == (1, -1)
        assert len(eig) >= 10

    def test_two_dim_rejected(self):
        with pytest.raises(AngularProblemError):
            constant_a_spectrum(2, 0.0, 3)

    def test_angular_value_is_harmonic(self):
        eig = constant_a_spectrum(3, 0.0, 4)
        # k=1 is Y_00
        assert eig.angular_value(1, 0.4, 1.0) == pytest.approx(
            1.0 / math.sqrt(4 * math.pi))

    # counts that end a degree block and counts that cut one
    @pytest.mark.parametrize("N, count", [(3, 1), (3, 2), (3, 9), (3, 30), (3, 3721),
                                          (4, 5), (4, 7), (4, 100), (5, 6), (5, 21), (5, 50)])
    def test_equals_a_per_degree_loop(self, N, count):
        eig = constant_a_spectrum(N, 0.1, count)
        values, labels = _loop_constant_spectrum(N, 0.1, count)
        assert np.array_equal(eig.eigenvalues, values)
        assert eig.mode_labels.dtype.kind == "i"
        assert [tuple(row) for row in eig.mode_labels.tolist()] == labels


def _loop_constant_spectrum(N, a, count):
    """The constant-a spectrum and its (l, m) labels, mode by mode."""
    values, labels, l = [], [], 0
    while len(values) < count:
        mult = harmonic_multiplicity(l, N)
        values.extend([l * (l + N - 2) + a] * mult)
        if N == 3:
            labels.extend((l, m) for m in range(-l, l + 1))
        else:
            labels.extend((l, i) for i in range(mult))
        l += 1
    return np.array(values), labels


class TestAngularValueArray:
    @pytest.fixture(scope="class", params=["circle", "sphere"])
    def system(self, request):
        if request.param == "circle":
            return (request.getfixturevalue("magnetic_circle"),
                    [(0.0,), (2.9,), (np.linspace(0.0, 6.0, 7),)])
        return (constant_a_spectrum(3, -0.1875, 169),
                [(0.0, 0.0), (math.pi, 0.5), (0.7, 1.3), (np.array([0.3, 2.2]), -0.4)])

    def test_bitwise_equals_stacked_scalar_calls(self, system):
        eig, directions = system
        ks = np.arange(1, len(eig) + 1)
        for angles in directions:
            values = eig.angular_value(ks, *angles)
            ref = np.array([eig.angular_value(int(k), *angles) for k in ks])
            assert values.shape == ks.shape + np.shape(angles[0])
            assert np.array_equal(values, ref)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(values)), np.signbit(part(ref)))

    def test_shape_of_k_leads(self, system):
        eig, directions = system
        ks = np.array([[1, 3], [4, 2]])
        values = eig.angular_value(ks, *directions[-1])
        assert values.shape == (2, 2) + np.shape(directions[-1][0])
        assert np.array_equal(values[1, 0], eig.angular_value(4, *directions[-1]))

    @pytest.mark.parametrize("bad", [0, -1, "past"])
    def test_out_of_range_k_in_array(self, system, bad):
        eig, directions = system
        k = len(eig) + 1 if bad == "past" else bad
        with pytest.raises(IndexError, match=f"k={k} "):
            eig.angular_value(np.array([1, k, 2]), *directions[0])
