import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded, solveh_banded

from schroflow import flow
from schroflow.angular import AngularProblem, assemble_circle, constant_a_spectrum, eigensolve
from schroflow.oscillator import ModeIndex, angular_indices, build_table, make_mode
from schroflow.flow import compare_routes
from schroflow.radialfd import (RadialSchema, evolve_heat, evolve_schrodinger,
                                step_count)


def _schema(alpha=0.0, M=600, dt=1e-2, R=30.0):
    return RadialSchema(N=3, alpha=alpha, R=R, M=M, dt=dt)


def _alpha(mu, N=3):
    """The table's alpha_k of the angular eigenvalue mu in dimension N."""
    return float(angular_indices(np.array([mu]), N)[0][0])


class TestSchema:
    def test_grid_cell_centered(self):
        s = _schema(M=10, R=5.0)
        assert s.h == 0.5
        assert np.allclose(s.grid, 0.25 + 0.5 * np.arange(10))

    def test_operator_symmetric(self):
        s = _schema(alpha=0.25, M=50)
        b = s.operator_bands()
        assert np.allclose(b[0, 1:], b[2, :-1])

    def test_operator_ground_state(self):
        # A r^{p/2}, p = N - 1 - 2 alpha, is the ground state v = 1 in
        # w = r^{p/2} v: zero in every row but the Dirichlet one
        for N in (2, 3, 4):
            edge = -((N - 2) / 2.0) ** 2
            for mu in (edge + 0.05 if N == 2 else -0.1875, edge, 0.0, 2.0, 12.0):
                s = RadialSchema(N=N, alpha=_alpha(mu, N), R=30.0, M=400, dt=1e-3)
                ground = s.grid ** ((N - 1 - 2.0 * s.alpha) / 2.0)
                b = s.operator_bands()
                residual = _banded_matvec(b, ground)
                scale = b[1] * ground
                assert np.max(np.abs(residual[:-1]) / scale[:-1]) <= 1e-12, (N, mu)
                assert residual[-1] > 0.5 * scale[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialSchema(N=3, alpha=0.0, R=30.0, M=1, dt=1e-3)
        with pytest.raises(ValueError):
            RadialSchema(N=3, alpha=0.0, R=30.0, M=10, dt=0.0)

    def test_two_cells_rejected(self):
        # LAPACK ?gttrf as scipy wraps it takes no 2 x 2 system
        with pytest.raises(ValueError):
            RadialSchema(N=3, alpha=0.0, R=30.0, M=2, dt=1e-3)
        RadialSchema(N=3, alpha=0.0, R=30.0, M=3, dt=1e-3)


class TestSchrodingerStepper:
    def test_norm_conserved_per_step(self):
        s = _schema(alpha=0.25, M=2000, dt=1e-3)
        r = s.grid
        u = (np.exp(-r * r / 4.0) * r ** -0.25).astype(complex)
        n_prev = np.linalg.norm(r * u)
        for _ in range(50):
            u = evolve_schrodinger(s, u, s.dt)
            n = np.linalg.norm(r * u)
            assert abs(n / n_prev - 1.0) <= 1e-12
            n_prev = n

    def test_shape_mismatch(self):
        s = _schema(M=100)
        with pytest.raises(ValueError):
            evolve_schrodinger(s, np.zeros(99, dtype=complex), s.dt)

    def test_convergence_order(self, mode01_free, mode01_loss):
        # mode (0,1) free and at a = -3/16 (alpha = 1/4): second order on both
        for alpha, mode in [(0.0, mode01_free), (0.25, mode01_loss)]:
            errs = []
            for M, dt in [(1500, 8e-3), (3000, 4e-3)]:
                s = _schema(alpha=alpha, M=M, dt=dt)
                g = s.grid
                u = evolve_schrodinger(s, mode.radial(g), 1.0)
                ref = flow.evolve_mode_closed_form(mode, g, 1.0)
                errs.append(np.linalg.norm(g * (u - ref)) / np.linalg.norm(g * ref))
            assert 3.4 <= errs[0] / errs[1] <= 4.6, alpha

    @pytest.mark.parametrize("mu", [-0.1875, 2.0])
    def test_fourth_order_in_time(self, mu):
        # against the exact discrete propagator: the datum sums the 20 lowest
        # eigenvectors V of A, so w(T) = V e^{-i lambda T} on the same grid and
        # only the time error is left; it falls 16x per halving of dt
        base = _schema(alpha=_alpha(mu), M=400)
        bands = base.operator_bands()
        lam, vecs = eigh_tridiagonal(bands[1], bands[0, 1:], select="i",
                                     select_range=(0, 19))
        r_half = base.grid  # r^{(N-1)/2} for N = 3
        exact = vecs @ np.exp(-1j * lam)
        errs = []
        for dt in (0.1, 0.05, 0.025):
            u = evolve_schrodinger(_schema(alpha=base.alpha, M=400, dt=dt),
                                   (vecs.sum(axis=1) / r_half).astype(complex), 1.0)
            errs.append(np.linalg.norm(r_half * u - exact) / np.linalg.norm(exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert 14.0 <= coarse / fine <= 18.0, errs

    def test_singular_mode_accuracy(self, mode01_loss):
        # moderate resolution: guard the inner discretization quality
        s = _schema(alpha=0.25, M=6000, dt=2e-3)
        g = s.grid
        u = evolve_schrodinger(s, mode01_loss.radial(g), 1.0)
        ref = flow.evolve_mode_closed_form(mode01_loss, g, 1.0)
        mask = (g >= 0.1) & (g <= 8.0)
        rel = np.linalg.norm((g * (u - ref))[mask]) / np.linalg.norm((g * ref)[mask])
        assert rel < 2e-3


def _banded_matvec(bands, w):
    """bands @ w for a tridiagonal matrix in banded (3, M) storage."""
    out = bands[1] * w
    out[:-1] += bands[0, 1:] * w[1:]
    out[1:] += bands[2, :-1] * w[:-1]
    return out


def _pade_shifts(dt):
    """c_k = i dt / x_k over the roots x_k = 3 +- i sqrt(3) of the Pade (2,2)
    denominator 1 - x/2 + x^2/12, x = -i dt A."""
    return [1j * dt / complex(3.0, sign * np.sqrt(3.0)) for sign in (1.0, -1.0)]


def _per_step_march(schema, u0, T, step):
    """The march in w = r^{(N-1)/2} u with a fresh scipy solve per step."""
    r_half = schema.grid ** ((schema.N - 1) / 2.0)
    w = r_half * u0
    for _ in range(round(T / schema.dt)):
        w = step(w)
    return w / r_half


class TestFactorOnce:
    # one mode with alpha > 0 and one with alpha < 0; 200 steps at M=400
    @pytest.mark.parametrize("mu", [-0.1875, 2.0])
    def test_schrodinger_equals_solve_banded_bitwise(self, mu):
        # the Pade (2,2) step as its two Cayley factors 2 (I + c_k A)^{-1} w - w,
        # each solved by LAPACK ?gtsv
        s = _schema(alpha=_alpha(mu), M=400, dt=1e-3)
        u0 = (np.exp(-s.grid ** 2 / 4.0) * s.grid ** -0.25).astype(complex)
        lhs = [s.shifted_bands(c) for c in _pade_shifts(s.dt)]

        def step(w):
            for bands in lhs:
                w = 2 * solve_banded((1, 1), bands, w) - w
            return w

        ref = _per_step_march(s, u0, 0.2, step)
        assert np.array_equal(evolve_schrodinger(s, u0, 0.2), ref)

    @pytest.mark.parametrize("mu", [-0.1875, 2.0])
    def test_schrodinger_matches_the_product_form(self, mu):
        # (I + c_2 A)^{-1} (I - c_2 A) (I + c_1 A)^{-1} (I - c_1 A) w, the
        # Pade (2,2) step as matvecs and solves
        s = _schema(alpha=_alpha(mu), M=400, dt=1e-3)
        u0 = (np.exp(-s.grid ** 2 / 4.0) * s.grid ** -0.25).astype(complex)
        pairs = [(s.shifted_bands(c), s.shifted_bands(-c)) for c in _pade_shifts(s.dt)]

        def step(w):
            for lhs, rhs in pairs:
                w = solve_banded((1, 1), lhs, _banded_matvec(rhs, w))
            return w

        ref = _per_step_march(s, u0, 0.2, step)
        u = evolve_schrodinger(s, u0, 0.2)
        assert np.linalg.norm(s.grid * (u - ref)) <= 1e-12 * np.linalg.norm(s.grid * ref)

    @pytest.mark.parametrize("mu", [-0.1875, 2.0])
    def test_heat_equals_solve_banded_bitwise(self, mu):
        # LDL^T solve of the positive definite I + dt A, by LAPACK ?ptsv
        s = _schema(alpha=_alpha(mu), M=400, dt=1e-3)
        u0 = np.exp(-s.grid ** 2 / 4.0) * s.grid ** -0.25
        upper = s.shifted_bands(s.dt)[:2]
        ref = _per_step_march(s, u0, 0.2, lambda w: solveh_banded(upper, w))
        assert np.array_equal(evolve_heat(s, u0, 0.2), ref)

    def test_heat_at_the_hardy_edge_marches(self):
        # alpha <= 1/2 (mu >= -1/4), the bound itself included: I + dt A is
        # positive definite, an M-matrix
        for alpha in (0.49, 0.5):
            s = RadialSchema(N=3, alpha=alpha, R=30.0, M=6000, dt=1e-3)
            u = evolve_heat(s, np.exp(-s.grid ** 2 / 4.0) * s.grid ** -0.5, 0.01)
            assert np.all(u > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_profile_rejected(self, bad):
        s = _schema(M=50, dt=1e-3)
        u0 = np.exp(-s.grid ** 2)
        u0[7] = bad
        # r^{(N-1)/2} (inf + 0j) is NaN in its imaginary part
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            evolve_schrodinger(s, u0.astype(complex), 0.01)
        with pytest.raises(ValueError):
            evolve_heat(s, u0, 0.01)

    def test_non_finite_matrix_rejected(self):
        # a nan alpha, or the -inf of mu = +inf, leaves I + dt A non-finite
        for alpha in (np.nan, -np.inf):
            s = _schema(alpha=alpha, M=50, dt=1e-3)
            with pytest.raises(ValueError, match="finite"):
                evolve_heat(s, np.exp(-s.grid ** 2), 0.01)


class TestDuration:
    @pytest.mark.parametrize("T, dt, steps", [(1.0, 1e-3, 1000), (0.0, 1e-3, 0),
                                              (1.0, 8e-3, 125), (1.0, 1.0 / 3.0, 3)])
    def test_whole_number_of_steps(self, T, dt, steps):
        assert step_count(T, dt) == steps

    @pytest.mark.parametrize("T", [1.0004, 0.0004, -1e-3, float("nan"), float("inf")])
    def test_other_durations_rejected(self, T):
        s = _schema(M=50, dt=1e-3)
        u = np.exp(-s.grid ** 2)
        with pytest.raises(ValueError):
            evolve_schrodinger(s, u.astype(complex), T)
        with pytest.raises(ValueError):
            evolve_heat(s, u, T)


def _heat_error(a, k, M, dt=1e-3, extrapolated=False):
    """Relative L^2(r^2 dr) error on N=3 from t0 = 1 to t1 = 2, r_max 30,
    against the self-similar solution, of one evolve_heat march with step
    dt, or of the march heat runs, 2 v_{dt/2} - v_dt."""
    _, alpha, _ = build_table(constant_a_spectrum(3, a, k), k).row(k)
    coarse, fine = (_schema(alpha=alpha, M=M, dt=step) for step in (dt, dt / 2.0))
    g = coarse.grid
    v0 = flow.heat_self_similar(3, alpha, g, 1.0)
    u = (2.0 * evolve_heat(fine, v0, 1.0) - evolve_heat(coarse, v0, 1.0) if extrapolated
         else evolve_heat(coarse, v0, 1.0))
    ref = flow.heat_self_similar(3, alpha, g, 2.0)
    return np.linalg.norm(g * (u - ref)) / np.linalg.norm(g * ref)


class TestHeatStepper:
    def test_positivity_preserved(self):
        s = _schema(alpha=-1.0, M=500, dt=5e-3)
        r = s.grid
        u = np.exp(-r * r / 4.0)
        for _ in range(20):
            u = evolve_heat(s, u, s.dt)
            assert np.all(r * u > -1e-15)

    def test_norm_nonincreasing(self):
        s = _schema(alpha=_alpha(0.5), M=500, dt=5e-3)
        r = s.grid
        u = np.exp(-r * r / 4.0)
        prev = np.linalg.norm(r * u)
        for _ in range(20):
            u = evolve_heat(s, u, s.dt)
            n = np.linalg.norm(r * u)
            assert n <= prev + 1e-14
            prev = n

    def test_tracks_self_similar_solution(self):
        assert _heat_error(-0.1875, 1, 6000) < 1e-3

    # the stepper alone: one backward Euler march at dt 1e-3, whose time
    # error dominates, so 1500 cells cost little against 6000 (1.998e-4
    # against 1.950e-4 on the loss mode, 4.951e-4 against 4.998e-4 on the
    # classical one)
    @pytest.mark.parametrize("a, k", [
        pytest.param(-0.1875, 1, id="loss a-0.1875 k1"),
        pytest.param(0.5, 2, id="classical a0.5 l1"),
    ])
    def test_1500_cells_within_5_percent_of_6000(self, a, k):
        assert _heat_error(a, k, 1500) <= 1.05 * _heat_error(a, k, 6000)

    # heat's march, 2 v_{dt/2} - v_dt at dt 1e-2, cancels most of the time
    # error, so space error is a real share of what is left: 9.95e-6 against
    # 4.12e-6 (2.42x) on the loss mode, 1.51e-5 against 9.89e-6 (1.53x) on
    # the classical one
    @pytest.mark.parametrize("a, k", [
        pytest.param(-0.1875, 1, id="loss a-0.1875 k1"),
        pytest.param(0.5, 2, id="classical a0.5 l1"),
    ])
    def test_extrapolated_1500_cells_within_2_5x_of_6000(self, a, k):
        assert (_heat_error(a, k, 1500, 1e-2, extrapolated=True)
                <= 2.5 * _heat_error(a, k, 6000, 1e-2, extrapolated=True))


def _compare_free_mode(N, r_max=30.0, fd_points=12000, dt=1e-3):
    """compare_routes on mode (0, 1) of the free problem, T = 1, window [0.1, 8]."""
    table = build_table(constant_a_spectrum(N, 0.0, 1), 1)
    return compare_routes(make_mode(ModeIndex(0, 1), table), table, 1.0, r_max,
                          fd_points, dt, (0.1, 8.0))


class TestCompareRoutes:
    def test_free_mode_quick(self):
        report = _compare_free_mode(3, fd_points=3000, dt=2e-3)
        assert not report["failures"]
        assert report["l2_rel"]["closed_vs_representation"] < 1e-6
        assert report["l2_rel"]["closed_vs_fd"] < 1e-3
        assert report["l2_rel"]["representation_vs_fd"] < 1e-3

    def test_l2_error_weighted_by_r_to_the_n_minus_1(self):
        # N=4: the window error is the relative error in L^2(r^3 dr)
        report = _compare_free_mode(4, r_max=10.0, fd_points=1000, dt=1e-2)
        table = build_table(constant_a_spectrum(4, 0.0, 1), 1)
        mode = make_mode(ModeIndex(0, 1), table)
        g, w, u = flow.evolve_route("fd", mode, table, 1.0, 10.0, 1000, 1e-2)
        ref = flow.evolve_mode_closed_form(mode, g, 1.0)
        m = (g >= 0.1) & (g <= 8.0)
        err = np.sqrt(np.sum(w[m] * np.abs(u[m] - ref[m]) ** 2 * g[m] ** 3)
                      / np.sum(w[m] * np.abs(ref[m]) ** 2 * g[m] ** 3))
        assert report["l2_rel"]["closed_vs_fd"] == pytest.approx(err, rel=1e-10)

    def test_report_serializable(self):
        report = _compare_free_mode(3, fd_points=2000, dt=4e-3)
        assert report["mode"] == (0, 1)
        assert set(report) == {"mode", "l2_rel", "sup_rel", "failures"}


# the default fd_points of every command
DEFAULT_FD_POINTS = 1500


def _fd_route_error(mode, table, t, fd_points):
    """Relative L^2(r^{N-1} dr) error of the fd route on [0.1, 8], r_max 30,
    dt 1e-2, against the closed form."""
    grid, weights, u = flow.evolve_route("fd", mode, table, t, 30.0, fd_points, 1e-2)
    return flow.window_errors(u, flow.evolve_mode_closed_form(mode, grid, t), grid,
                              weights, mode.N, (0.1, 8.0))[0]


def _magnetic_table(a, flux, K):
    prob = AngularProblem(scalar_coeff=a, magnetic_coeff={0: flux}, truncation=16)
    return build_table(eigensolve(assemble_circle(prob), count=K), K)


class TestExtrapolatedFdRoute:
    @pytest.mark.parametrize("table, index, t", [
        pytest.param(build_table(constant_a_spectrum(3, -0.186, 1), 1), ModeIndex(2, 1),
                     1.0, id="N3 a-0.186 mode21 t1"),
        pytest.param(build_table(constant_a_spectrum(3, -0.1875, 1), 1), ModeIndex(2, 1),
                     4.0, id="N3 a-0.1875 mode21 t4"),
        pytest.param(_magnetic_table(0.2, 0.3, 2), ModeIndex(1, 2), 1.0,
                     id="N2 a0.2 flux0.3 mode12 t1"),
    ])
    def test_default_no_worse_than_plain_march_on_12000_cells(self, table, index, t):
        mode = make_mode(index, table)
        plain = RadialSchema(N=mode.N, alpha=mode.alpha, R=30.0, M=12000, dt=1e-2)
        g = plain.grid
        plain_err = flow.window_errors(
            evolve_schrodinger(plain, mode.radial(g), t), flow.evolve_mode_closed_form(mode, g, t),
            g, np.full(len(g), plain.h), mode.N, (0.1, 8.0))[0]
        assert _fd_route_error(mode, table, t, DEFAULT_FD_POINTS) <= plain_err

    def test_error_falls_at_least_8x_per_halving_of_h(self):
        # a plain second-order march falls 4x here, 1.9e-3 -> 4.6e-4
        table = build_table(constant_a_spectrum(3, 0.5, 2), 2)
        mode = make_mode(ModeIndex(1, 2), table)
        coarse, fine = (_fd_route_error(mode, table, 1.0, M) for M in (500, 1000))
        assert fine * 8.0 <= coarse
