import math
import re

import numpy as np
import pytest

from schroflow import flow
from schroflow.angular import (AngularProblem, assemble_circle, circle_eigensystem,
                               constant_a_spectrum, eigensolve)
from schroflow.oscillator import AccuracyWarning, ModeIndex, build_table, make_mode, project
from schroflow.quadrature import RadialQuadrature
from schroflow.specfun import j_scaled


class TestClosedForm:
    def test_t_zero_is_the_mode(self, mode01_loss, quad_default):
        r = quad_default.nodes
        u0 = flow.evolve_mode_closed_form(mode01_loss, r, 0.0)
        assert np.allclose(u0, mode01_loss.radial(r), rtol=1e-14)

    def test_unitarity(self, mode01_loss, table_loss):
        t = 2.0
        width = math.sqrt(1.0 + t * t)
        quad = RadialQuadrature(30.0 * width, 250, 16)
        state = flow.SeparatedState(
            grid=quad.nodes, weights=quad.weights,
            profiles={1: flow.evolve_mode_closed_form(mode01_loss, quad.nodes, t)},
            table=table_loss)
        assert state.l2_norm() == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0 ** 14])
    def test_high_mode_vanishes_far_out(self, table_loss, t):
        # at r = 1e20 an n = 20 mode's polynomial overflows where its
        # Gaussian underflows: inf * 0 = NaN unless the amplitude is the
        # guarded NormalizedMode.radial
        mode = make_mode(ModeIndex(20, 1), table_loss)
        assert flow.evolve_mode_closed_form(mode, 1e20, t) == 0.0

    @pytest.mark.parametrize("t", [1e160, -1e160, math.inf])
    def test_overflowing_scale_names_t(self, mode01_loss, t):
        # 1 + t^2 overflows past |t| ~ 1.34e154: r / sqrt(s) was 0 and the
        # radial value raised "requires r > 0", which names no input
        with pytest.raises(ValueError, match=re.escape(f"t = {t!r}")):
            flow.evolve_mode_closed_form(mode01_loss, np.array([1.0, 2.0]), t)

    def test_underflowing_radius_names_r_and_t(self, mode01_loss):
        # at t = 1e100, r = 1e-300 gives r / sqrt(s) = 1e-400, which is 0:
        # the radial value raised "requires r > 0", which names no input
        r = np.array([1e-300, 1e-3, 1.0])
        with pytest.raises(ValueError, match=re.escape("r = 1e-300, t = 1e+100")):
            flow.closed_form_amplitude(mode01_loss, r, 1e100)
        # the same radii at t = 1e10 are all positive after the scale
        assert np.all(flow.closed_form_amplitude(mode01_loss, r, 1e10) > 0)

    def test_free_gaussian_fresnel(self, mode01_free):
        # a=0 ground mode is a Gaussian; its evolution is the Fresnel formula
        r = np.linspace(0.1, 10.0, 200)
        t = 1.3
        u = flow.evolve_mode_closed_form(mode01_free, r, t)
        z = 1.0 + 1j * t
        ref = (z ** (-1.5) * np.exp(-r * r / (4.0 * z))
               / mode01_free.norm)
        assert np.max(np.abs(u - ref)) < 1e-12


class TestClosedFormAmplitude:
    """``closed_form_amplitude`` is the real factor s^{-N/4} V(r/sqrt(s)) of
    the closed form, which ``decay`` samples for its modulus."""

    MODES = [(0, 1), (2, 1), (20, 1), (0, 2)]
    WINDOWS = [(1e-3, 60.0), (1e-3, 1e20)]
    TIMES = flow.dyadic_times(0, 14)

    @pytest.mark.parametrize("n, j", MODES)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_times_phase_is_bitwise_the_closed_form(self, table_loss, n, j, window):
        mode = make_mode(ModeIndex(n, j), table_loss)
        r = np.geomspace(*window, 4000)
        for t in self.TIMES:
            amp = flow.closed_form_amplitude(mode, r, t)
            assert amp.dtype == np.float64
            s = 1.0 + t * t
            r_live = np.where(amp != 0, r, 0.0)
            phase = (np.exp(1j * r_live * r_live * t / (4.0 * s))
                     * np.exp(-1j * mode.gamma * math.atan(t)))
            assert np.array_equal(amp * phase, flow.evolve_mode_closed_form(mode, r, t))

    @pytest.mark.parametrize("n, j", MODES)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_weighted_sup_matches_the_complex_field(self, table_loss, n, j, window):
        # the phase's modulus is 1 to a few ulps, so the sups agree to those
        mode = make_mode(ModeIndex(n, j), table_loss)
        r = np.geomspace(*window, 4000)
        for t in self.TIMES:
            sup = flow.weighted_sup_norm(r, flow.closed_form_amplitude(mode, r, t), mode.alpha)
            ref = flow.weighted_sup_norm(r, flow.evolve_mode_closed_form(mode, r, t), mode.alpha)
            assert sup > 0
            assert abs(sup - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("n, j", MODES)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_array_of_times_is_bitwise_its_scalar_calls(self, table_loss, n, j, window):
        mode = make_mode(ModeIndex(n, j), table_loss)
        r = np.geomspace(*window, 4000)
        rows = flow.closed_form_amplitude(mode, r, self.TIMES)
        assert rows.shape == (len(self.TIMES), len(r))
        for t, row in zip(self.TIMES, rows):
            assert row.tobytes() == flow.closed_form_amplitude(mode, r, t).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("times, named", [
        pytest.param([1.0, 10.0, 1e160, 1e200], "t = 1e+160", id="overflow"),
        pytest.param([1.0, math.inf, 1e100], "t = inf", id="infinite t"),
        pytest.param([1.0, 10.0, 1e10, 1e100], "r = 1e-300, t = 1e+100", id="underflow"),
        pytest.param([1.0, 1e100, 1e200], "r = 1e-300, t = 1e+100",
                     id="underflow then overflow"),
        pytest.param([1.0, 1e200, 1e100], "t = 1e+200", id="overflow then underflow"),
    ])
    def test_array_of_times_fails_where_the_loop_does(self, mode01_loss, times, named):
        # the first failing time in the given order, with the loop's text;
        # the array's 1 + t^2 overflows without a RuntimeWarning
        r = np.array([1.0, 2e-300, 1e-3, 1e-300])
        with pytest.raises(ValueError) as loop:
            for t in times:
                flow.closed_form_amplitude(mode01_loss, r, t)
        assert str(loop.value).endswith(named)
        with pytest.raises(ValueError) as batch:
            flow.closed_form_amplitude(mode01_loss, r, np.array(times))
        assert str(batch.value) == str(loop.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_weight_fails_the_fit(self, mode01_loss):
        # decay's pipeline at weight 400 on [1e-3, 1e10]: r^400 overflows on
        # a nonzero sample, the sup is inf and the fit raises the ValueError
        # that the CLI exits 5 on (tests/test_cli.py, TestNonFiniteNorms)
        r = np.geomspace(1e-3, 1e10, 4000)
        pairs = [(t, flow.weighted_sup_norm(r, flow.closed_form_amplitude(mode01_loss, r, t), 400))
                 for t in flow.dyadic_times(4, 14)]
        assert all(sup == math.inf for _, sup in pairs)
        with pytest.raises(ValueError, match="finite"):
            flow.decay_fit(pairs)


def _closed_state(mode, quad, t, table):
    """The closed form at time t sampled on the quadrature nodes."""
    return flow.SeparatedState(
        grid=quad.nodes, weights=quad.weights,
        profiles={mode.index.j: flow.evolve_mode_closed_form(mode, quad.nodes, t)},
        table=table)


class TestPseudoconformal:
    def test_roundtrip_exact(self, mode01_loss, quad_default, table_loss):
        state = _closed_state(mode01_loss, quad_default, 1.0, table_loss)
        back = flow.pseudoconformal(
            flow.pseudoconformal(state, 1.0, "forward"), 1.0, "backward")
        assert np.array_equal(back.grid, state.grid) or np.allclose(
            back.grid, state.grid, rtol=1e-15)
        assert np.allclose(back.profiles[1], state.profiles[1], rtol=1e-13)

    def test_norm_preserved(self, mode01_loss, quad_default, table_loss):
        state = _closed_state(mode01_loss, quad_default, 2.0, table_loss)
        phi = flow.pseudoconformal(state, 2.0, "forward")
        assert phi.l2_norm() == pytest.approx(state.l2_norm(), rel=1e-13)

    def test_phase_law(self, mode01_loss, table_loss):
        # transformed evolved mode = e^{-i gamma arctan t} x the mode itself
        quad = RadialQuadrature(60.0, 250, 16)
        for t in (0.5, 1.0, 3.0):
            state = _closed_state(mode01_loss, quad, t, table_loss)
            phi = flow.pseudoconformal(state, t, "forward")
            coeff = project(phi, mode01_loss)
            expect = np.exp(-1j * mode01_loss.gamma * math.atan(t))
            assert abs(coeff - expect) < 1e-6

    def test_bad_direction(self, mode01_loss, quad_default, table_loss):
        state = _closed_state(mode01_loss, quad_default, 1.0, table_loss)
        with pytest.raises(ValueError):
            flow.pseudoconformal(state, 1.0, "sideways")


class TestKernel:
    def test_free_identity_spot_checks(self, table_free):
        # (2 pi)^{3/2} K(X, Y) = exp(-i X.Y) for N=3, a=0
        eigsys = constant_a_spectrum(3, 0.0, 1)
        table = build_table(eigsys, len(eigsys.eigenvalues))
        big = build_table(constant_a_spectrum(3, 0.0, 41 ** 2), 41 ** 2)
        spec = flow.KernelSpec(table=big, path="legendre_collapsed")
        rng = np.random.default_rng(11)
        scale = (2.0 * math.pi) ** 1.5
        for _ in range(10):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            x *= rng.uniform(0.2, 3.0) / np.linalg.norm(x)
            y *= rng.uniform(0.2, 3.0) / np.linalg.norm(y)
            val, _ = flow.kernel_eval(spec, x, y, float(np.linalg.norm(x) * np.linalg.norm(y)))
            assert abs(scale * val - np.exp(-1j * np.dot(x, y))) < 1e-10

    def test_mode_sum_matches_collapsed(self):
        table = build_table(constant_a_spectrum(3, -0.1875, 16), 16)
        s1 = flow.KernelSpec(table=table, path="mode_sum")
        s2 = flow.KernelSpec(table=table, path="legendre_collapsed")
        x, y = (0.4, 0.3), (1.2, 2.1)
        rho = np.array([0.5, 2.0, 6.0])
        v1, t1 = flow.kernel_eval(s1, x, y, rho)
        v2, t2 = flow.kernel_eval(s2, x, y, rho)
        assert np.max(np.abs(v1 - v2)) < 1e-10
        # the Cauchy-Schwarz bound of a degree block is (2l+1)/(4 pi) |j|
        assert np.allclose(t1, t2, rtol=1e-12, atol=0.0)

    def test_values_and_tails_have_the_shape_of_rho(self, table_free):
        spec = flow.KernelSpec(table=table_free)
        rho = np.array([[0.0, 0.5, 1.0], [2.0, 4.0, 8.0]])
        values, tail = flow.kernel_eval(spec, (0.4, 0.3), (1.2, 2.1), rho)
        assert values.shape == tail.shape == rho.shape
        values, tail = flow.kernel_eval(spec, (0.4, 0.3), (1.2, 2.1), 2.0)
        assert values.shape == tail.shape == ()

    @pytest.mark.parametrize("path, K", [("mode_sum", 12), ("legendre_collapsed", 169)])
    def test_vector_of_rho_bitwise_equals_each_alone(self, path, K):
        # 4 and 13 blocks of equal alpha; at rho = 0 only alpha = 0 counts
        table = build_table(constant_a_spectrum(3, 0.0, K), K)
        spec = flow.KernelSpec(table=table, path=path)
        x, y = (0.4, 0.3), (1.2, 2.1)
        rho = np.array([0.0, 1e-3, 0.3, 2.0, 6.0, 17.5, 40.0])
        values, tail = flow.kernel_eval(spec, x, y, rho)
        for i, r in enumerate(rho):
            value, bound = flow.kernel_eval(spec, x, y, r)
            assert value.tobytes() == values[i].tobytes()
            assert bound.tobytes() == tail[i].tobytes()

    def test_origin_value_free(self, table_free):
        # only the alpha=0 term survives at rho=0
        spec = flow.KernelSpec(table=table_free)
        val, _ = flow.kernel_eval(spec, (0.1, 0.0), (2.0, 1.0), 0.0)
        expect = math.sqrt(2.0 / math.pi) / (4.0 * math.pi)
        assert val == pytest.approx(expect, rel=1e-12)

    def test_origin_diverges_for_positive_alpha(self, table_loss):
        spec = flow.KernelSpec(table=table_loss)
        with pytest.raises(ValueError):
            flow.kernel_eval(spec, (0.1, 0.0), (2.0, 1.0), np.array([1.0, 0.0]))

    def test_negative_rho_rejected(self, table_free):
        with pytest.raises(ValueError):
            flow.kernel_eval(flow.KernelSpec(table=table_free), (0.1, 0.0), (2.0, 1.0),
                             np.array([1.0, -1e-9]))

    def test_truncation_warning(self, table_free):
        # the tail bound that sets kernel.csv's truncation_warning
        spec = flow.KernelSpec(table=build_table(table_free.eigsys, 4))
        _, tail = flow.kernel_eval(spec, (0.4, 0.3), (1.2, 2.1), 8.0)
        assert tail > flow.TAIL_THRESHOLD

    def test_aharonov_bohm_plane_waves(self, aharonov_bohm_series):
        # N=2 with flux phi and constant a: psi_k are plane waves e^{im theta}
        phi, a, K, x, y = 0.3, 0.2, 9, 0.7, 2.9
        prob = AngularProblem(scalar_coeff=a, magnetic_coeff={0: phi}, truncation=16)
        table = build_table(eigensolve(assemble_circle(prob)), K)
        spec = flow.KernelSpec(table=table)
        rho = np.array([0.3, 2.0, 7.5])
        ref = aharonov_bohm_series(phi, a, K, x, y, rho)
        val, _ = flow.kernel_eval(spec, x, y, rho)
        assert np.all(np.abs(val - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))

    @pytest.mark.parametrize("system", ["circle", "sphere", "sphere tail"])
    def test_mode_blocks_equal_a_per_mode_loop(self, system, magnetic_circle):
        if system == "circle":
            spec = flow.KernelSpec(table=build_table(magnetic_circle, 24))
            x, y, angles = 0.7, 2.9, lambda d: (d,)
        else:
            table = build_table(constant_a_spectrum(3, -0.1875, 169), 169)
            spec = flow.KernelSpec(table=table, k_start=1 if system == "sphere" else 7)
            x, y, angles = (0.4, 0.3), (1.2, 2.1), lambda d: d
        alphas, sums, bound = flow._mode_blocks(spec, x, y)
        eigsys, alpha = spec.table.eigsys, spec.table.alpha
        blocks = {}     # alpha -> [sum psi(x) conj psi(y), sum |psi(x)|^2, sum |psi(y)|^2]
        for k in range(spec.k_start, spec.table.K_max + 1):
            px, py = (complex(eigsys.angular_value(k, *angles(d))) for d in (x, y))
            block = blocks.setdefault(float(alpha[k - 1]), [0j, 0.0, 0.0])
            block[0] += px * py.conjugate()
            block[1] += abs(px) ** 2
            block[2] += abs(py) ** 2
        assert alphas.tolist() == list(blocks)
        np.testing.assert_allclose(sums, [b[0] for b in blocks.values()], rtol=1e-13, atol=1e-15)
        last = list(blocks.values())[-1]
        assert bound == pytest.approx(math.sqrt(last[1] * last[2]), rel=1e-13)

    def test_tail_bound_at_a_nodal_direction(self):
        # psi_9 = Y_2^2 vanishes at the pole, so the last term is zero, but
        # the degree-2 block's Cauchy-Schwarz bound is 1.2e-2 at rho=6
        table = build_table(constant_a_spectrum(3, 0.0, 9), 9)
        _, tail = flow.kernel_eval(flow.KernelSpec(table=table), (0.0, 0.0), (1.1, 0.7), 6.0)
        assert tail == pytest.approx(1.18e-2, abs=5e-5)
        assert tail > flow.TAIL_THRESHOLD

    def test_tail_bound_at_a_legendre_node(self):
        # P_2(1/sqrt 3) = 0; the bound is (2l+1)/(4 pi) |j_{-alpha_2}(rho)|
        table = build_table(constant_a_spectrum(3, 0.0, 9), 9)
        spec = flow.KernelSpec(table=table, path="legendre_collapsed")
        _, tail = flow.kernel_eval(spec, (0.0, 0.0, 1.0), (1.0, 1.0, 1.0), 6.0)
        assert tail == pytest.approx(1.18e-2, abs=5e-5)
        assert tail > flow.TAIL_THRESHOLD

    def test_j_factor_once_per_block(self, table_free, monkeypatch):
        # table_free's 16 modes form the degree blocks 1 + 3 + 5 + 7: one
        # j_scaled call takes all four orders and every rho
        calls = []
        monkeypatch.setattr(flow, "j_scaled", lambda *a, **k: calls.append(a) or j_scaled(*a, **k))
        flow.kernel_eval(flow.KernelSpec(table=table_free), (0.4, 0.3), (1.2, 2.1),
                         np.array([0.5, 2.0, 4.0]))
        assert len(calls) == 1
        assert np.shape(calls[0][1]) == (4,)

    def test_invalid_indices(self, table_free):
        with pytest.raises(ValueError):
            flow.KernelSpec(table=table_free, k_start=0)

    def test_legendre_path_needs_whole_degree_blocks(self, table_free):
        # table_free's eigensystem holds the degrees 0..3, modes 1, 2-4, 5-9
        # and 10-16
        table_12, table_9 = (build_table(table_free.eigsys, K) for K in (12, 9))
        with pytest.raises(ValueError, match="whole degree blocks"):
            flow.KernelSpec(table=table_12, path="legendre_collapsed")
        with pytest.raises(ValueError, match="whole degree blocks"):
            flow.KernelSpec(table=table_9, k_start=3, path="legendre_collapsed")
        flow.KernelSpec(table=table_9, k_start=2, path="legendre_collapsed")

    def test_legendre_path_needs_n_3(self):
        prob = AngularProblem(scalar_coeff=0.1, truncation=16)
        table = build_table(eigensolve(assemble_circle(prob)), 5)
        with pytest.raises(ValueError, match="N=3"):
            flow.KernelSpec(table=table, path="legendre_collapsed")

    @pytest.mark.parametrize("path", ["mode_sum", "legendre_collapsed"])
    def test_zero_direction_rejected(self, path):
        table = build_table(constant_a_spectrum(3, 0.0, 9), 9)
        spec = flow.KernelSpec(table=table, path=path)
        for x, y in (((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))):
            with pytest.raises(ValueError, match="nonzero"):
                flow.kernel_eval(spec, x, y, 1.0)

    # the norm of the first overflows, of the second underflows to 0, and of
    # the third is the root of a subnormal sum of squares: they read the
    # kernel of another direction, "must be nonzero" and 4e-6 off before
    @pytest.mark.parametrize("x", [[4e199, 3e199, 2e199], [4e-199, 3e-199, 2e-199],
                                   [4e-160, 3e-160, 2e-160]])
    @pytest.mark.parametrize("path", ["mode_sum", "legendre_collapsed"])
    def test_far_scaled_direction_is_its_direction(self, path, x):
        table = build_table(constant_a_spectrum(3, 0.0, 4), 4)
        spec = flow.KernelSpec(table=table, path=path)
        rho = np.array([0.5, 2.0])
        ref, _ = flow.kernel_eval(spec, [0.4, 0.3, 0.2], (1.2, 2.1), rho)
        values, _ = flow.kernel_eval(spec, x, (1.2, 2.1), rho)
        assert np.all(np.abs(values - ref) <= 1e-13)

    # near a pole: theta = acos(u_z) snapped [1e-9, 0, 1] onto the pole, and
    # cos(theta) lost Y_l^m's digits within 1e-7 of either pole
    @pytest.mark.parametrize("x", [(1e-8, 0.3), (math.pi - 1e-7, 0.3), [1e-9, 0.0, 1.0],
                                   [1e-7, 2e-7, -1.0]])
    def test_mode_sum_matches_collapsed_near_a_pole(self, x):
        table = build_table(constant_a_spectrum(3, 0.3, 169), 169)
        rho = np.array([0.5, 2.0, 7.5])
        v1, v2 = (flow.kernel_eval(flow.KernelSpec(table=table, path=path), x, (0.4, 1.2), rho)[0]
                  for path in ("mode_sum", "legendre_collapsed"))
        assert np.all(np.abs(v1 - v2) <= 1e-13 * np.abs(v2))

    def test_direction_of_a_plain_vector_is_its_quotient_by_the_norm(self):
        d = np.array([0.4, 0.3, 0.2])
        assert flow._to_unit_vector(d).tobytes() == (d / np.linalg.norm(d)).tobytes()

    def test_circle_direction_is_an_angle(self):
        prob = AngularProblem(scalar_coeff=0.1, truncation=16)
        table = build_table(eigensolve(assemble_circle(prob)), 5)
        spec = flow.KernelSpec(table=table)
        with pytest.raises(ValueError, match="angle"):
            flow.kernel_eval(spec, (1.0, 0.0), 0.3, 1.0)


def _log_state(mode, table):
    """The mode sampled on the representation route's log grid."""
    grid, weights = flow.log_grid()
    return flow.SeparatedState(grid, weights, {mode.index.j: mode.radial(grid)}, table)


def _propagate(mode, table, t, lo, hi):
    """The mode propagated to time t, on the output nodes in [lo, hi]."""
    out = flow.propagate_representation(_log_state(mode, table), t, r_range=(lo, hi))
    return out.grid, out.profiles[mode.index.j]


def _sup_error(u, ref, weight=1.0):
    return np.max(np.abs(u - ref) * weight) / np.max(np.abs(ref) * weight)


class TestRepresentation:
    # the kernel route keeps the output nodes in [1e-3 sqrt(1+t^2), r_max]
    def test_matches_closed_form(self, mode01_loss, table_loss):
        r, u = _propagate(mode01_loss, table_loss, 1.0, 1e-3 * math.sqrt(2.0), 30.0)
        ref = flow.evolve_mode_closed_form(mode01_loss, r, 1.0)
        rel = np.linalg.norm(u - ref) / np.linalg.norm(ref)
        assert rel < 1e-6

    def test_free_gaussian(self, mode01_free, table_free):
        r, u = _propagate(mode01_free, table_free, 0.7, 1e-3 * math.sqrt(1.49), 30.0)
        z = 1.0 + 0.7j
        ref = z ** (-1.5) * np.exp(-r ** 2 / (4.0 * z)) / mode01_free.norm
        rel = np.linalg.norm(u - ref) / np.linalg.norm(ref)
        assert rel < 1e-8

    @pytest.mark.parametrize("a, nu", [(-0.1875, 0.25), (2.0, 1.5)])
    def test_bias_reaches_small_r_at_large_t(self, a, nu):
        # the bias -(nu+1)/2 sets the output's accuracy at r << t; with no
        # bias (q = 0) the sup error here is 8e1 at nu = 1/4 and 3e3 at nu = 3/2
        table = build_table(constant_a_spectrum(3, a, 1), 1)
        mode = make_mode(ModeIndex(0, 1), table)
        assert -mode.alpha + 0.5 == pytest.approx(nu)
        t = 2.0 ** 14
        r, u = _propagate(mode, table, t, 1e-6, 2.0)
        assert _sup_error(u, flow.evolve_mode_closed_form(mode, r, t)) <= 1e-8

    def test_high_mode_is_finite_and_resolved(self, table_loss):
        # an n = 20 mode's radial factor overflows to inf * 0 = NaN from
        # rho ~ 2e8 unless samples past the Gaussian's underflow are 0; the
        # default quadrature of the former dense route accepted t >= 0.87
        mode = make_mode(ModeIndex(20, 1), table_loss)
        assert np.all(np.isfinite(_log_state(mode, table_loss).profiles[1]))
        t = 0.9
        s = math.sqrt(1.0 + t * t)
        r, u = _propagate(mode, table_loss, t, 1e-3 * s, 8.0 * s)
        assert np.all(np.isfinite(u))
        ref = flow.evolve_mode_closed_form(mode, r, t)
        assert _sup_error(u, ref, r ** mode.alpha) <= 1e-8

    def test_modes_share_the_output_grid(self, table_loss):
        # one output grid, with the first mode's offset, serves every mode
        modes = [make_mode(ModeIndex(1, j), table_loss) for j in (1, 2, 5)]
        grid, weights = flow.log_grid()
        state = flow.SeparatedState(grid, weights,
                                    {m.index.j: m.radial(grid) for m in modes}, table_loss)
        t = 3.0
        out = flow.propagate_representation(state, t)
        keep = (out.grid >= 1e-3 * math.sqrt(10.0)) & (out.grid <= 8.0 * math.sqrt(10.0))
        r = out.grid[keep]
        for mode in modes:
            ref = flow.evolve_mode_closed_form(mode, r, t)
            assert _sup_error(out.profiles[mode.index.j][keep], ref, r ** mode.alpha) <= 1e-9

    def test_underresolved_time_rejected(self, mode01_loss, table_loss):
        with pytest.raises(flow.ResolutionError):
            flow.propagate_representation(_log_state(mode01_loss, table_loss), 0.01)

    def test_requires_a_log_grid(self, mode01_loss, table_loss, quad_default):
        state = _closed_state(mode01_loss, quad_default, 0.0, table_loss)
        with pytest.raises(ValueError, match="log-uniform"):
            flow.propagate_representation(state, 1.0)


def _range_state(case):
    """A state on the log grid: the N=3 mode (0,1) at a = -3/16 or (2,3) at
    a = 0.5, the N=2 Aharonov-Bohm mode (1,2) at a = 0.2 with flux 0.3, the
    two N=3 modes (0,1) and (20,2) at a = -3/16, or the mode (0,1) cut to 0
    past rho = 5, where it is still about 1e-3."""
    if case == "aharonov_bohm_12":
        prob = AngularProblem(scalar_coeff=0.2, magnetic_coeff={0: 0.3}, truncation=16)
        table, modes = build_table(circle_eigensystem(prob, count=2), 2), [(1, 2)]
    else:
        a, modes = {"loss_01": (-0.1875, [(0, 1)]), "classical_23": (0.5, [(2, 3)]),
                    "two_modes": (-0.1875, [(0, 1), (20, 2)]),
                    "cut_01": (-0.1875, [(0, 1)])}[case]
        table = build_table(constant_a_spectrum(3, a, 3), 3)
    grid, weights = flow.log_grid()
    cut = grid <= 5.0 if case == "cut_01" else 1.0
    return flow.SeparatedState(grid, weights, {
        j: cut * make_mode(ModeIndex(n, j), table).radial(grid) for n, j in modes}, table)


def _whole_chirp(state, t):
    """propagate_representation's profiles with h = chirp * f formed on the
    whole grid, past the last nonzero node too."""
    from scipy import fft

    N, g = state.N, state.grid
    nus = {j: -state.table.row(j)[1] + (N - 2) / 2.0 for j in state.profiles}
    dln, offset, k = flow._hankel_grid(g, nus[next(iter(nus))])
    r = 2.0 * t * k
    pref = np.exp(1j * r ** 2 / (4.0 * t)) * np.exp(-1j * math.pi * N / 4.0) \
        / (2.0 * t) ** (N / 2.0) * k ** (-N / 2.0)
    chirp = g ** (N / 2.0) * np.exp(1j * g ** 2 / (4.0 * t))
    out = {}
    for j, f in state.profiles.items():
        h = chirp * f
        re, im = fft.fht(np.stack((h.real, h.imag)), dln, nus[j], offset=offset,
                         bias=-(nus[j] + 1.0) / 2.0)
        out[j] = pref * flow._unit_phase(state.table.row(j)[1]) * (re + 1j * im)
    return out


class TestRepresentationRange:
    """``r_range`` evaluates only the output nodes in [lo, hi], and only the
    live prefix of the grid is chirped; neither moves a bit of the output."""

    CASES = ["loss_01", "classical_23", "aharonov_bohm_12", "two_modes", "cut_01"]
    TIMES = [0.7, 1.0, 4.0, 2.0 ** 14]

    @pytest.mark.parametrize("t", TIMES)
    @pytest.mark.parametrize("case", CASES)
    def test_range_is_the_sliced_whole_output(self, case, t):
        state = _range_state(case)
        whole = flow.propagate_representation(state, t)
        s = math.sqrt(1.0 + t * t)
        # the kernel route's range, a range whose ends are nodes, everything
        for lo, hi in [(1e-3 * s, 8.0 * s), (whole.grid[1000], whole.grid[9000]),
                       (0.0, math.inf)]:
            keep = (whole.grid >= lo) & (whole.grid <= hi)
            part = flow.propagate_representation(state, t, r_range=(lo, hi))
            assert part.grid.tobytes() == whole.grid[keep].tobytes()
            assert part.weights.tobytes() == whole.weights[keep].tobytes()
            assert list(part.profiles) == list(whole.profiles)
            for j, u in part.profiles.items():
                assert u.tobytes() == whole.profiles[j][keep].tobytes()

    @pytest.mark.parametrize("t", TIMES)
    @pytest.mark.parametrize("case", CASES)
    def test_live_prefix_is_the_whole_chirp(self, case, t):
        state = _range_state(case)
        live = 1 + max(np.flatnonzero(f)[-1] for f in state.profiles.values())
        assert live < len(state.grid)
        ref = _whole_chirp(state, t)
        out = flow.propagate_representation(state, t)
        for j, u in out.profiles.items():
            assert u.tobytes() == ref[j].tobytes()

    def test_range_without_a_node_rejected(self, mode01_loss, table_loss):
        state = _log_state(mode01_loss, table_loss)
        r = flow.propagate_representation(state, 1.0).grid
        for lo, hi in [(r[100] * (1 + 1e-9), r[101] * (1 - 1e-9)),
                       (2.0 * r[-1], 3.0 * r[-1]), (1.0, 0.5)]:
            with pytest.raises(ValueError, match="holds no node"):
                flow.propagate_representation(state, 1.0, r_range=(lo, hi))

    def test_all_zero_profile(self, table_loss):
        # the phase guard reads the last node, 1e12: a ResolutionError,
        # not an IndexError from the search for the live prefix
        grid, weights = flow.log_grid()
        state = flow.SeparatedState(grid, weights, {1: np.zeros_like(grid)}, table_loss)
        with pytest.raises(flow.ResolutionError):
            flow.propagate_representation(state, 1.0)
        # past the guard's bound in t the live prefix is empty and u is 0
        out = flow.propagate_representation(state, 1e30)
        assert not np.any(out.profiles[1])


class TestHeat:
    def test_residual_small(self, table_loss):
        mu, alpha, _ = table_loss.row(1)
        assert flow.heat_residual(3, mu, alpha) < 1e-4

    def test_array_of_times_is_bitwise_its_scalar_calls(self, table_loss):
        N, alpha = 3, table_loss.row(1)[1]
        r = np.arange(0.5, 5.0025, 0.005)
        ts = np.linspace(1.0, 2.0, 9)
        rows = flow.heat_self_similar(N, alpha, r, ts)
        assert rows.shape == (len(ts), len(r))
        for t, row in zip(ts, rows):
            assert row.tobytes() == flow.heat_self_similar(N, alpha, r, t).tobytes()

    @pytest.mark.parametrize("t", [0.0, -1.0, [1.0, 0.0, 2.0]])
    def test_requires_positive_times(self, t):
        with pytest.raises(ValueError, match="t > 0"):
            flow.heat_self_similar(3, 0.1, np.array([1.0, 2.0]), t)

    # t^{-N/2 + alpha} overflows: an OverflowError that named nothing before
    @pytest.mark.parametrize("t", [1e-300, [1.0, 1e-300, 1e-310]])
    def test_overflowing_scale_names_t(self, t):
        with pytest.raises(ValueError, match=r"t = 1e-300$"):
            flow.heat_self_similar(3, 0.1, np.array([1.0, 2.0]), t)

    @pytest.mark.parametrize("a", [-3.0 / 16.0, -0.1, 0.0, 0.5, 0.9])
    def test_residual_is_bitwise_the_per_time_loop(self, a):
        N, mu = 3, a
        alpha = 0.5 - math.sqrt(0.25 + mu)
        dr, dt = 1.0 / 200.0, 1e-4
        r = np.arange(0.5, 5.0 + dr / 2.0, dr)
        worst = vmax = 0.0
        for t in np.linspace(1.0, 2.0, 9):
            v = flow.heat_self_similar(N, alpha, r, t)
            v_p = flow.heat_self_similar(N, alpha, r + dr, t)
            v_m = flow.heat_self_similar(N, alpha, r - dr, t)
            v_t = (flow.heat_self_similar(N, alpha, r, t + dt)
                   - flow.heat_self_similar(N, alpha, r, t - dt)) / (2.0 * dt)
            v_rr = (v_p - 2.0 * v + v_m) / (dr * dr)
            v_r = (v_p - v_m) / (2.0 * dr)
            resid = v_t - (v_rr + (N - 1) / r * v_r - mu / (r * r) * v)
            worst = max(worst, float(np.max(np.abs(resid))))
            vmax = max(vmax, float(np.max(np.abs(v))))
        assert flow.heat_residual(N, mu, alpha) == worst / vmax

    def test_self_similarity_scaling(self, table_loss):
        # parabolic scaling: v(lam r, lam^2 t) = lam^{-(N - alpha)} v(r, t)
        N, alpha = 3, table_loss.row(1)[1]
        lam = 1.7
        v1 = flow.heat_self_similar(N, alpha, 2.0, 1.3)
        v2 = flow.heat_self_similar(N, alpha, lam * 2.0, lam ** 2 * 1.3)
        assert v1 == pytest.approx(lam ** (N - alpha) * v2, rel=1e-12)

    def test_weighted_time_exponent_exact(self, table_loss):
        N, alpha = 3, table_loss.row(1)[1]
        times = flow.dyadic_times(0, 8)
        ratio = 1.0
        pairs = [(t, abs((ratio * math.sqrt(t)) ** alpha
                         * flow.heat_self_similar(N, alpha, ratio * math.sqrt(t), t)))
                 for t in times]
        report = flow.decay_fit(pairs)
        assert report["fitted_slope"] == pytest.approx(-N / 2.0 + alpha, abs=1e-12)
        assert report["r_squared"] == pytest.approx(1.0, abs=1e-12)


class TestNormsAndFits:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r, u, w, expect", [
        # r |1/r| is 1 on every sample
        pytest.param(np.geomspace(0.1, 10.0, 2000), 1.0 / np.geomspace(0.1, 10.0, 2000),
                     1.0, 1.0, id="r times 1/r"),
        # 1e10^400 overflows where u is 0, and inf * 0 would be NaN
        pytest.param(np.array([1.0, 1e10]), np.array([2.0 + 0j, 0.0]), 400.0, 2.0,
                     id="overflow on a zero sample"),
        pytest.param(np.array([1.0, 1e10]), np.array([2.0, 1e-300j]), 400.0, math.inf,
                     id="overflow on a nonzero sample"),
        # 1e-200^-2 overflows, the product 1.6e-202 * 1e400 does not
        pytest.param(np.array([1e-200, 1.0]), np.array([1.6e-202, 0.5]), -2.0, 1.6e198,
                     id="finite product past the power overflow"),
        pytest.param(np.array([1.0, 1e10]), np.zeros(2), 400.0, 0.0, id="all zero"),
        pytest.param(np.array([1.0, 2.0]), np.array([1.0, math.nan]), 1.0, math.nan,
                     id="NaN sample"),
    ])
    def test_weighted_sup_norm(self, r, u, w, expect):
        out = flow.weighted_sup_norm(r, u, w)
        assert isinstance(out, float)
        assert out == pytest.approx(expect, rel=1e-12, nan_ok=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weighted_sup_norm_of_rows_is_its_row_calls(self, mode01_loss):
        # rows that take the exp(w log r + log|u|) fallback, finite and inf,
        # an all-zero row and a NaN row
        r = np.array([1e-200, 1e-3, 1.0, 1e10])
        u = np.array([[1.6e-202, 0.5, 1.0, 0.0], [1.0, 0.5, 0.0, 3.0], [0.0, 0.0, 0.0, 0.0],
                      [0.0, math.nan, 1.0, 0.0], [0.0, 2.0, 1j, 1e-300]])
        # the closed form's rows at w = 150: r^w overflows past r ~ 112
        r_far = np.geomspace(1e-3, 1e4, 4000)
        u_far = flow.closed_form_amplitude(mode01_loss, r_far, flow.dyadic_times(0, 14))
        for radii, rows, w in ((r, u, -2.0), (r_far, u_far, 150.0)):
            sups = flow.weighted_sup_norm(radii, rows, w)
            assert sups.shape == (len(rows),)
            for row, sup in zip(rows, sups):
                assert sup.tobytes() == np.float64(flow.weighted_sup_norm(radii, row, w)).tobytes()
        assert np.isinf(sups).any() and np.isfinite(sups).any()

    def test_decay_fit_exact_power_law(self):
        times = flow.dyadic_times(0, 10)
        pairs = [(t, t ** -1.5) for t in times]
        report = flow.decay_fit(pairs)
        assert report["fitted_slope"] == pytest.approx(-1.5, abs=1e-13)
        assert report["r_squared"] == pytest.approx(1.0, abs=1e-13)
        # plain data: Python floats that json writes as they are
        assert report["times"] == times.tolist()
        assert all(type(v) is float for v in [*report["times"], *report["norms"],
                                              report["fitted_intercept"]])

    def test_decay_fit_requires_samples(self):
        with pytest.raises(ValueError):
            flow.decay_fit([(1.0, 1.0), (2.0, 0.5)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_decay_fit_rejects_non_finite_norms(self, bad):
        # NaN <= 0 is false: a NaN norm passed the positivity check and
        # gave a NaN slope
        pairs = [(t, t ** -1.5) for t in flow.dyadic_times(0, 10)]
        pairs[5] = (pairs[5][0], bad)
        with pytest.raises(ValueError, match="finite"):
            flow.decay_fit(pairs)

    def test_decay_fit_short_span_warns(self):
        pairs = [(t, t ** -2.0) for t in (1.0, 2.0, 4.0, 8.0)]
        with pytest.warns(AccuracyWarning):
            flow.decay_fit(pairs)

    def test_dyadic_times(self):
        assert np.array_equal(flow.dyadic_times(0, 3), [1.0, 2.0, 4.0, 8.0])


class TestWindowErrors:
    @pytest.mark.parametrize("ref_value", [0.0, np.inf, np.nan])
    def test_reference_norm_zero_or_not_finite_rejected(self, ref_value):
        r = np.linspace(0.5, 5.0, 10)
        with pytest.raises(ArithmeticError):
            flow.window_errors(np.ones(10), np.full(10, ref_value), r, np.ones(10), 3,
                               (1.0, 4.0))


class TestLagrangeInterpolant:
    # compare_routes reads the fd profile between its cells with it; x runs
    # past both ends of the nodes, as the representation grid does
    @pytest.mark.parametrize("nodes, degree", [(40, 3), (4, 3), (3, 2)])
    def test_exact_on_polynomials_of_its_degree(self, nodes, degree):
        x0, h = 0.01, 0.02
        cells = x0 + h * np.arange(nodes)
        poly = np.polynomial.Polynomial(np.arange(1.0, degree + 2) * (1 - 0.5j))
        x = np.linspace(0.0, cells[-1] + h, 97)
        got = flow._lagrange4(x, x0, h, poly(cells))
        assert np.max(np.abs(got - poly(x))) <= 1e-12 * np.max(np.abs(poly(x)))


class TestSeparatedState:
    def test_validation(self, quad_default, table_loss):
        with pytest.raises(ValueError):
            flow.SeparatedState(grid=np.array([1.0, 0.5]),
                                weights=np.array([1.0, 1.0]),
                                profiles={1: np.zeros(2)}, table=table_loss)
        with pytest.raises(ValueError):
            flow.SeparatedState(grid=quad_default.nodes,
                                weights=quad_default.weights, profiles={},
                                table=table_loss)

    def test_dimension_comes_from_the_table(self, mode01_loss, quad_default, table_loss):
        assert _closed_state(mode01_loss, quad_default, 0.0, table_loss).N == table_loss.N

    def test_l2_norm_of_mode_is_one(self, mode01_loss, quad_default, table_loss):
        state = _closed_state(mode01_loss, quad_default, 0.0, table_loss)
        assert state.l2_norm() == pytest.approx(1.0, rel=1e-9)
