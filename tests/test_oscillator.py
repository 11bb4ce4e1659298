import math

import mpmath
import numpy as np
import pytest

from schroflow import flow, oscillator
from schroflow.angular import AngularProblem, circle_eigensystem, constant_a_spectrum
from schroflow.oscillator import (AccuracyWarning, HardyViolation, ModeIndex,
                                  build_table, gamma_of, make_mode, project)

HARDY = "mu_1 <= -((N-2)/2)^2"
from schroflow.quadrature import RadialQuadrature


class TestBuildTable:
    @pytest.mark.parametrize("a,alpha,beta,cls", [
        (-0.1875, 0.25, 0.25, "loss_of_decay"),
        (0.0, 0.0, 0.5, "classical_candidate"),
        (2.0, -1.0, 1.5, "classical_candidate"),
    ])
    def test_first_row_indices(self, a, alpha, beta, cls):
        table = build_table(constant_a_spectrum(3, a, 1), 1)
        mu1, a1, b1 = table.row(1)
        assert abs(a1 - alpha) <= 1e-12
        assert abs(b1 - beta) <= 1e-12
        assert table.decay_class == cls

    def test_hardy_boundary_invalid(self):
        # mu_1 = -1/4 = -((N-2)/2)^2 at N = 3: no oscillator basis, so no table
        with pytest.raises(HardyViolation) as info:
            build_table(constant_a_spectrum(3, -0.25, 1), 1)
        assert str(info.value) == HARDY

    def test_circle_hardy_violation(self):
        # N = 2: the bound is mu_1 > 0, and a constant a = -0.1 gives mu_1 = -0.1
        eigsys = circle_eigensystem(AngularProblem(scalar_coeff=-0.1), count=3)
        with pytest.raises(HardyViolation) as info:
            build_table(eigsys, 3)
        assert str(info.value) == HARDY

    @pytest.mark.parametrize("N, a", [(3, -1.0), (3, -0.2501), (2, -1e-3), (4, -1.01)])
    def test_below_the_bound_refused(self, N, a):
        # a constant a is mu_1: below -((N-2)/2)^2 no table exists
        eigsys = (circle_eigensystem(AngularProblem(scalar_coeff=a), count=3) if N == 2
                  else constant_a_spectrum(N, a, 3))
        with pytest.raises(HardyViolation) as info:
            build_table(eigsys, 3)
        assert str(info.value) == HARDY

    def test_direct_construction_refused(self):
        eigsys = constant_a_spectrum(3, -0.25, 1)
        with pytest.raises(HardyViolation) as info:
            oscillator.SpectralTable(mu=np.array([-0.25]), eigsys=eigsys)
        assert str(info.value) == HARDY

    def test_alpha_beta_identity(self):
        # alpha_k + beta_k = (N-2)/2 and beta^2 - ((N-2)/2)^2 = mu
        table = build_table(constant_a_spectrum(4, 0.7, 8), 8)
        for k in range(1, 9):
            mu, alpha, beta = table.row(k)
            assert alpha + beta == pytest.approx(1.0, abs=1e-12)
            assert beta ** 2 - 1.0 == pytest.approx(mu, abs=1e-11)

    def test_row_bounds(self):
        table = build_table(constant_a_spectrum(3, 0.0, 4), 4)
        with pytest.raises(IndexError):
            table.row(0)
        with pytest.raises(IndexError):
            table.row(5)


class TestAngularIndices:
    def test_hardy_boundary_invalid(self):
        # spectrum reports a violating problem: beta_k is clamped at 0
        mu = constant_a_spectrum(3, -0.25, 4).eigenvalues
        alpha, beta, decay_class = oscillator.angular_indices(mu, 3)
        assert decay_class == "invalid"
        assert beta[0] == 0.0 and alpha[0] == 0.5
        assert np.allclose(beta[1:], math.sqrt(2.0), rtol=0, atol=1e-15)

    def test_circle_below_the_bound_is_invalid(self):
        alpha, beta, decay_class = oscillator.angular_indices(np.array([-0.1, 0.9]), 2)
        assert decay_class == "invalid"
        assert beta[0] == 0.0 and alpha[0] == 0.0

    def test_mode_coefficient(self):
        # alpha solves alpha^2 - (N-2) alpha = mu on the branch u ~ r^{-alpha}
        # regular at the origin: alpha <= (N-2)/2
        for N, mu, alpha in [(3, -0.1875, 0.25), (3, -0.25, 0.5), (3, 2.0, -1.0),
                             (2, 0.09, -0.3), (4, -1.0, 1.0), (5, 0.0, 0.0)]:
            a, = oscillator.angular_indices(np.array([mu]), N)[0]
            assert a == pytest.approx(alpha, abs=1e-15)
            assert a ** 2 - (N - 2) * a == pytest.approx(mu, abs=1e-14)


class TestLevels:
    def test_gamma_free_ground(self, table_free):
        assert gamma_of(ModeIndex(0, 1), table_free) == pytest.approx(1.5)

    def test_gamma_monotone_in_n(self, table_loss):
        gs = [gamma_of(ModeIndex(n, 1), table_loss) for n in range(4)]
        assert np.allclose(np.diff(gs), 2.0)



class TestNormalizedMode:
    def test_norm_squared_loss_mode(self, table_loss):
        # integral r^{2-2a} e^{-r^2/2} dr = 2^{(1-2a)/2} Gamma((3-2a)/2), a=1/4
        mode = make_mode(ModeIndex(0, 1), table_loss)
        expect = math.sqrt(float(2 ** mpmath.mpf("0.25") * mpmath.gamma("1.25")))
        assert mode.norm == pytest.approx(expect, rel=1e-8)

    def test_norm_squared_free_mode(self, table_free):
        mode = make_mode(ModeIndex(0, 1), table_free)
        assert mode.norm ** 2 == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 20])
    def test_unit_norm_to_roundoff(self, table_loss, n):
        # the loss-of-decay mode's r^{2-2 alpha} = r^{3/2} singularity at
        # r = 0 defeats Gauss-Legendre; the closed-form norm is exact
        mode = make_mode(ModeIndex(n, 1), table_loss)
        with mpmath.workdps(30):
            alpha = mpmath.mpf(mode.alpha)
            b = 1.5 - alpha
            binom = mpmath.binomial(n + b - 1, n)

            def density(r):
                amplitude = r ** (1 - alpha) * mpmath.exp(-r * r / 4) \
                    * mpmath.laguerre(n, b - 1, r * r / 2) / binom
                return amplitude ** 2

            total = mpmath.quad(density, [0, 1, 2, 4, 8, 16, mpmath.inf]) \
                / mpmath.mpf(mode.norm) ** 2
        assert abs(float(total) - 1.0) <= 1e-13

    def test_unit_l2_norm_on_grid(self, table_loss, quad_default):
        mode = make_mode(ModeIndex(2, 3), table_loss)
        r = quad_default.nodes
        val = np.abs(mode.radial(r)) ** 2 * r ** 2
        assert np.sum(quad_default.weights * val) == pytest.approx(1.0, rel=1e-10)

    def test_radial_refuses_zero(self, mode01_loss):
        with pytest.raises(ValueError):
            mode01_loss.radial(0.0)


def _mode_state(mode, quad, table):
    """The mode sampled on the quadrature nodes."""
    return flow.SeparatedState(grid=quad.nodes, weights=quad.weights,
                               profiles={mode.index.j: mode.radial(quad.nodes)}, table=table)


class TestProjection:
    def test_self_projection_is_one(self, table_loss, quad_default):
        mode = make_mode(ModeIndex(1, 2), table_loss)
        state = _mode_state(mode, quad_default, table_loss)
        assert project(state, mode) == pytest.approx(1.0, abs=1e-10)

    def test_cross_projection_vanishes(self, table_loss, quad_default):
        m0 = make_mode(ModeIndex(0, 1), table_loss)
        m1 = make_mode(ModeIndex(1, 1), table_loss)
        state = _mode_state(m0, quad_default, table_loss)
        assert abs(project(state, m1)) < 1e-8

    def test_different_angular_mode_exactly_zero(self, table_loss, quad_default):
        m0 = make_mode(ModeIndex(0, 1), table_loss)
        m2 = make_mode(ModeIndex(0, 2), table_loss)
        state = _mode_state(m0, quad_default, table_loss)
        assert project(state, m2) == 0.0

    def test_coarse_grid_warns(self, table_loss):
        mode = make_mode(ModeIndex(0, 1), table_loss)
        coarse = RadialQuadrature(30.0, 8, 2)
        state = _mode_state(mode, coarse, table_loss)
        with pytest.warns(AccuracyWarning):
            project(state, mode)
