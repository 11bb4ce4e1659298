import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from schroflow.specfun import PolySpec, bessel_j, j_scaled, legendre_p


class TestBesselJ:
    @pytest.mark.parametrize("nu,r", [(0.0, 1.0), (1.5, 2.0), (0.3, 5.0),
                                      (4.0, 0.1), (2.5, 11.0)])
    def test_matches_mpmath(self, nu, r):
        ref = float(mpmath.besselj(nu, r))
        assert bessel_j(nu, r) == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_half_order_closed_form(self):
        r = np.linspace(0.1, 20.0, 50)
        ref = np.sqrt(2.0 / (math.pi * r)) * np.sin(r)
        assert np.allclose(bessel_j(0.5, r), ref, rtol=1e-10, atol=1e-12)

    def test_three_term_recurrence(self):
        rng = np.random.default_rng(7)
        nus = rng.uniform(1.0, 6.0, 10)
        rs = rng.uniform(0.5, 25.0, 10)
        for nu in nus:
            for r in rs:
                lhs = bessel_j(nu - 1.0, r) + bessel_j(nu + 1.0, r)
                rhs = (2.0 * nu / r) * bessel_j(nu, r)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(bessel_j(nu, r)))

    def test_zero_argument(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(2.0, 0.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel_j(1.0, -0.5)


class TestJScaled:
    def test_free_three_dim_is_sinc(self):
        # alpha=0, N=3: j_0(r) = sqrt(2/pi) sin(r)/r
        r = np.linspace(0.05, 30.0, 200)
        ref = math.sqrt(2.0 / math.pi) * np.sin(r) / r
        assert np.allclose(j_scaled(3, 0.0, r), ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("N", [2, 3])
    def test_value_at_zero(self, N):
        # c r^{-alpha} near 0: the limit 2^{-order}/Gamma(order+1) for
        # alpha = 0, 0 for alpha < 0, and no value for alpha > 0
        order = (N - 2) / 2.0
        assert j_scaled(N, 0.0, 0.0) == pytest.approx(
            2.0 ** (-order) / math.gamma(order + 1.0), rel=1e-14)
        assert j_scaled(N, -0.3, 0.0) == 0.0
        assert j_scaled(N, 0.0, 1e-8) == pytest.approx(j_scaled(N, 0.0, 0.0), rel=1e-14)
        assert np.array_equal(j_scaled(N, np.array([0.0, -0.5, -1.0]), 0.0),
                              [j_scaled(N, 0.0, 0.0), 0.0, 0.0])
        # for N = 2 an alpha > 0 is refused by its negative order first
        with pytest.raises(ValueError, match="diverges at r=0" if N == 3 else "-alpha"):
            j_scaled(N, 0.25, np.array([1.0, 0.0]))

    def test_singular_growth(self):
        # alpha > 0 gives an r^{-alpha} singularity at the origin
        assert j_scaled(3, 0.25, 1e-4) > j_scaled(3, 0.25, 1e-2) > 0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            j_scaled(3, 2.0, 1.0)  # -alpha + 1/2 < 0


class TestPolySpec:
    def test_degree_zero_is_one(self):
        p = PolySpec(0, 1.5)
        assert p(0.3) == 1.0

    @pytest.mark.parametrize("b", [1e-3, 0.5, 1.0, 1.5, 2.7, 40.0])
    def test_degree_zero_is_bitwise_the_laguerre_call(self, b):
        # the degree-0 polynomial is 1 everywhere but at NaN
        t = np.array([0.0, 1e-300, 0.5, 1e300, np.inf, np.nan])
        ref = sp.eval_genlaguerre(0, b - 1.0, t) / sp.binom(b - 1.0, 0)
        assert PolySpec(0, b)(t).tobytes() == ref.tobytes()
        for t_i, ref_i in zip(t.tolist(), ref.tolist()):
            value = PolySpec(0, b)(t_i)
            assert type(value) is float
            assert np.array(value).tobytes() == np.array(ref_i).tobytes()

    def test_matches_confluent_hypergeometric(self):
        for n in range(0, 9):
            for b in (0.5, 1.25, 2.0, 3.75):
                p = PolySpec(n, b)
                for t in (0.0, 0.3, 1.7, 6.0):
                    ref = float(mpmath.hyp1f1(-n, b, t))
                    assert p(t) == pytest.approx(ref, rel=1e-11, abs=1e-13)

    def test_matches_generalized_laguerre(self):
        # sum_i (-n)_i/(b)_i t^i/i! = n!/(b)_n * L_n^{(b-1)}(t)
        t = np.linspace(0.0, 12.0, 40)
        for n in range(0, 13):
            for b in (0.75, 1.25, 2.5):
                p = PolySpec(n, b)
                scale = math.factorial(n) / sp.poch(b, n)
                ref = scale * sp.eval_genlaguerre(n, b - 1.0, t)
                dev = np.max(np.abs(p(t) - ref) / np.maximum(np.abs(ref), 1.0))
                assert dev <= 1e-10

    @pytest.mark.parametrize("n, b", [(20, 1.25), (20, 0.75), (30, 2.5)])
    def test_high_degree_matches_mpmath(self, n, b):
        # weighted by e^{-x/2}, as the polynomial enters an oscillator mode
        x = np.linspace(0.5, 200.0, 120)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.hyp1f1(-n, b, mpmath.mpf(v))) for v in x])
        w = np.exp(-x / 2.0)
        err = np.max(np.abs(w * (PolySpec(n, b)(x) - ref))) / np.max(np.abs(w * ref))
        assert err <= 1e-13

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PolySpec(-1, 1.0)
        with pytest.raises(ValueError):
            PolySpec(2, 0.0)


class TestLegendre:
    def test_p4_value(self):
        assert legendre_p(4, 0.7) == pytest.approx(-0.4120625, abs=1e-14)

    def test_matches_scipy(self):
        x = np.linspace(-1.0, 1.0, 101)
        for l in range(0, 20):
            assert np.allclose(legendre_p(l, x), sp.eval_legendre(l, x),
                               rtol=1e-12, atol=1e-12)

    @settings(max_examples=50)
    @given(st.integers(0, 30), st.floats(-1.0, 1.0))
    def test_bounded_by_one(self, l, x):
        assert abs(legendre_p(l, x)) <= 1.0 + 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            legendre_p(3, 1.5)
