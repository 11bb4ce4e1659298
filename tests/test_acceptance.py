"""End-to-end acceptance suite.

One test per headline criterion; each prints a single PASS line with the
measured figure when it succeeds.  Two exponent fits over the early dyadic
window t = 2^0..2^10 are strict xfails: the closed-form weighted norms scale
as (1+t^2)^{-5/8} and (1+t^2)^{-5/4}, whose log-log least-squares slopes over
that window are exactly -1.2125 and -2.425 -- outside the +-0.02 bands around
the asymptotic exponents -1.25 and -2.5.  The companion tests fit the
asymptotic window t = 2^4..2^14, where the same tolerance is met.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from schroflow import flow
from schroflow.angular import (AngularProblem, assemble_circle,
                               constant_a_spectrum, eigensolve)
from schroflow.oscillator import (ModeIndex, build_table,
                                  gamma_of, make_mode, project)
from schroflow.quadrature import RadialQuadrature
from schroflow.flow import compare_routes
from schroflow.radialfd import RadialSchema, evolve_heat, evolve_schrodinger
from schroflow.specfun import PolySpec, bessel_j, j_scaled

from scipy import special as sp


def _loss_mode(n=0, j=1, K=1):
    table = build_table(constant_a_spectrum(3, -0.1875, max(j, K)), max(j, K))
    return make_mode(ModeIndex(n, j), table), table


def test_criterion_1_spectral_indices():
    cases = [(-0.1875, 0.25, 0.25, "loss_of_decay"),
             (0.0, 0.0, 0.5, "classical_candidate"),
             (2.0, -1.0, 1.5, "classical_candidate")]
    worst = 0.0
    for a, alpha, beta, cls in cases:
        table = build_table(constant_a_spectrum(3, a, 1), 1)
        _, a1, b1 = table.row(1)
        worst = max(worst, abs(a1 - alpha), abs(b1 - beta))
        assert abs(a1 - alpha) <= 1e-12 and abs(b1 - beta) <= 1e-12
        assert table.decay_class == cls
    print(f"\nACCEPTANCE 1 PASS: spectral indices exact to {worst:.2e} "
          f"(tol 1e-12), classifications correct")


def test_criterion_2_aharonov_bohm_galerkin():
    prob = AngularProblem(scalar_coeff=0.0, magnetic_coeff={0: 0.3},
                          truncation=32)
    eig = eigensolve(assemble_circle(prob))
    expected = np.sort([(m + 0.3) ** 2 for m in range(-32, 33)])
    dev = float(np.abs(eig.eigenvalues - expected)[:61].max())
    assert dev <= 1e-10
    print(f"\nACCEPTANCE 2 PASS: flux-0.3 circle spectrum matches (m+0.3)^2 "
          f"for |m|<=30 within {dev:.2e} (tol 1e-10)")


def test_criterion_3_free_kernel_identity():
    start = time.perf_counter()
    L_cut = 60
    K = (L_cut + 1) ** 2
    table = build_table(constant_a_spectrum(3, 0.0, K), K)
    spec = flow.KernelSpec(table=table, path="legendre_collapsed")
    rng = np.random.default_rng(2024)
    scale = (2.0 * math.pi) ** 1.5
    worst = 0.0
    for _ in range(400):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        x *= rng.uniform(0.1, math.sqrt(10.0)) / np.linalg.norm(x)
        y *= rng.uniform(0.1, math.sqrt(10.0)) / np.linalg.norm(y)
        rho = float(np.linalg.norm(x) * np.linalg.norm(y))
        val, _ = flow.kernel_eval(spec, x, y, rho)
        worst = max(worst, abs(scale * val - np.exp(-1j * np.dot(x, y))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed <= 60.0
    print(f"\nACCEPTANCE 3 PASS: free-kernel identity sup dev {worst:.2e} "
          f"(tol 1e-6) over 400 samples in {elapsed:.1f}s (limit 60s)")


def test_criterion_4_basis_orthonormality():
    K = 12
    table = build_table(constant_a_spectrum(3, -0.1875, K), K)
    # first 12 oscillator modes ordered by level gamma_{n,j}
    candidates = [ModeIndex(n, j) for n in range(3) for j in range(1, K + 1)]
    candidates.sort(key=lambda idx: (gamma_of(idx, table), idx.j, idx.n))
    modes = [make_mode(idx, table) for idx in candidates[:12]]
    quad = RadialQuadrature()
    r = quad.nodes
    gram = np.zeros((12, 12))
    for i, mi in enumerate(modes):
        for k, mk in enumerate(modes):
            if mi.index.j != mk.index.j:
                continue  # angular orthogonality is exact
            gram[i, k] = np.sum(quad.weights * (mi.radial(r) * mk.radial(r) * r ** 2))
    dev = float(np.max(np.abs(gram - np.eye(12))))
    assert dev <= 1e-8
    print(f"\nACCEPTANCE 4 PASS: 12-mode Gram deviation {dev:.2e} (tol 1e-8) "
          f"with the default radial quadrature")


def test_criterion_5_three_route_agreement():
    start = time.perf_counter()
    mode, table = _loss_mode()
    report = compare_routes(mode, table, 1.0, 30.0, 1500, 0.25, (0.1, 8.0))
    elapsed = time.perf_counter() - start
    assert not report["failures"]
    worst = max(report["l2_rel"].values())
    assert worst <= 1e-3
    assert elapsed <= 120.0
    pairs = ", ".join(f"{k}={v:.2e}" for k, v in sorted(report["l2_rel"].items()))
    print(f"\nACCEPTANCE 5 PASS: route L2 errors on 0.1<=r<=8 ({pairs}; "
          f"tol 1e-3) in {elapsed:.1f}s (limit 120s)")


def _weighted_norm_samples(a, weight, lo_exp, hi_exp):
    mode, table = _loss_mode() if a == -0.1875 else (None, None)
    if mode is None:
        tbl = build_table(constant_a_spectrum(3, a, 1), 1)
        mode = make_mode(ModeIndex(0, 1), tbl)
    r = np.geomspace(1e-6, 2.0, 400)
    pairs = []
    for t in flow.dyadic_times(lo_exp, hi_exp):
        sup = flow.weighted_sup_norm(r, flow.evolve_mode_closed_form(mode, r, t), weight)
        pairs.append((float(t), sup))
    return pairs


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the weighted norm is proportional to (1+t^2)^{-5/8}; its log-log "
           "least-squares slope over t=2^0..2^10 is exactly -1.2125, outside "
           "-1.25 +- 0.02 (the fit window includes pre-asymptotic times)")
def test_criterion_6i_loss_weighted_slope_early_window():
    slope = flow.decay_fit(_weighted_norm_samples(-0.1875, 0.25, 0, 10))["fitted_slope"]
    assert abs(slope + 1.25) <= 0.02
    print(f"\nACCEPTANCE 6(i) PASS: weighted-norm slope {slope:.4f} "
          f"(target -1.25 +- 0.02) over t=2^0..2^10")


def test_criterion_6i_loss_weighted_slope_asymptotic():
    slope = flow.decay_fit(_weighted_norm_samples(-0.1875, 0.25, 4, 14))["fitted_slope"]
    assert abs(slope + 1.25) <= 0.02
    print(f"\nACCEPTANCE 6(i) PASS (asymptotic window): weighted-norm slope "
          f"{slope:.4f} (target -1.25 +- 0.02) over t=2^4..2^14")


def test_criterion_6ii_unbounded_at_origin():
    mode, _ = _loss_mode()
    worst = 0.0
    for t in (1.0, 5.0, 25.0):
        lows = [1e-1, 1e-2, 1e-3, 1e-4]
        sups = []
        for r_lo in lows:
            r = np.geomspace(r_lo, 30.0, 4000)
            sups.append(float(np.max(np.abs(
                flow.evolve_mode_closed_form(mode, r, t)))))
        slope = float(np.polyfit(np.log(lows), np.log(sups), 1)[0])
        worst = max(worst, abs(slope + 0.25))
        assert abs(slope + 0.25) <= 0.01
    print(f"\nACCEPTANCE 6(ii) PASS: sup over r>=r_lo grows like r_lo^-0.25 "
          f"(worst slope dev {worst:.2e}, tol 0.01) at t in {{1, 5, 25}}")


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the weighted norm is proportional to (1+t^2)^{-5/4}; its log-log "
           "least-squares slope over t=2^0..2^10 is exactly -2.425, outside "
           "-2.5 +- 0.02 (the fit window includes pre-asymptotic times)")
def test_criterion_7_improved_decay_slope_early_window():
    slope = flow.decay_fit(_weighted_norm_samples(2.0, -1.0, 0, 10))["fitted_slope"]
    assert abs(slope + 2.5) <= 0.02
    print(f"\nACCEPTANCE 7 PASS: weighted-norm slope {slope:.4f} "
          f"(target -2.5 +- 0.02) over t=2^0..2^10")


def test_criterion_7_improved_decay_slope_asymptotic():
    slope = flow.decay_fit(_weighted_norm_samples(2.0, -1.0, 4, 14))["fitted_slope"]
    assert abs(slope + 2.5) <= 0.02
    print(f"\nACCEPTANCE 7 PASS (asymptotic window): weighted-norm slope "
          f"{slope:.4f} (target -2.5 +- 0.02) over t=2^4..2^14")


def test_criterion_7_tail_kernel_bounded():
    # weighted modulus (|x||y|)^{alpha_2} |K_2| stays finite with no blow-up
    # at either end of the sampled range
    K = 169  # degrees 0..12
    table = build_table(constant_a_spectrum(3, 2.0, K), K)
    alpha2 = table.row(2)[1]
    spec = flow.KernelSpec(table=table, k_start=2, path="legendre_collapsed")
    x, y = (0.3, 0.2), (1.1, 2.0)
    rhos = np.geomspace(1e-3, 20.0, 60)
    vals = np.abs(flow.kernel_eval(spec, x, y, rhos)[0]) * rhos ** alpha2
    assert np.all(np.isfinite(vals))
    small = vals[rhos < 0.1].max()
    mid = vals[(rhos > 0.5) & (rhos < 5.0)].max()
    assert small <= 1.5 * mid
    assert vals[rhos > 10.0].max() <= 1.5 * mid
    print(f"\nACCEPTANCE 7 PASS (tail kernel): weighted modulus bounded "
          f"(max {vals.max():.3e}, small-rho max {small:.3e} <= 1.5x mid "
          f"{mid:.3e})")


def test_criterion_8_pseudoconformal_phase_law():
    mode, table = _loss_mode()
    quad = RadialQuadrature(60.0, 250, 16)
    worst = 0.0
    for t in (0.5, 1.0, 3.0):
        state = flow.SeparatedState(
            grid=quad.nodes, weights=quad.weights,
            profiles={mode.index.j: flow.evolve_mode_closed_form(mode, quad.nodes, t)},
            table=table)
        phi = flow.pseudoconformal(state, t, "forward")
        coeff = project(phi, mode)
        expect = np.exp(-1j * mode.gamma * math.atan(t))
        worst = max(worst, abs(coeff - expect))
        assert abs(coeff - expect) <= 1e-6
    print(f"\nACCEPTANCE 8 PASS: pseudoconformal projection phase matches "
          f"e^(-i gamma arctan t) within {worst:.2e} (tol 1e-6) at "
          f"t in {{0.5, 1, 3}}")


def test_criterion_9_heat_appendix():
    N, a = 3, -0.1875
    table = build_table(constant_a_spectrum(N, a, 3), 3)
    mu1, alpha1, _ = table.row(1)
    residual = flow.heat_residual(N, mu1, alpha1)
    assert residual <= 1e-4

    schema = RadialSchema(N=N, alpha=alpha1, R=30.0, M=6000, dt=1e-3)
    g = schema.grid
    u = evolve_heat(schema, flow.heat_self_similar(N, alpha1, g, 1.0), 1.0)
    ref = flow.heat_self_similar(N, alpha1, g, 2.0)
    rel = float(np.linalg.norm(g * (u - ref)) / np.linalg.norm(g * ref))
    assert rel <= 1e-3

    slopes = {}
    for k in (1, 3):
        alpha_k = table.row(k)[1]
        pairs = [(float(t), float(abs(
            math.sqrt(t) ** alpha_k
            * flow.heat_self_similar(N, alpha_k, math.sqrt(t), t))))
            for t in flow.dyadic_times(0, 10)]
        slope = flow.decay_fit(pairs)["fitted_slope"]
        slopes[k] = slope
        assert abs(slope - (-N / 2.0 + alpha_k)) <= 0.02
    assert abs(slopes[1] + 1.25) <= 0.02
    print(f"\nACCEPTANCE 9 PASS: heat residual {residual:.2e} (tol 1e-4), "
          f"stepper error {rel:.2e} (tol 1e-3), exponents k=1: "
          f"{slopes[1]:.4f}, k=3: {slopes[3]:.4f} (tol 0.02)")


def test_criterion_10_numerics_hygiene():
    # J_nu (absolute) and the radial kernel j_{-alpha} for N=3 (relative)
    # against mpmath, over the orders and radii the routes use
    bessel_dev = 0.0
    for nu in (0.0, 0.25, 0.5, 1.5, 3.7, 7.0, 12.25, 20.5):
        for r in np.geomspace(1e-6, 60.0, 31):
            ref = mpmath.besselj(nu, r)
            ref_j = float(ref / mpmath.sqrt(r))
            bessel_dev = max(bessel_dev, abs(bessel_j(nu, r) - float(ref)),
                             abs(j_scaled(3, 0.5 - nu, r) - ref_j) / abs(ref_j))
    assert bessel_dev <= 1e-12

    # polynomial family vs the Laguerre recurrence
    t = np.linspace(0.0, 12.0, 40)
    poly_dev = 0.0
    for n in range(13):
        for b in (0.75, 1.25, 2.5):
            ref = (math.factorial(n) / sp.poch(b, n)
                   * sp.eval_genlaguerre(n, b - 1.0, t))
            dev = np.abs(PolySpec(n, b)(t) - ref) / np.maximum(np.abs(ref), 1.0)
            poly_dev = max(poly_dev, float(dev.max()))
    assert poly_dev <= 1e-10

    # Pade (2,2) Schrodinger step: norm conservation per step
    schema = RadialSchema(N=3, alpha=0.25, R=30.0, M=2000, dt=1e-3)
    g = schema.grid
    u = (g ** -0.25 * np.exp(-g * g / 4.0)).astype(complex)
    norm_dev = 0.0
    prev = np.linalg.norm(g * u)
    for _ in range(200):
        u = evolve_schrodinger(schema, u, schema.dt)
        n = np.linalg.norm(g * u)
        norm_dev = max(norm_dev, abs(n / prev - 1.0))
        prev = n
    assert norm_dev <= 1e-12

    # convergence order: error reduction per mesh halving in [3.4, 4.6]
    table = build_table(constant_a_spectrum(3, 0.0, 1), 1)
    mode = make_mode(ModeIndex(0, 1), table)
    errs = []
    for M, dt in [(1500, 8e-3), (3000, 4e-3)]:
        s = RadialSchema(N=3, alpha=0.0, R=30.0, M=M, dt=dt)
        gg = s.grid
        uu = evolve_schrodinger(s, mode.radial(gg), 1.0)
        ref = flow.evolve_mode_closed_form(mode, gg, 1.0)
        errs.append(float(np.linalg.norm(gg * (uu - ref)) / np.linalg.norm(gg * ref)))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6
    print(f"\nACCEPTANCE 10 PASS: Bessel vs mpmath {bessel_dev:.2e} (tol 1e-12), "
          f"polynomial vs Laguerre {poly_dev:.2e} (tol 1e-10), Pade norm drift "
          f"{norm_dev:.2e}/step (tol 1e-12), convergence ratio {ratio:.2f} "
          f"(in [3.4, 4.6])")
