"""Independent references for checking CLI artifacts.

Nothing here imports schroflow: spectral indices, oscillator modes, kernel
series and self-similar heat profiles are rebuilt from their closed forms
with scipy.special, so a defect in the package cannot cancel out of a check.
Every ``check_*`` function reads one job's artifacts and returns the job's
relative error against the reference.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import special as sp

# comparison window for radial profiles, as in the CLI's own evolve summary
WINDOW = (0.1, 8.0)


# ---------------------------------------------------------------------------
# spectral data

def mu_sphere(a: float, j: int) -> float:
    """j-th (1-based) eigenvalue l(l+1) + a of -Laplace_{S^2} + a."""
    l = math.isqrt(j - 1)
    return l * (l + 1) + a


def circle_modes(phi: float, a0: float, count: int) -> list[tuple[int, float]]:
    """(m, mu) of the lowest ``count`` modes of the Aharonov-Bohm circle
    operator, mu = (m + phi)^2 + a0 ascending.  Any real magnetic potential
    with mean phi is gauge equivalent to the constant one."""
    pairs = [(m, (m + phi) ** 2 + a0) for m in range(-count - 2, count + 3)]
    return sorted(pairs, key=lambda p: p[1])[:count]


def mu_circle(phi: float, a0: float, count: int) -> np.ndarray:
    return np.array([mu for _, mu in circle_modes(phi, a0, count)])


def alpha_of(N: int, mu: float) -> float:
    half = (N - 2) / 2.0
    return half - math.sqrt(half * half + mu)


def problem_alpha(problem: dict, j: int) -> float:
    """Spectral index alpha_j of a constant-coefficient or AB problem."""
    N = problem["N"]
    if N == 3:
        return alpha_of(3, mu_sphere(problem["a"], j))
    phi = problem.get("magnetic", {}).get("0", 0.0)
    return alpha_of(2, float(mu_circle(phi, problem.get("a", 0.0), j)[-1]))


# ---------------------------------------------------------------------------
# closed forms

def evolved_mode(N: int, alpha: float, n: int, r, t: float) -> np.ndarray:
    """Radial part of the evolved, L^2-normalized oscillator mode V_{n,j}.

    With lam = N/2 - alpha - 1 the radial polynomial is
    L_n^lam(x) / binom(n + lam, n) and the squared norm is
    2^lam n! Gamma(lam+1)^2 / Gamma(n+lam+1).
    """
    r = np.asarray(r, dtype=float)
    lam = N / 2.0 - alpha - 1.0
    s = 1.0 + t * t
    x = r * r / (2.0 * s)
    binom = math.exp(math.lgamma(n + lam + 1) - math.lgamma(n + 1) - math.lgamma(lam + 1))
    poly = sp.eval_genlaguerre(n, lam, x) / binom
    norm = math.sqrt(2.0 ** lam * math.exp(
        math.lgamma(n + 1) + 2 * math.lgamma(lam + 1) - math.lgamma(n + lam + 1)))
    gamma = 2.0 * n - alpha + N / 2.0
    amp = s ** (-N / 4.0 + alpha / 2.0) * r ** (-alpha) * np.exp(-r * r / (4.0 * s)) * poly / norm
    return amp * np.exp(1j * r * r * t / (4.0 * s) - 1j * gamma * math.atan(t))


def heat_profile(N: int, alpha: float, r, t: float) -> np.ndarray:
    """Self-similar heat solution t^{-N/2+alpha} r^{-alpha} e^{-r^2/4t}."""
    r = np.asarray(r, dtype=float)
    return t ** (-N / 2.0 + alpha) * r ** (-alpha) * np.exp(-r * r / (4.0 * t))


def unit_vector(direction) -> np.ndarray:
    theta, phi = direction
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi), math.cos(theta)])


def sphere_kernel(a: float, l_lo: int, l_hi: int, cosg: float, rho) -> np.ndarray:
    """Degree blocks l_lo..l_hi of the N=3 kernel series, summed over m by
    the addition theorem: (2l+1)/(4 pi) P_l(cos g) e^{i pi alpha_l/2}
    rho^{-1/2} J_{1/2-alpha_l}(rho)."""
    rho = np.asarray(rho, dtype=float)
    total = np.zeros(rho.shape, dtype=complex)
    for l in range(l_lo, l_hi + 1):
        alpha = alpha_of(3, l * (l + 1) + a)
        total += ((2 * l + 1) / (4.0 * math.pi) * sp.eval_legendre(l, cosg)
                  * np.exp(0.5j * math.pi * alpha) * sp.jv(0.5 - alpha, rho) / np.sqrt(rho))
    return total


def circle_kernel(phi: float, a0: float, count: int, theta_x: float,
                  theta_y: float, rho) -> np.ndarray:
    """Lowest ``count`` modes of the N=2 Aharonov-Bohm kernel series."""
    rho = np.asarray(rho, dtype=float)
    total = np.zeros(rho.shape, dtype=complex)
    for m, mu in circle_modes(phi, a0, count):
        alpha = alpha_of(2, mu)
        total += (np.exp(0.5j * math.pi * alpha) * sp.jv(-alpha, rho)
                  * np.exp(1j * m * (theta_x - theta_y)) / (2.0 * math.pi))
    return total


# ---------------------------------------------------------------------------
# artifact readers

def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CLI CSV artifact (``#`` provenance lines skipped)."""
    with open(path) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def weighted_l2_error(N: int, r, u, ref) -> float:
    """Relative L^2(r^{N-1} dr) error on WINDOW, by the trapezoid rule on
    the artifact's own r grid."""
    mask = (r >= WINDOW[0]) & (r <= WINDOW[1])
    r, u, ref = r[mask], u[mask], ref[mask]
    w = r ** (N - 1)
    num = np.trapezoid(np.abs(u - ref) ** 2 * w, r)
    den = np.trapezoid(np.abs(ref) ** 2 * w, r)
    return float(math.sqrt(num / den))


# ---------------------------------------------------------------------------
# checks, one per job kind: each returns the relative error

def check_evolve(config: dict, out: Path) -> float:
    problem, exp = config["problem"], config["experiment"]
    n, j = exp["mode"]
    cols = read_csv(out / "profiles.csv")
    r = cols["r"]
    u = cols["re_u"] + 1j * cols["im_u"]
    ref = evolved_mode(problem["N"], problem_alpha(problem, j), n, r, exp["t"])
    return weighted_l2_error(problem["N"], r, u, ref)


def check_heat(config: dict, out: Path) -> float:
    """FD profile at t1 against the self-similar solution; the fitted time
    exponent must also match -N/2 + alpha_k."""
    problem, exp = config["problem"], config["experiment"]
    N = problem["N"]
    alpha = problem_alpha(problem, exp["k"])
    cols = read_csv(out / "heat.csv")
    ref = heat_profile(N, alpha, cols["r"], exp.get("t1", 2.0))
    err = weighted_l2_error(N, cols["r"], cols["v_fd"], ref)
    report = json.loads((out / "residual.json").read_text())
    slope_ref = -N / 2.0 + alpha
    return max(err, abs(report["fitted_exponent"] - slope_ref) / abs(slope_ref))


def check_decay(config: dict, out: Path) -> float:
    problem, exp = config["problem"], config["experiment"]
    slope_ref = -problem["N"] / 2.0 + problem_alpha(problem, exp["mode"][1])
    report = json.loads((out / "decay.json").read_text())
    return abs(report["decay"]["fitted_slope"] - slope_ref) / abs(slope_ref)


def check_kernel(config: dict, out: Path) -> float:
    """Free kernel against (2 pi)^{3/2} K = e^{-i rho cos g}; other N=3
    sweeps against the independently summed Legendre series at the same
    truncation; N=2 sweeps against the Aharonov-Bohm mode sum."""
    problem, exp = config["problem"], config["experiment"]
    cols = read_csv(out / "kernel.csv")
    rho = cols["rho"]
    K = cols["re_K"] + 1j * cols["im_K"]
    if problem["N"] == 2:
        ref = circle_kernel(problem["magnetic"]["0"], problem.get("a", 0.0), exp["K"],
                            exp["x_dir"], exp["y_dir"], rho)
    else:
        cosg = float(np.clip(unit_vector(exp["x_dir"]) @ unit_vector(exp["y_dir"]), -1, 1))
        k_start = exp.get("k_start", 1)
        if problem["a"] == 0.0 and k_start == 1:
            ref = np.exp(-1j * rho * cosg) / (2.0 * math.pi) ** 1.5
        else:
            ref = sphere_kernel(problem["a"], math.isqrt(k_start - 1),
                                math.isqrt(exp["K"]) - 1, cosg, rho)
    return float(np.max(np.abs(K - ref)) / np.max(np.abs(ref)))


def check_spectrum(config: dict, out: Path) -> float:
    problem, exp = config["problem"], config["experiment"]
    mu = read_csv(out / "spectrum.csv")["mu"]
    ref = mu_circle(problem["magnetic"]["0"], problem.get("a", 0.0), exp["K"])
    return float(np.max(np.abs(mu - ref) / np.abs(ref)))


CHECKS = {
    "evolve": check_evolve,
    "heat": check_heat,
    "decay": check_decay,
    "kernel": check_kernel,
    "spectrum": check_spectrum,
}
