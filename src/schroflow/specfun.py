"""Special functions: Bessel J of real order (a validated wrapper of
scipy.special.jv), the scaled radial Bessel kernel, hypergeometric-type
polynomials, Legendre polynomials and spherical harmonics.

Everything here is a pure function of its arguments; PolySpec is an
immutable (degree, parameter) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp


def bessel_j(nu: float, r) -> np.ndarray | float:
    """Bessel function of the first kind J_nu(r), nu >= 0, r >= 0, by
    scipy.special.jv (AMOS: Amos 1986, ACM TOMS 12:265)."""
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError(f"bessel_j requires finite nu >= 0, got {nu!r}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("bessel_j requires r >= 0")
    out = sp.jv(nu, r_arr)
    return float(out) if r_arr.ndim == 0 else out


def j_scaled(N: int, alpha: float, r, weighted: bool = False):
    """Radial kernel j_{-alpha}(r) = r^{-(N-2)/2} J_{-alpha+(N-2)/2}(r).

    Near r=0 the unweighted value behaves like c r^{-alpha}.  With
    ``weighted=True`` returns r^alpha * j_{-alpha}(r) = r^{-order} J_order(r),
    which extends continuously to r=0 (value 2^{-order}/Gamma(order+1) there).
    """
    if N < 2:
        raise ValueError("j_scaled requires N >= 2")
    order = -alpha + (N - 2) / 2.0
    if order < 0:
        raise ValueError(f"j_scaled requires -alpha+(N-2)/2 >= 0, got {order}")
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    if weighted:
        out = np.full_like(r_arr, 2.0 ** (-order) / math.gamma(order + 1.0))
        pos = r_arr != 0
        if pos.any():
            out[pos] = r_arr[pos] ** (-order) * bessel_j(order, r_arr[pos])
        return float(out[0]) if scalar else out
    if np.any(r_arr <= 0):
        raise ValueError("j_scaled (unweighted) requires r > 0")
    out = r_arr ** (-(N - 2) / 2.0) * bessel_j(order, r_arr)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PolySpec:
    """Degree-n polynomial sum_i (-n)_i / (b)_i * t^i / i!  (b > 0).

    This is the generalized Laguerre polynomial L_n^{b-1}(t) / binom(n+b-1, n),
    evaluated by the three-term Laguerre recurrence of
    scipy.special.eval_genlaguerre; summing the alternating monomial series
    instead loses digits to cancellation at high degree.
    """

    n: int
    b: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("PolySpec requires degree n >= 0")
        if not (self.b > 0):
            raise ValueError(f"PolySpec requires b > 0, got {self.b}")

    def __call__(self, t):
        out = (sp.eval_genlaguerre(self.n, self.b - 1.0, np.asarray(t, dtype=float))
               / sp.binom(self.n + self.b - 1.0, self.n))
        return float(out) if np.ndim(t) == 0 else out


def legendre_p(l: int, x):
    """Legendre polynomial P_l(x) on [-1, 1] by upward recurrence."""
    if l < 0:
        raise ValueError("legendre_p requires l >= 0")
    x_arr = np.asarray(x, dtype=float)
    if np.any(np.abs(x_arr) > 1.0 + 1e-14):
        raise ValueError("legendre_p requires |x| <= 1")
    p0 = np.ones_like(x_arr)
    if l == 0:
        return float(p0) if np.ndim(x) == 0 else p0
    p1 = x_arr.copy()
    for k in range(1, l):
        p0, p1 = p1, ((2 * k + 1) * x_arr * p1 - k * p0) / (k + 1.0)
    return float(p1) if np.ndim(x) == 0 else p1


def sph_harm(l: int, m: int, theta, phi):
    """Orthonormal complex spherical harmonic Y_l^m(theta, phi).

    theta is the colatitude, phi the longitude; Condon-Shortley phase.
    """
    if abs(m) > l:
        raise ValueError(f"sph_harm requires |m| <= l, got l={l}, m={m}")
    theta_arr = np.asarray(theta, dtype=float)
    phi_arr = np.asarray(phi, dtype=float)
    ma = abs(m)
    # lpmv carries the Condon-Shortley (-1)^m already
    norm = math.sqrt(
        (2 * l + 1) / (4 * math.pi) * math.exp(math.lgamma(l - ma + 1) - math.lgamma(l + ma + 1))
    )
    val = norm * sp.lpmv(ma, l, np.cos(theta_arr)) * np.exp(1j * ma * phi_arr)
    if m < 0:
        val = (-1) ** ma * np.conj(val)
    if np.ndim(theta) == 0 and np.ndim(phi) == 0:
        return complex(val)
    return val


def real_sph_harm(l: int, m: int, theta, phi):
    """Real orthonormal spherical harmonic basis (m<0: sine, m>0: cosine)."""
    if abs(m) > l:
        raise ValueError(f"real_sph_harm requires |m| <= l, got l={l}, m={m}")
    if m == 0:
        return np.real(sph_harm(l, 0, theta, phi))
    y = sph_harm(l, abs(m), theta, phi)
    if m > 0:
        return math.sqrt(2.0) * (-1) ** m * np.real(y)
    return math.sqrt(2.0) * (-1) ** m * np.imag(y)
