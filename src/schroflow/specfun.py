"""Special functions: Bessel J of real order (a validated wrapper of
scipy.special.jv), the scaled radial Bessel kernel, hypergeometric-type
polynomials and Legendre polynomials.

Everything here is a pure function of its arguments; PolySpec is an
immutable (degree, parameter) pair.  The Bessel functions broadcast arrays
of orders against r; ``legendre_p`` gives many degrees from one recurrence.
The N = 3 angular functions, the spherical harmonics, are
``scipy.special.sph_harm_y`` (``AngularEigensystem.angular_value``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as sp


def bessel_j(nu, r) -> np.ndarray | float:
    """Bessel function of the first kind J_nu(r), nu >= 0, r >= 0, by
    scipy.special.jv (AMOS: Amos 1986, ACM TOMS 12:265); an array of orders
    broadcasts against r."""
    nu_arr = np.asarray(nu, dtype=float)
    if not np.all(np.isfinite(nu_arr) & (nu_arr >= 0)):
        raise ValueError(f"bessel_j requires finite nu >= 0, got {nu!r}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("bessel_j requires r >= 0")
    out = sp.jv(nu_arr, r_arr)
    return float(out) if out.ndim == 0 else out


def j_scaled(N: int, alpha, r):
    """Radial kernel j_{-alpha}(r) = r^{-(N-2)/2} J_{-alpha+(N-2)/2}(r); an
    array of alpha broadcasts against r.

    Near r=0 the value behaves like c r^{-alpha}: at r=0 it is
    2^{-order}/Gamma(order+1) for alpha = 0 and 0 for alpha < 0, and alpha > 0
    raises ValueError.
    """
    if N < 2:
        raise ValueError("j_scaled requires N >= 2")
    alpha, r_arr = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                       np.asarray(r, dtype=float))
    order = -alpha + (N - 2) / 2.0
    if np.any(order < 0):
        raise ValueError(f"j_scaled requires -alpha+(N-2)/2 >= 0, got {np.min(order)}")
    if np.any(r_arr < 0):
        raise ValueError("j_scaled requires r >= 0")
    zero = r_arr == 0
    if np.any(zero & (alpha > 0)):
        raise ValueError("j_scaled diverges at r=0 for alpha > 0")
    out = np.empty(r_arr.shape)
    pos = ~zero
    out[pos] = r_arr[pos] ** (-(N - 2) / 2.0) * bessel_j(order[pos], r_arr[pos])
    out[zero] = np.where(alpha[zero] == 0,
                         2.0 ** (-order[zero]) / sp.gamma(order[zero] + 1.0), 0.0)
    return float(out) if out.ndim == 0 else out


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
        t_arr = np.asarray(t, dtype=float)
        if self.n == 0:
            # the recurrence's bits at degree 0: 1, and NaN at NaN
            out = np.where(np.isnan(t_arr), np.nan, 1.0)
        else:
            out = (sp.eval_genlaguerre(self.n, self.b - 1.0, t_arr)
                   / sp.binom(self.n + self.b - 1.0, self.n))
        return float(out) if np.ndim(t) == 0 else out


def legendre_p(l, x):
    """Legendre polynomials P_l(x) on [-1, 1] by one upward recurrence to the
    highest degree; an array of degrees gives an array of shape l.shape +
    x.shape."""
    l_arr = np.asarray(l)
    if l_arr.dtype.kind not in "iu" or np.any(l_arr < 0):
        raise ValueError(f"legendre_p requires integer degrees l >= 0, got {l!r}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(np.abs(x_arr) > 1.0 + 1e-14):
        raise ValueError("legendre_p requires |x| <= 1")
    top = int(np.max(l_arr))
    p = np.empty((max(top, 1) + 1,) + x_arr.shape)
    p[0], p[1] = 1.0, x_arr
    for k in range(1, top):
        p[k + 1] = ((2 * k + 1) * x_arr * p[k] - k * p[k - 1]) / (k + 1.0)
    out = p[l_arr]
    return float(out) if out.ndim == 0 else out
