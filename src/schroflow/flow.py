"""Propagation routes and decay experiments.

Three mutually cross-validating ways to evolve separated initial data under
the scaling-invariant Schrodinger flow:

* ``evolve_mode_closed_form`` -- exact evolution of a single oscillator
  eigenfunction, its real amplitude times its phase
  (``closed_form_amplitude``);
* ``propagate_representation`` -- the representation formula, mode by mode:
  its radial integral is a Hankel transform, computed by FFTLog (one
  ``scipy.fft.fht`` call per mode on Re h and Im h stacked, O(n log n)) on a
  log-uniform grid;
* finite differences stepped by the order-24 Pade (12,12) scheme of
  :mod:`schroflow.radialfd`, Richardson-extrapolated in space from nested
  grids h and h/3;
``evolve_route`` runs each route on its own grid, ``compare_routes`` checks
them pairwise against the closed form evaluated on each route's grid.  Both
take the mode and the spectral table that the caller built.

A ``SeparatedState`` holds radial profiles sampled on a grid, with the
grid's quadrature weights and the spectral table that gives N and each
alpha_j; ``propagate_representation`` maps one to another.

Also here: the kernel series K / K_k at an array of radii with its tail
bounds (``kernel_eval``), the pseudoconformal transform, the self-similar
heat solution, the weighted modulus r^w |u| of samples and its sup
(``weighted_modulus``, ``weighted_sup_norm``) and power-law decay fits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .oscillator import AccuracyWarning, NormalizedMode, SpectralTable
from .quadrature import RadialQuadrature
from .radialfd import RadialSchema, evolve_schrodinger
from .specfun import j_scaled, legendre_p


# The kernel route's input grid, log-uniform on [LOG_GRID_LO, LOG_GRID_HI]:
# one grid for every t and mode, spanning 20 decades so that the output grid
# r = 2t k reaches r << t (r >= 1e-6 at t = 2^14).  With 16384 points the
# phase guard of propagate_representation accepts an n = 20 mode from
# t = 0.64 on (8192 points: from t = 1.28).
LOG_GRID_LO, LOG_GRID_HI, LOG_GRID_POINTS = 1e-8, 1e12, 16384


class ResolutionError(ValueError):
    """A grid is too coarse to resolve the oscillatory phase."""


class WindowError(ValueError):
    """A sample window holds no grid node."""


@dataclass
class SeparatedState:
    """A function u(x) = sum_j f_j(|x|) psi_j(x/|x|) on a shared radial grid.

    ``grid`` must be strictly increasing and positive; ``weights`` are the
    quadrature weights for integrals dr on the grid, so the L^2 norm and
    projections are weighted dot products.  ``table`` is the spectral table
    of the modes j; the state's dimension N is the table's.
    """

    grid: np.ndarray
    weights: np.ndarray
    profiles: dict[int, np.ndarray]
    table: SpectralTable

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.grid.ndim != 1 or len(self.grid) != len(self.weights):
            raise ValueError("grid and weights must be 1-d arrays of equal length")
        if np.any(self.grid <= 0) or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing and positive")
        if not self.profiles:
            raise ValueError("a separated state needs at least one angular mode")
        self.profiles = {
            j: np.asarray(f, dtype=complex) for j, f in sorted(self.profiles.items())
        }
        for j, f in self.profiles.items():
            if f.shape != self.grid.shape:
                raise ValueError(f"profile for mode j={j} does not match the grid")

    @property
    def N(self) -> int:
        return self.table.N

    def l2_norm(self) -> float:
        total = 0.0
        rpow = self.grid ** (self.N - 1)
        for f in self.profiles.values():
            total += float(np.sum(self.weights * np.abs(f) ** 2 * rpow))
        return math.sqrt(total)


def closed_form_amplitude(mode: NormalizedMode, r, t) -> np.ndarray:
    """Real amplitude s^{-N/4} V(r/sqrt(s)), s = 1+t^2, of the closed form
    at radii r > 0 and times t, of shape t.shape + r.shape; each time's row
    is bitwise its own call's.  The closed form is this times a phase of
    modulus 1, so its absolute value is the closed form's modulus.  Raises
    ValueError at the first time, in order, whose s overflows (|t| above
    about 1.34e154), naming t, or for which some r > 0 has r/sqrt(s)
    underflow to 0, naming t and the least such r."""
    t_arr = np.asarray(t, dtype=float)
    r_arr = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        s = 1.0 + t_arr * t_arr
    per_time = s.shape + (1,) * r_arr.ndim
    x = r_arr / np.sqrt(s).reshape(per_time)
    lost = (x == 0) & (r_arr > 0)
    failed = ~np.isfinite(s) | lost.any(axis=tuple(range(s.ndim, x.ndim)))
    if failed.any():
        at = np.unravel_index(np.flatnonzero(failed)[0], s.shape)
        t_at = float(t_arr[at])
        if not math.isfinite(s[at]):
            raise ValueError(f"the closed form's scale 1 + t^2 is not finite at t = {t_at!r}")
        raise ValueError(f"r / sqrt(1 + t^2) underflows to 0 at r = "
                         f"{float(r_arr[lost[at]].min())!r}, t = {t_at!r}")
    return _scalar_pow(s, -mode.N / 4.0, "1 + t^2").reshape(per_time) * mode.radial(x)


def _scalar_pow(base: np.ndarray, exponent: float, name: str) -> np.ndarray:
    """base ** exponent element by element in Python floats: the bits of a
    scalar call, which numpy's vectorised power does not always give.  The
    first power, in order, that overflows raises ValueError naming its base,
    called ``name``."""
    out = []
    for b in base.ravel().tolist():
        try:
            out.append(b ** exponent)
        except OverflowError:
            raise ValueError(f"{name}^{exponent!r} overflows at {name} = {b!r}") from None
    return np.reshape(out, base.shape)


def evolve_mode_closed_form(mode: NormalizedMode, r, t: float):
    """Exact radial part of the evolved eigenfunction at time t: the
    pseudoconformal image of the mode, with s = 1+t^2,

        s^{-N/4} V(r/sqrt(s)) exp(i r^2 t / (4s)) exp(-i gamma arctan t),

    V = ``mode.radial``; the full solution is this times psi_j(theta).  At
    t=0 this reproduces the mode itself.
    """
    r_arr = np.asarray(r, dtype=float)
    s = 1.0 + t * t
    amp = closed_form_amplitude(mode, r_arr, t)
    # the phase's r^2 only where the amplitude is nonzero: past r ~ 1.3e154
    # it overflows, and 0 * exp(1j * inf) is NaN
    r_live = np.where(amp != 0, r_arr, 0.0)
    phase = (np.exp(1j * r_live * r_live * t / (4.0 * s))
             * np.exp(-1j * mode.gamma * math.atan(t)))
    out = amp * phase
    return complex(out) if np.ndim(r) == 0 else out


def pseudoconformal(state: SeparatedState, t: float, direction: str = "forward") -> SeparatedState:
    """Pseudoconformal change of variables, exact on the grid.

    Forward: phi(x) = (1+t^2)^{N/4} u(sqrt(1+t^2) x) e^{-i t |x|^2 / 4}.
    Instead of resampling onto the original grid (which would extrapolate at
    the outer edge), the grid itself is rescaled by 1/sqrt(1+t^2) together
    with its weights, so forward and backward are exact inverses and the
    quadrature L^2 norm is preserved identically.
    """
    s = 1.0 + t * t
    root = math.sqrt(s)
    if direction == "forward":
        new_grid = state.grid / root
        new_weights = state.weights / root
        factor = s ** (state.N / 4.0) * np.exp(-1j * t * new_grid ** 2 / 4.0)
    elif direction == "backward":
        new_grid = state.grid * root
        new_weights = state.weights * root
        factor = s ** (-state.N / 4.0) * np.exp(1j * t * state.grid ** 2 / 4.0)
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    return SeparatedState(
        grid=new_grid, weights=new_weights,
        profiles={j: factor * f for j, f in state.profiles.items()},
        table=state.table,
    )


# A kernel tail bound above this flags a truncated series (kernel.csv's
# truncation_warning column).
TAIL_THRESHOLD = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """Truncated kernel series K (k_start=1) or the tail kernel K_k, over the
    modes k_start..K_max of the spectral table.

    ``path``: ``mode_sum`` sums eigenfunction products directly;
    ``legendre_collapsed`` (N=3, constant scalar coefficient only, modes
    k_start..K_max in whole degree blocks) collapses each degree block to
    (2l+1)/(4pi) P_l(cos gamma).
    """

    table: SpectralTable
    k_start: int = 1
    path: str = "mode_sum"

    def __post_init__(self):
        if not 1 <= self.k_start <= self.table.K_max:
            raise ValueError(f"need 1 <= k_start <= K_max, got "
                             f"({self.k_start}, {self.table.K_max})")
        if self.path not in ("mode_sum", "legendre_collapsed"):
            raise ValueError(f"unknown kernel path {self.path!r}")
        if self.path == "legendre_collapsed":
            eigsys = self.table.eigsys
            if self.table.N != 3 or eigsys.basis_tag != "analytic_constant":
                raise ValueError("legendre_collapsed kernel path requires N=3 with "
                                 "constant scalar coefficient")
            (l_lo, m_lo), (l_hi, m_hi) = (eigsys.mode_labels[k - 1]
                                          for k in (self.k_start, self.table.K_max))
            if m_lo != -l_lo or m_hi != l_hi:
                raise ValueError("legendre_collapsed requires k_start/K_max aligned "
                                 "with whole degree blocks")


def _unit_phase(alpha):
    # Branch of the per-mode unimodular factor, fixed by the free-kernel
    # identity (2 pi)^{N/2} K(X, Y) = exp(-i X.Y).
    return np.exp(1j * math.pi * np.asarray(alpha) / 2.0)


def kernel_eval(spec: KernelSpec, x_dir, y_dir, rho) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values sum_k phase_k j_{-alpha_k}(rho) psi_k(x) conj(psi_k(y))
    at an array of radii rho >= 0, and their tail bounds; both have rho's
    shape.

    ``x_dir``/``y_dir``: an angle for N=2, or (theta, phi) / a nonzero
    3-vector for N=3.  The modes are summed in blocks of equal alpha_k, each
    block's angular sum times its factor phase j.  The tail bound is the
    Cauchy-Schwarz bound of the last block, |phase j| sqrt(sum |psi_k(x)|^2
    sum |psi_k(y)|^2).  At rho = 0 only alpha_k = 0 contributes, and a mode
    with alpha_k > 0 raises ValueError.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("kernel_eval requires rho >= 0")
    if spec.path == "legendre_collapsed":
        alphas, sums, bound = _legendre_blocks(spec, x_dir, y_dir)
    else:
        alphas, sums, bound = _mode_blocks(spec, x_dir, y_dir)
    # one row of block coefficients per radius, summed along the row, so a
    # radius's value is the same bits whatever other radii come with it
    coef = _unit_phase(alphas) * j_scaled(spec.table.N, alphas, rho[..., None])
    return np.sum(coef * sums, axis=-1), np.abs(coef[..., -1]) * bound


def _mode_blocks(spec: KernelSpec, x_dir, y_dir) -> tuple:
    """(alpha, sum of psi_k(x) conj(psi_k(y))) for each run of equal alpha_k
    in [k_start, K_max], and the angular Cauchy-Schwarz bound of the last
    run."""
    table = spec.table
    eigsys = table.eigsys
    ks = np.arange(spec.k_start, table.K_max + 1)
    alpha = table.alpha[spec.k_start - 1:]
    px, py = (eigsys.angular_value(ks, *_direction_angles(table.N, d)) for d in (x_dir, y_dir))
    starts = np.flatnonzero(np.r_[True, alpha[1:] != alpha[:-1]])
    last = starts[-1]
    bound = math.sqrt(np.sum(np.abs(px[last:]) ** 2) * np.sum(np.abs(py[last:]) ** 2))
    return alpha[starts], np.add.reduceat(px * np.conj(py), starts), bound


def _direction_angles(N: int, direction) -> tuple:
    """``angular_value``'s angles of a kernel direction: (angle,) on the
    circle, (theta, phi) on the sphere."""
    if N == 2:
        if not np.isscalar(direction):
            raise ValueError(f"an N=2 direction is an angle, got {direction!r}")
        return (float(direction),)
    d = np.asarray(direction, dtype=float)
    if d.shape == (2,):            # (theta, phi)
        return float(d[0]), float(d[1])
    u = _to_unit_vector(d)
    # acos(u_z) would put a vector within about 1e-8 of a pole on the pole
    return math.atan2(math.hypot(u[0], u[1]), u[2]), math.atan2(u[1], u[0])


def _legendre_blocks(spec: KernelSpec, x_dir, y_dir) -> tuple:
    """One block per degree l, whose alpha is the table's at the block's
    first mode (index l^2): the addition theorem collapses its modes to
    (2l+1)/(4pi) P_l(cos gamma); the last block's angular bound is
    (2l+1)/(4pi)."""
    eigsys = spec.table.eigsys
    l_lo, l_hi = (eigsys.mode_labels[k - 1][0] for k in (spec.k_start, spec.table.K_max))
    ls = np.arange(l_lo, l_hi + 1)
    weight = (2 * ls + 1) / (4.0 * math.pi)
    return (spec.table.alpha[ls * ls], weight * legendre_p(ls, _cos_angle(x_dir, y_dir)),
            weight[-1])


def _cos_angle(x_dir, y_dir) -> float:
    vx, vy = (_to_unit_vector(d) for d in (x_dir, y_dir))
    return float(np.clip(np.dot(vx, vy), -1.0, 1.0))


def _to_unit_vector(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    if d.shape == (2,):            # (theta, phi)
        theta, phi = d
        return np.array([math.sin(theta) * math.cos(phi),
                         math.sin(theta) * math.sin(phi), math.cos(theta)])
    if d.shape != (3,):
        raise ValueError("sphere direction must be (theta, phi) or a 3-vector")
    scale = np.max(np.abs(d))
    if not scale > 0:
        raise ValueError(f"a direction 3-vector must be nonzero, got {d.tolist()!r}")
    # the sum of squares overflows past about 1e154 and loses digits to
    # underflow below about 1e-154, so a vector whose largest entry is not
    # within (1e-150, 1e150) is scaled by that entry first
    if not 1e-150 < scale < 1e150:
        d = d / scale
    return d / np.linalg.norm(d)


def log_grid() -> tuple[np.ndarray, np.ndarray]:
    """The kernel route's log-uniform grid and its weights r dln for
    integrals dr."""
    grid = np.geomspace(LOG_GRID_LO, LOG_GRID_HI, LOG_GRID_POINTS)
    return grid, grid * (math.log(LOG_GRID_HI / LOG_GRID_LO) / (LOG_GRID_POINTS - 1))


def _hankel_grid(grid: np.ndarray, nu: float) -> tuple[float, float, np.ndarray]:
    """(dln, offset, k) of an FFTLog Hankel transform of order nu on a
    log-uniform grid: the log step, the low-ringing offset for the bias
    -(nu+1)/2, and the output grid, k_i grid_{n-1-i} = e^offset."""
    from scipy import fft

    dln = math.log(grid[-1] / grid[0]) / (len(grid) - 1)
    if not np.allclose(np.diff(np.log(grid)), dln, rtol=1e-6, atol=0.0):
        raise ValueError("the representation route needs a log-uniform grid")
    offset = fft.fhtoffset(dln, nu, bias=-(nu + 1.0) / 2.0)
    return dln, offset, math.exp(offset) / grid[::-1]


def propagate_representation(state: SeparatedState, t: float,
                             r_range=None) -> SeparatedState:
    """Evolve a separated state to time t > 0 through the kernel
    representation formula, reduced per angular mode to the radial integral

        u_j(r) = e^{i r^2/4t} e^{-i pi N/4} (2t)^{-N/2} phase_j
                 * int_0^inf j_{-alpha_j}(r rho / 2t) e^{i rho^2/4t}
                             f_j(rho) rho^{N-1} d rho.

    With k = r/2t and nu = -alpha_j + (N-2)/2 the integral is
    k^{-(N-2)/2} A(k)/k, where A(k) = int_0^inf h(rho) J_nu(k rho) k d rho is
    the Hankel transform of h(rho) = rho^{N/2} e^{i rho^2/4t} f_j(rho).  FFTLog
    (Talman 1978, J. Comput. Phys. 29:35; Hamilton 2000, MNRAS 312:257)
    computes A by one ``scipy.fft.fht`` call on Re h and Im h stacked, so the
    transform's coefficients are computed once per mode.

    The state's grid must be log-uniform (``log_grid``); its spectral table
    gives each mode's alpha_j.  The output grid is r = 2t k, log-uniform with
    the same step and weights r dln; its offset is the low-ringing one of the
    state's first mode, which the other modes share.  h vanishes like
    rho^{nu+1} at rho = 0; the bias q = -(nu+1)/2 keeps the output accurate
    at r << t: on r in [1e-6, 2] at t = 2^14 its sup error is about 1e-9
    where q = 0 gives 8e1.

    Only the live prefix of the grid, up to the last node where some profile
    is nonzero, is chirped: past it h is exactly 0.  ``r_range=(lo, hi)``
    keeps the output nodes with lo <= r <= hi, and only those get the
    prefactor e^{i r^2/4t} k^{-N/2}...; the default None keeps them all.
    Either way each kept value is bitwise the one the whole computation
    gives.  A range that holds no output node raises ValueError.

    Raises ResolutionError when the log step moves the phase rho^2/4t by more
    than 1/8 of a period, rho^2 dln/2t > pi/4, at the last rho where some
    profile is at least 1e-16 of its maximum.
    """
    from scipy import fft

    if t <= 0:
        raise ValueError("propagate_representation requires t > 0")
    table = state.table
    for j in state.profiles:
        if j > table.K_max:
            raise ValueError(f"state mode j={j} exceeds the spectral table (K_max={table.K_max})")
    N, g = state.N, state.grid
    order = {j: -table.row(j)[1] + (N - 2) / 2.0 for j in state.profiles}
    dln, offset, k = _hankel_grid(g, order[next(iter(state.profiles))])
    edge = max(g[np.flatnonzero(np.abs(f) >= 1e-16 * np.max(np.abs(f)))[-1]]
               for f in state.profiles.values())
    step = edge * edge * dln / (2.0 * t)
    if step > math.pi / 4.0:
        raise ResolutionError(
            f"log step {dln:.3g} moves the phase rho^2/4t by {step:.3g} at rho = "
            f"{edge:.3g}, more than 1/8 of a period; refine the grid or raise t"
        )
    r = 2.0 * t * k
    lo, hi = (0.0, math.inf) if r_range is None else r_range
    first, stop = np.searchsorted(r, lo), np.searchsorted(r, hi, side="right")
    if first >= stop:
        raise ValueError(f"r_range [{lo!r}, {hi!r}] holds no node of the output grid on "
                         f"[{r[0]:.6g}, {r[-1]:.6g}]")
    r, k = r[first:stop], k[first:stop]
    pref_common = np.exp(1j * r ** 2 / (4.0 * t)) * np.exp(-1j * math.pi * N / 4.0) \
        / (2.0 * t) ** (N / 2.0) * k ** (-N / 2.0)
    live = 1 + max(int(np.max(np.flatnonzero(f), initial=-1)) for f in state.profiles.values())
    chirp = g[:live] ** (N / 2.0) * np.exp(1j * g[:live] ** 2 / (4.0 * t))
    h = np.zeros((2, len(g)))
    out_profiles = {}
    for j, f in state.profiles.items():
        hj, nu = chirp * f[:live], order[j]
        h[0, :live], h[1, :live] = hj.real, hj.imag
        re, im = fft.fht(h, dln, nu, offset=offset, bias=-(nu + 1.0) / 2.0)[:, first:stop]
        out_profiles[j] = pref_common * _unit_phase(table.row(j)[1]) * (re + 1j * im)
    return SeparatedState(grid=r, weights=r * dln, profiles=out_profiles, table=table)


ROUTES = ("closed", "kernel", "fd")


def evolve_route(route: str, mode: NormalizedMode, table: SpectralTable, t: float,
                 r_max: float, fd_points: int, dt: float) -> tuple:
    """Evolve one mode to time t by one route; returns (grid, weights, u) on
    the route's own grid:

    * ``closed``: the nodes and weights of the default RadialQuadrature on
      (0, r_max];
    * ``kernel``: the output grid r = 2t k of ``propagate_representation`` run
      on ``log_grid()``, clipped to [1e-3 sqrt(1+t^2), r_max], weights r dln;
    * ``fd``: the cells of a RadialSchema of ``fd_points`` cells, each of
      weight h.  The mode is marched on it and on the nested schema of
      3 ``fd_points`` cells, whose cell 3i+1 has the centre of cell i; the
      scheme's error in space is a series in h^2, so Richardson's
      extrapolation (9 u_{h/3} - u_h) / 8 cancels its leading term.  The
      time step dt is the same on both grids and is not extrapolated.
      The output still moves with dt, but not by time error on the modes
      the grids resolve: the cell datum holds an O(h^2) share on
      eigenvalues lambda of the operator far above the closed form's
      content (3e-6 of mode (1,2) at a = 0.5 on 1500 cells), where the
      Pade factor's phase is O(1) off e^{-i dt lambda} for dt lambda >> 1,
      and where the exact discrete flow's phase is itself space error.  So
      no dt gives a converged limit at that level: the Pade (6,6) route at
      dt 1.25e-2 and 6.25e-3 differs by 1.5e-8 relative on that mode and by
      1.7e-6 on mode (10,1) at a = -3/16.
    """
    if route == "fd":
        coarse, fine = (RadialSchema(N=mode.N, alpha=mode.alpha, R=r_max, M=cells, dt=dt)
                        for cells in (fd_points, 3 * fd_points))
        grid = coarse.grid
        u_coarse = evolve_schrodinger(coarse, mode.radial(grid), t)
        u_fine = evolve_schrodinger(fine, mode.radial(fine.grid), t)[1::3]
        return grid, np.full(fd_points, coarse.h), (9.0 * u_fine - u_coarse) / 8.0
    if route == "kernel":
        r_min = 1e-3 * math.sqrt(1.0 + t * t)
        if r_min > r_max:
            raise ValueError(f"the kernel route resolves r >= {r_min:.3g} at t = {t!r}, "
                             f"past r_max = {r_max!r}")
        grid, weights = log_grid()
        state = SeparatedState(grid=grid, weights=weights,
                               profiles={mode.index.j: mode.radial(grid)}, table=table)
        u = propagate_representation(state, t, r_range=(r_min, r_max))
        return u.grid, u.weights, u.profiles[mode.index.j]
    if route != "closed":
        raise ValueError(f"route must be one of {', '.join(ROUTES)}, got {route!r}")
    quad = RadialQuadrature(r_max)
    return quad.nodes, quad.weights, evolve_mode_closed_form(mode, quad.nodes, t)


def window_errors(u, ref, r, weights, N: int, window) -> tuple[float, float]:
    """Relative L^2(r^{N-1} dr) and sup distances of u from ref on the nodes
    of the grid r in window = [lo, hi]; WindowError if the window holds none,
    FloatingPointError if ref is zero or not finite there."""
    lo, hi = window
    mask = (r >= lo) & (r <= hi)
    if not mask.any():
        raise WindowError(f"[{lo!r}, {hi!r}] holds no node of the grid on "
                          f"[{r[0]:.6g}, {r[-1]:.6g}]")
    u, ref, r, weights = u[mask], ref[mask], r[mask], weights[mask]
    rpow = r ** (N - 1)
    err = np.sqrt(np.sum(weights * np.abs(u - ref) ** 2 * rpow))
    l2 = relative_error(err, np.sqrt(np.sum(weights * np.abs(ref) ** 2 * rpow)))
    return l2, relative_error(np.max(np.abs(ref - u)), np.max(np.abs(ref)))


def relative_error(err, ref_norm) -> float:
    """err / ref_norm; FloatingPointError if the reference norm is zero or
    not finite (say, a reference that underflowed), where the quotient would
    be NaN or infinite."""
    if not (math.isfinite(ref_norm) and ref_norm > 0):
        raise FloatingPointError(
            f"reference norm {float(ref_norm)!r} is zero or not finite: no relative error")
    return float(err / ref_norm)


def compare_routes(mode: NormalizedMode, table: SpectralTable, T: float, r_max: float,
                   fd_points: int, dt: float, window) -> dict:
    """Run the representation-formula and finite-difference routes to time T for
    one mode and tabulate pairwise relative errors on the comparison window,
    against the closed form on each route's own grid and against each other.
    Returns {"mode", "l2_rel", "sup_rel", "failures"}: the errors by pair,
    and the repr of the exception of each failed route.  A window that holds
    no node of a route's grid raises WindowError.

    ``representation_vs_fd`` is measured on the representation grid, where
    the fd profile is read by the 4-point Lagrange interpolant of the smooth
    r^alpha u on the uniform fd cells (``_lagrange4``): its O(h^4) error
    stays below the extrapolated fd route's own, where linear interpolation
    read 2.6e-5 at h = 0.02."""
    report = {"mode": (mode.index.n, mode.index.j), "l2_rel": {}, "sup_rel": {},
              "failures": {}}

    def record(pair, u, ref, r, weights):
        report["l2_rel"][pair], report["sup_rel"][pair] = window_errors(
            u, ref, r, weights, mode.N, window)

    runs = {}
    for route, name in (("kernel", "representation"), ("fd", "fd")):
        try:
            runs[name] = evolve_route(route, mode, table, T, r_max, fd_points, dt)
        except Exception as exc:  # noqa: BLE001 - partial reports carry the failure
            report["failures"][name] = repr(exc)
    # the closed form is the oracle for the other two
    for name, (grid, weights, u) in runs.items():
        record(f"closed_vs_{name}", u, evolve_mode_closed_form(mode, grid, T), grid, weights)
    if len(runs) == 2:
        # compare on the representation grid; interpolate the smooth weighted
        # FD profile r^alpha u
        grid, weights, u_rep = runs["representation"]
        fd_grid, fd_weights, u_fd = runs["fd"]
        interp = _lagrange4(grid, fd_grid[0], fd_weights[0], fd_grid ** mode.alpha * u_fd)
        record("representation_vs_fd", interp * grid ** (-mode.alpha),
               u_rep, grid, weights)
    return report


def _lagrange4(x: np.ndarray, x0: float, h: float, f: np.ndarray) -> np.ndarray:
    """The 4-point Lagrange interpolant at x of the samples f on the uniform
    nodes x0 + i h: the cubic through the two nodes on each side of x, or
    through the 4 nodes at an end of the grid (3 if it has only 3).  Its
    error is O(h^4) where linear interpolation's is O(h^2)."""
    width = min(4, len(f))
    pos = (x - x0) / h
    start = np.clip(np.floor(pos).astype(int) - (width // 2 - 1), 0, len(f) - width)
    s = pos - start
    out = np.zeros(np.shape(x), dtype=np.result_type(f, float))
    for j in range(width):
        basis = np.ones_like(s)
        for m in range(width):
            if m != j:
                basis *= (s - m) / (j - m)
        out += basis * f[start + j]
    return out


def heat_self_similar(N: int, alpha_k: float, r, t):
    """Radial part of the exact self-similar solution of the heat flow with
    inverse-square potential and constant angular coefficient:

        v(x, t) = t^{-N/2 + alpha_k} r^{-alpha_k} e^{-r^2/(4t)} psi_k(theta),

    at radii r and times t > 0, of shape t.shape + r.shape; each time's row
    is bitwise its own call's.  Raises ValueError at the first time, in
    order, whose t^{-N/2 + alpha_k} overflows, naming t.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("heat_self_similar requires t > 0")
    r_arr = np.asarray(r, dtype=float)
    col = t_arr.reshape(t_arr.shape + (1,) * r_arr.ndim)
    out = _scalar_pow(col, -N / 2.0 + alpha_k, "t") * r_arr ** (-alpha_k) * np.exp(
        -r_arr * r_arr / (4.0 * col)
    )
    return float(out) if out.ndim == 0 else out


def heat_residual(N: int, mu_k: float, alpha_k: float) -> float:
    """Centered-finite-difference residual of the self-similar heat solution.

    Checks v_t = v_rr + ((N-1)/r) v_r - (mu_k/r^2) v on the window
    r in [0.5, 5], t in [1, 2], with steps dr = 1/200 and dt = 1e-4, and
    returns max |residual| / max |v| over the window, whose 9 times are the
    rows of one (times, radii) array.
    """
    dr, dt = 1.0 / 200.0, 1e-4
    r = np.arange(0.5, 5.0 + dr / 2.0, dr)
    ts = np.linspace(1.0, 2.0, 9)
    v = heat_self_similar(N, alpha_k, r, ts)
    v_p = heat_self_similar(N, alpha_k, r + dr, ts)
    v_m = heat_self_similar(N, alpha_k, r - dr, ts)
    v_t = (heat_self_similar(N, alpha_k, r, ts + dt)
           - heat_self_similar(N, alpha_k, r, ts - dt)) / (2.0 * dt)
    v_rr = (v_p - 2.0 * v + v_m) / (dr * dr)
    v_r = (v_p - v_m) / (2.0 * dr)
    resid = v_t - (v_rr + (N - 1) / r * v_r - mu_k / (r * r) * v)
    return float(np.max(np.abs(resid))) / float(np.max(np.abs(v)))


def weighted_modulus(r: np.ndarray, modulus: np.ndarray, weight_exponent: float) -> np.ndarray:
    """r^w |u| per sample, from the radii r and the moduli |u| >= 0; r
    broadcasts against the moduli, so one row of radii serves a (times,
    radii) array and r^w is formed once.

    A sample with |u| = 0 reads 0: r^w may overflow there, and inf * 0 is
    NaN.  Where r^w alone overflows on a nonzero sample the product is
    formed as exp(w log r + log |u|), so it is inf only if the product
    itself overflows; every other sample is the plain product r^w * |u|.
    A NaN modulus reads NaN.
    """
    with np.errstate(over="ignore"):
        power = r ** weight_exponent
    live = modulus != 0
    weighted = np.where(live, power, 0.0) * modulus
    past = live & np.isinf(power)
    if past.any():
        r_past = np.broadcast_to(r, past.shape)[past]
        with np.errstate(over="ignore", divide="ignore"):
            weighted[past] = np.exp(weight_exponent * np.log(r_past) + np.log(modulus[past]))
    return weighted


def weighted_sup_norm(r: np.ndarray, u: np.ndarray, weight_exponent: float) -> float | np.ndarray:
    """max of r^w |u| over the last axis of the samples (r, u), by
    ``weighted_modulus`` (0 if every u is 0): a float for 1-d u, one sup
    per row for a (times, radii) u.  A sup is inf only if a product
    overflows, and a NaN sample makes it NaN."""
    sup = np.max(weighted_modulus(r, np.abs(u), weight_exponent), axis=-1, initial=0.0)
    return float(sup) if sup.ndim == 0 else sup


MIN_FIT_SAMPLES = 4


def decay_fit(samples) -> dict:
    """Least-squares power-law fit on (log t, log norm) pairs.

    Returns {"times", "norms", "fitted_slope", "fitted_intercept",
    "r_squared"} as Python floats, the samples sorted by time.  The slope is
    the measured decay exponent; the intercept is reported raw (no constant
    is asserted).
    """
    samples = sorted(samples)
    times = np.array([s[0] for s in samples], dtype=float)
    norms = np.array([s[1] for s in samples], dtype=float)
    if len(times) < MIN_FIT_SAMPLES:
        raise ValueError(f"decay_fit needs at least {MIN_FIT_SAMPLES} samples")
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise ValueError("decay_fit requires finite, strictly positive norms")
    if np.any(np.diff(times) <= 0):
        raise ValueError("decay_fit requires strictly increasing times")
    if times[-1] / times[0] < 100.0:
        warnings.warn(
            "decay samples span fewer than 2 decades; slope may be poorly conditioned",
            AccuracyWarning, stacklevel=2,
        )
    x, y = np.log(times), np.log(norms)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return {"times": times.tolist(), "norms": norms.tolist(), "fitted_slope": float(slope),
            "fitted_intercept": float(intercept), "r_squared": r_sq}


def dyadic_times(lo_exp: int = 0, hi_exp: int = 10) -> np.ndarray:
    """Default time samples 2^lo..2^hi (equal log spacing)."""
    return 2.0 ** np.arange(lo_exp, hi_exp + 1)
