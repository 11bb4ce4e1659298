"""Propagation routes and decay experiments.

Three mutually cross-validating ways to evolve separated initial data under
the scaling-invariant Schrodinger flow:

* ``evolve_mode_closed_form`` -- exact evolution of a single oscillator
  eigenfunction;
* ``propagate_representation`` -- Bessel-kernel (Hankel-type) quadrature of
  the representation formula, mode by mode; the kernel matrix on the
  state's grid is symmetric, so it is evaluated on its upper triangle in row
  blocks and mirrored;
* Crank-Nicolson finite differences, the scheme of :mod:`schroflow.radialfd`;
``evolve_route`` runs each route, ``compare_routes`` checks them pairwise.

Also here: the kernel series K / K_k, the pseudoconformal transform, the
self-similar heat solution, weighted sup norms and power-law decay fits.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .angular import AngularEigensystem, constant_a_spectrum
from .oscillator import (AccuracyWarning, HardyViolation, ModeIndex, NormalizedMode,
                         SpectralTable, build_table, make_mode)
from .quadrature import RadialQuadrature
from .radialfd import RadialSchema, evolve_schrodinger
from .specfun import j_scaled, legendre_p


# rows of the kernel matrix per j_scaled call in propagate_representation;
# of 32 to 512 rows, 64 took the least CPU on the 2000-node default grid
_KERNEL_ROW_BLOCK = 64


class ResolutionError(ValueError):
    """A quadrature grid is too coarse to resolve the oscillatory phase."""


class WindowError(ValueError):
    """A sample window holds no grid node, or samples outside the domain."""


@dataclass
class SeparatedState:
    """A function u(x) = sum_j f_j(|x|) psi_j(x/|x|) on a shared radial grid.

    ``grid`` must be strictly increasing and positive; ``weights`` are the
    quadrature weights for integrals dr on the grid, so the L^2 norm and
    projections are weighted dot products.
    """

    N: int
    grid: np.ndarray
    weights: np.ndarray
    profiles: dict[int, np.ndarray]
    table: SpectralTable | None = None

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

    @classmethod
    def from_quadrature(cls, N: int, quad: RadialQuadrature, profiles: dict,
                        table: SpectralTable | None = None) -> "SeparatedState":
        return cls(N=N, grid=quad.nodes.copy(), weights=quad.weights.copy(),
                   profiles=profiles, table=table)

    def l2_norm(self) -> float:
        total = 0.0
        rpow = self.grid ** (self.N - 1)
        for f in self.profiles.values():
            total += float(np.sum(self.weights * np.abs(f) ** 2 * rpow))
        return math.sqrt(total)


def state_from_mode(mode: NormalizedMode, quad: RadialQuadrature,
                    table: SpectralTable | None = None) -> SeparatedState:
    """Sample a normalized oscillator eigenfunction as a separated state."""
    return SeparatedState.from_quadrature(
        mode.N, quad, {mode.index.j: mode.radial(quad.nodes).astype(complex)}, table,
    )


def evolve_mode_closed_form(mode: NormalizedMode, r, t: float, weighted: bool = False):
    """Exact radial part of the evolved eigenfunction at time t.

    The full solution is the returned value times psi_j(theta):

        (1+t^2)^{-N/4+alpha/2} r^{-alpha} e^{-r^2/(4(1+t^2))} / |V|
        * exp(i r^2 t / (4(1+t^2))) * exp(-i gamma arctan t) * P(r^2/(2(1+t^2)))

    At t=0 this reproduces the mode itself.
    """
    r_arr = np.asarray(r, dtype=float)
    if not weighted and np.any(r_arr <= 0):
        raise ValueError("unweighted closed-form evolution requires r > 0")
    s = 1.0 + t * t
    r2 = r_arr * r_arr
    amp = (
        s ** (-mode.N / 4.0 + mode.alpha / 2.0)
        * np.exp(-r2 / (4.0 * s))
        * mode.poly(r2 / (2.0 * s))
        / mode.norm
    )
    if not weighted:
        amp = amp * r_arr ** (-mode.alpha)
    phase = np.exp(1j * r2 * t / (4.0 * s)) * np.exp(-1j * mode.gamma * math.atan(t))
    out = amp * phase
    return complex(out) if np.ndim(r) == 0 else out


def evolved_mode_state(mode: NormalizedMode, quad: RadialQuadrature, t: float,
                       table: SpectralTable | None = None) -> SeparatedState:
    """Closed-form evolution sampled as a separated state."""
    return SeparatedState.from_quadrature(
        mode.N, quad, {mode.index.j: evolve_mode_closed_form(mode, quad.nodes, t)}, table,
    )


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
        N=state.N, grid=new_grid, weights=new_weights,
        profiles={j: factor * f for j, f in state.profiles.items()},
        table=state.table,
    )


@dataclass(frozen=True)
class KernelSpec:
    """Truncated kernel series K (k_start=1) or the tail kernel K_k.

    ``path``: ``mode_sum`` sums eigenfunction products directly;
    ``legendre_collapsed`` (N=3, constant scalar coefficient only) collapses
    each degree block to (2l+1)/(4pi) P_l(cos gamma).
    """

    table: SpectralTable
    k_start: int = 1
    K_trunc: int | None = None
    path: str = "mode_sum"
    tail_threshold: float = 1e-8

    def __post_init__(self):
        kt = self.K_trunc if self.K_trunc is not None else self.table.K_max
        object.__setattr__(self, "K_trunc", kt)
        if not 1 <= self.k_start <= self.K_trunc <= self.table.K_max:
            raise ValueError(
                f"need 1 <= k_start <= K_trunc <= K_max, got "
                f"({self.k_start}, {self.K_trunc}, {self.table.K_max})"
            )
        if self.path not in ("mode_sum", "legendre_collapsed"):
            raise ValueError(f"unknown kernel path {self.path!r}")


def _unit_phase(alpha: float) -> complex:
    # Branch of the per-mode unimodular factor, fixed by the free-kernel
    # identity (2 pi)^{N/2} K(X, Y) = exp(-i X.Y).
    return complex(np.exp(1j * math.pi * alpha / 2.0))


def _j_factor(N: int, alpha: float, rho: float) -> float:
    if rho > 0:
        return j_scaled(N, alpha, rho)
    if alpha > 0:
        raise ValueError("kernel term diverges at rho=0 for a mode with alpha > 0")
    if alpha == 0:
        return j_scaled(N, 0.0, 0.0, weighted=True)
    return 0.0


def kernel_eval(spec: KernelSpec, x_dir, y_dir, rho: float) -> complex:
    """Kernel value sum_k phase_k j_{-alpha_k}(rho) psi_k(x) conj(psi_k(y)).

    ``x_dir``/``y_dir``: an angle for N=2, or (theta, phi) / a unit 3-vector
    for N=3.  The series is summed mode by mode over blocks of equal
    alpha_k, with the factor phase j evaluated once per block.  Emits
    AccuracyWarning when the Cauchy-Schwarz bound of the last block,
    |phase j| sqrt(sum |psi_k(x)|^2 sum |psi_k(y)|^2), exceeds the tail
    threshold.
    """
    if rho < 0:
        raise ValueError("kernel_eval requires rho >= 0")
    if spec.path == "legendre_collapsed":
        blocks = _legendre_blocks(spec, x_dir, y_dir)
    else:
        blocks = _mode_blocks(spec, x_dir, y_dir)
    total = 0.0 + 0.0j
    for alpha, terms, bound in blocks:
        coef = _unit_phase(alpha) * _j_factor(spec.table.N, alpha, rho)
        for term in terms:
            total += term(coef)
        tail = abs(coef) * bound
    if tail > spec.tail_threshold:
        warnings.warn(
            f"kernel truncation tail estimate {tail:.2e} exceeds {spec.tail_threshold:.0e}",
            AccuracyWarning, stacklevel=2,
        )
    return complex(total)


def _mode_blocks(spec: KernelSpec, x_dir, y_dir) -> list:
    """(alpha, per-mode term as a function of phase*j, angular bound) for
    each run of equal alpha_k in [k_start, K_trunc]."""
    table = spec.table
    eigsys = table.eigsys
    if eigsys is None:
        raise ValueError("mode_sum kernel evaluation needs the angular eigensystem")
    blocks = []
    modes = range(spec.k_start, spec.K_trunc + 1)
    for alpha, ks in itertools.groupby(modes, key=lambda k: table.row(k)[1]):
        ks = list(ks)
        px = [_psi_value(eigsys, k, x_dir) for k in ks]
        py = [_psi_value(eigsys, k, y_dir) for k in ks]
        blocks.append((
            alpha,
            [lambda c, a=a, b=b: c * a * np.conj(b) for a, b in zip(px, py)],
            math.sqrt(sum(abs(a) ** 2 for a in px) * sum(abs(b) ** 2 for b in py)),
        ))
    return blocks


def _psi_value(eigsys: AngularEigensystem, k: int, direction) -> complex:
    if eigsys.N == 2:
        theta = float(direction) if np.isscalar(direction) else math.atan2(direction[1], direction[0])
        return complex(eigsys.angular_value(k, theta))
    theta, phi = _sphere_angles(direction)
    return complex(eigsys.angular_value(k, theta, phi))


def _sphere_angles(direction):
    d = np.asarray(direction, dtype=float)
    if d.shape == (2,):            # (theta, phi)
        return float(d[0]), float(d[1])
    if d.shape == (3,):            # unit vector
        n = np.linalg.norm(d)
        return math.acos(max(-1.0, min(1.0, d[2] / n))), math.atan2(d[1], d[0])
    raise ValueError("sphere direction must be (theta, phi) or a 3-vector")


def _legendre_blocks(spec: KernelSpec, x_dir, y_dir) -> list:
    """One block per degree l: the addition theorem collapses its modes to
    (2l+1)/(4pi) P_l(cos gamma), which is also the block's angular bound."""
    table = spec.table
    eigsys = table.eigsys
    if table.N != 3 or eigsys is None or eigsys.basis_tag != "analytic_constant":
        raise ValueError(
            "legendre_collapsed kernel path requires N=3 with constant scalar coefficient"
        )
    labels = eigsys.mode_labels
    # degree blocks must be fully contained in [k_start, K_trunc]
    degrees = [labels[k - 1][0] for k in range(spec.k_start, spec.K_trunc + 1)]
    l_lo, l_hi = degrees[0], degrees[-1]
    expected = sum(2 * l + 1 for l in range(l_lo, l_hi + 1))
    if len(degrees) != expected:
        raise ValueError(
            "legendre_collapsed requires k_start/K_trunc aligned with whole degree blocks"
        )
    cosg = _cos_angle(x_dir, y_dir)
    return [
        (0.5 - math.sqrt(0.25 + l * (l + 1) + eigsys.constant_shift),
         [lambda c, l=l: c * (2 * l + 1) / (4.0 * math.pi) * legendre_p(l, cosg)],
         (2 * l + 1) / (4.0 * math.pi))
        for l in range(l_lo, l_hi + 1)
    ]


def _cos_angle(x_dir, y_dir) -> float:
    vx, vy = (_to_unit_vector(d) for d in (x_dir, y_dir))
    return float(np.clip(np.dot(vx, vy), -1.0, 1.0))


def _to_unit_vector(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    if d.shape == (3,):
        return d / np.linalg.norm(d)
    theta, phi = _sphere_angles(d)
    return np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ])


def propagate_representation(state: SeparatedState, t: float,
                             spec: KernelSpec) -> SeparatedState:
    """Evolve a separated state to time t > 0 through the kernel
    representation formula, reduced per angular mode to the radial quadrature

        u_j(r) = e^{i r^2/4t} e^{-i pi N/4} (2t)^{-N/2} phase_j
                 * int_0^inf j_{-alpha_j}(r rho / 2t) e^{i rho^2/4t}
                             f_j(rho) rho^{N-1} d rho.

    The output is sampled on the state's own grid, so the kernel matrix
    j_{-alpha_j}(r rho/2t) is symmetric; it is evaluated on its upper triangle
    in row blocks (n(n+1)/2 Bessel values per mode for n nodes) and mirrored,
    which gives the same entries as a dense evaluation.

    Raises ResolutionError when the state's grid resolves the integrand's
    phase with fewer than 8 points per period at the grid edge.
    """
    if t <= 0:
        raise ValueError("propagate_representation requires t > 0")
    table = spec.table
    if not table.hardy_ok:
        raise HardyViolation("representation propagation requires the Hardy condition")
    for j in state.profiles:
        if j < spec.k_start:
            raise ValueError(
                f"state carries mode j={j} below the kernel start index {spec.k_start}"
            )
        if j > table.K_max:
            raise ValueError(f"state mode j={j} exceeds the spectral table (K_max={table.K_max})")
    g = state.grid
    # worst-case local phase rate (r + rho)/2t of e^{i rho^2/4t} j(r rho/2t)
    # at the edge r = rho = g[-1]
    rate = g[-1] / t
    max_spacing = float(np.max(np.diff(g)))
    if max_spacing > (2.0 * math.pi / rate) / 8.0:
        raise ResolutionError(
            f"grid spacing {max_spacing:.3g} gives fewer than 8 points per phase "
            f"period ({2 * math.pi / rate:.3g}) at the grid edge; refine the grid"
        )
    pref_common = np.exp(1j * g ** 2 / (4.0 * t)) * np.exp(-1j * math.pi * state.N / 4.0) \
        / (2.0 * t) ** (state.N / 2.0)
    source_weight = np.exp(1j * g ** 2 / (4.0 * t)) * g ** (state.N - 1) * state.weights
    out_profiles = {}
    for j, f in state.profiles.items():
        _, alpha_j, _ = table.row(j)
        integral = _kernel_matrix(state.N, alpha_j, g, t) @ (source_weight * f)
        out_profiles[j] = pref_common * _unit_phase(alpha_j) * integral
    return SeparatedState(
        N=state.N, grid=g.copy(), weights=state.weights.copy(),
        profiles=out_profiles, table=table,
    )


def _kernel_matrix(N: int, alpha: float, g: np.ndarray, t: float) -> np.ndarray:
    """The matrix j_{-alpha}(g_i g_k / 2t) on the grid g.

    g_i g_k and g_k g_i are the same floating-point product, so the matrix is
    exactly symmetric: each block of _KERNEL_ROW_BLOCK rows is evaluated on
    and right of the diagonal only, n(n+1)/2 Bessel values in all, in one
    j_scaled call per block, and mirrored.  j_scaled works elementwise, so
    every entry is the value a dense evaluation gives.
    """
    n = len(g)
    Kmat = np.empty((n, n))
    for s in range(0, n, _KERNEL_ROW_BLOCK):
        e = min(s + _KERNEL_ROW_BLOCK, n)
        block = g[s:e]
        # the block's upper triangle on the diagonal, then the rectangle right of it
        rows, cols = np.triu_indices(e - s)
        values = j_scaled(N, alpha, np.concatenate(
            [block[rows] * block[cols], np.outer(block, g[e:]).ravel()]) / (2.0 * t))
        tri, rect = values[:len(rows)], values[len(rows):].reshape(e - s, n - e)
        Kmat[s + rows, s + cols] = tri
        Kmat[s + cols, s + rows] = tri
        Kmat[s:e, e:] = rect
        Kmat[e:, s:e] = rect.T
    return Kmat


ROUTES = ("closed", "kernel", "fd")


def evolve_route(route: str, mode: NormalizedMode, table: SpectralTable, t: float,
                 r_max: float, quad_panels: int, quad_nodes: int, fd_points: int,
                 dt: float) -> tuple:
    """Evolve one mode to time t by one route; returns (grid, weights, u):
    the RadialQuadrature nodes and weights for ``closed`` and ``kernel``, the
    RadialSchema cells, each of weight h, for ``fd``."""
    if route == "fd":
        schema = RadialSchema(N=mode.N, mu=table.row(mode.index.j)[0], R=r_max,
                              M=fd_points, dt=dt)
        grid = schema.grid
        return (grid, np.full(fd_points, schema.h),
                evolve_schrodinger(schema, mode.radial(grid), t))
    quad = RadialQuadrature(r_max, quad_panels, quad_nodes)
    if route == "closed":
        return quad.nodes, quad.weights, evolve_mode_closed_form(mode, quad.nodes, t)
    if route != "kernel":
        raise ValueError(f"route must be one of {', '.join(ROUTES)}, got {route!r}")
    state = propagate_representation(state_from_mode(mode, quad, table), t,
                                     KernelSpec(table=table))
    return quad.nodes, quad.weights, state.profiles[mode.index.j]


def window_errors(u, ref, r, weights, N: int, window) -> tuple[float, float]:
    """Relative L^2(r^{N-1} dr) and sup distances of u from ref on the nodes
    of the grid r in window = [lo, hi]; WindowError if the window holds none."""
    lo, hi = window
    mask = (r >= lo) & (r <= hi)
    if not mask.any():
        raise WindowError(f"[{lo!r}, {hi!r}] holds no node of the grid on "
                          f"[{r[0]:.6g}, {r[-1]:.6g}]")
    u, ref, r, weights = u[mask], ref[mask], r[mask], weights[mask]
    rpow = r ** (N - 1)
    err = np.sqrt(np.sum(weights * np.abs(u - ref) ** 2 * rpow))
    l2 = float(err / np.sqrt(np.sum(weights * np.abs(ref) ** 2 * rpow)))
    return l2, float(np.max(np.abs(ref - u)) / np.max(np.abs(ref)))


@dataclass(frozen=True)
class RouteParams:
    """Shared configuration for a three-route comparison run."""

    N: int = 3
    a: float = 0.0
    T: float = 1.0
    r_max: float = 30.0
    fd_points: int = 12000
    dt: float = 1e-3
    quad_panels: int = 256
    quad_nodes: int = 8
    window: tuple = (0.1, 8.0)


@dataclass
class RouteComparison:
    """Pairwise route errors for one mode; failures flagged per route."""

    mode: tuple
    l2_rel: dict = field(default_factory=dict)
    sup_rel: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def compare_routes(mode: ModeIndex, params: RouteParams) -> RouteComparison:
    """Run closed-form, representation-formula and Crank-Nicolson routes to
    time T for one mode of the constant-coefficient problem and tabulate
    pairwise relative errors on the comparison window; a failed route is
    recorded in ``failures``."""
    report = RouteComparison(mode=(mode.n, mode.j))
    table = build_table(constant_a_spectrum(params.N, params.a, count=mode.j),
                        params.N, mode.j)
    nmode = make_mode(mode, table)

    def run(route):
        return evolve_route(route, nmode, table, params.T, params.r_max,
                            params.quad_panels, params.quad_nodes, params.fd_points,
                            params.dt)

    def record(pair, u, ref, r, weights):
        report.l2_rel[pair], report.sup_rel[pair] = window_errors(
            u, ref, r, weights, params.N, params.window)

    # the closed form is the oracle for the other two
    grid, weights, closed = run("closed")
    runs = {}
    for route, name in (("kernel", "representation"), ("fd", "fd")):
        try:
            runs[name] = run(route)
        except Exception as exc:  # noqa: BLE001 - partial reports carry the failure
            report.failures[name] = repr(exc)
    if "representation" in runs:
        u_rep = runs["representation"][2]
        record("closed_vs_representation", u_rep, closed, grid, weights)
    if "fd" in runs:
        fd_grid, fd_weights, u_fd = runs["fd"]
        record("closed_vs_fd", u_fd, evolve_mode_closed_form(nmode, fd_grid, params.T),
               fd_grid, fd_weights)
        if "representation" in runs:
            # compare on the quadrature grid; interpolate the smooth weighted
            # FD profile r^alpha u
            wfd = fd_grid ** nmode.alpha * u_fd
            interp = np.interp(grid, fd_grid, wfd.real) + 1j * np.interp(
                grid, fd_grid, wfd.imag)
            record("representation_vs_fd", interp * grid ** (-nmode.alpha),
                   u_rep, grid, weights)
    return report


def heat_self_similar(N: int, alpha_k: float, r, t: float):
    """Radial part of the exact self-similar solution of the heat flow with
    inverse-square potential and constant angular coefficient:

        v(x, t) = t^{-N/2 + alpha_k} r^{-alpha_k} e^{-r^2/(4t)} psi_k(theta).
    """
    if t <= 0:
        raise ValueError("heat_self_similar requires t > 0")
    r_arr = np.asarray(r, dtype=float)
    out = t ** (-N / 2.0 + alpha_k) * r_arr ** (-alpha_k) * np.exp(
        -r_arr * r_arr / (4.0 * t)
    )
    return float(out) if np.ndim(r) == 0 else out


def heat_residual(N: int, mu_k: float, alpha_k: float, r_window=(0.5, 5.0),
                  t_window=(1.0, 2.0), dr: float = 1.0 / 200.0,
                  dt: float = 1e-4) -> float:
    """Centered-finite-difference residual of the self-similar heat solution.

    Checks v_t = v_rr + ((N-1)/r) v_r - (mu_k/r^2) v on a (r, t) sample
    window and returns max |residual| / max |v| over the window; a window
    must start above its step, so that r - dr > 0 and t - dt > 0.
    """
    if not r_window[0] > dr:
        raise WindowError(f"r_window starts at {r_window[0]!r}, not above dr = {dr!r}")
    if not t_window[0] > dt:
        raise WindowError(f"t_window starts at {t_window[0]!r}, not above dt = {dt!r}")
    r = np.arange(r_window[0], r_window[1] + dr / 2.0, dr)
    ts = np.linspace(t_window[0], t_window[1], 9)
    worst = 0.0
    vmax = 0.0
    for t in ts:
        v = heat_self_similar(N, alpha_k, r, t)
        v_p = heat_self_similar(N, alpha_k, r + dr, t)
        v_m = heat_self_similar(N, alpha_k, r - dr, t)
        v_t = (heat_self_similar(N, alpha_k, r, t + dt)
               - heat_self_similar(N, alpha_k, r, t - dt)) / (2.0 * dt)
        v_rr = (v_p - 2.0 * v + v_m) / (dr * dr)
        v_r = (v_p - v_m) / (2.0 * dr)
        resid = v_t - (v_rr + (N - 1) / r * v_r - mu_k / (r * r) * v)
        worst = max(worst, float(np.max(np.abs(resid))))
        vmax = max(vmax, float(np.max(np.abs(v))))
    return worst / vmax


@dataclass(frozen=True)
class WeightedSupNorm:
    """Weighted sup norm, per angular mode and combined by triangle bound."""

    per_mode: dict
    combined: float


def weighted_sup_norm(target, weight_exponent: float, r_window,
                      samples: int = 2000) -> WeightedSupNorm:
    """sup over the window of r^w |u(r)| max_theta |psi_j|, per mode.

    ``target`` is either a SeparatedState (evaluated on its own grid) or a
    callable r -> complex radial profile (sampled log-uniformly on the
    window; angular sup taken as 1).
    """
    r_lo, r_hi = float(r_window[0]), float(r_window[1])
    if not (0 <= r_lo < r_hi):
        raise ValueError(f"empty or invalid radial window {r_window!r}")
    if callable(target):
        if r_lo <= 0:
            raise ValueError("a callable target needs r_lo > 0")
        r = np.geomspace(r_lo, r_hi, samples)
        vals = np.abs(np.asarray(target(r))) * r ** weight_exponent
        sup = float(np.max(vals))
        return WeightedSupNorm(per_mode={0: sup}, combined=sup)
    state: SeparatedState = target
    mask = (state.grid >= r_lo) & (state.grid <= r_hi)
    if not mask.any():
        raise ValueError("radial window contains no grid points")
    r = state.grid[mask]
    per_mode = {}
    for j, f in state.profiles.items():
        ang = 1.0
        if state.table is not None and state.table.eigsys is not None:
            ang = state.table.eigsys.sup_abs(j)
        per_mode[j] = float(np.max(np.abs(f[mask]) * r ** weight_exponent)) * ang
    return WeightedSupNorm(per_mode=per_mode, combined=float(sum(per_mode.values())))


@dataclass(frozen=True)
class DecayReport:
    """Log-log least-squares fit of (time, norm) decay samples."""

    times: np.ndarray
    norms: np.ndarray
    weight_exponent: float
    fitted_slope: float
    fitted_intercept: float
    r_squared: float

    def to_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "norms": [float(n) for n in self.norms],
            "weight_exponent": self.weight_exponent,
            "fitted_slope": self.fitted_slope,
            "fitted_intercept": self.fitted_intercept,
            "r_squared": self.r_squared,
        }


MIN_FIT_SAMPLES = 4


def decay_fit(samples, weight_exponent: float = 0.0) -> DecayReport:
    """Least-squares power-law fit on (log t, log norm) pairs.

    The slope is the measured decay exponent; the intercept is reported raw
    (no constant is asserted).
    """
    samples = sorted(samples)
    times = np.array([s[0] for s in samples], dtype=float)
    norms = np.array([s[1] for s in samples], dtype=float)
    if len(times) < MIN_FIT_SAMPLES:
        raise ValueError(f"decay_fit needs at least {MIN_FIT_SAMPLES} samples")
    if np.any(norms <= 0):
        raise ValueError("decay_fit requires strictly positive norms")
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
    return DecayReport(
        times=times, norms=norms, weight_exponent=weight_exponent,
        fitted_slope=float(slope), fitted_intercept=float(intercept), r_squared=r_sq,
    )


def dyadic_times(lo_exp: int = 0, hi_exp: int = 10) -> np.ndarray:
    """Default time samples 2^lo..2^hi (equal log spacing)."""
    return 2.0 ** np.arange(lo_exp, hi_exp + 1)
