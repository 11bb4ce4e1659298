"""Command-line front door.

JSON-configured batch runs of spectrum computation, mode evolution, kernel
evaluation, decay-exponent fitting, self-similar heat checks, and
cross-route comparison, emitting CSV/JSON artifacts for offline plotting.

Exit codes: 0 success, 2 config error, 3 Hardy condition violated,
4 expectation miss (--expect), 5 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, flow
from .angular import (AngularProblem, AngularProblemError, EigensolveError,
                      assemble_circle, constant_a_spectrum, eigensolve)
from .oscillator import (AccuracyWarning, HardyViolation, ModeIndex,
                         build_table, make_mode)
from .quadrature import RadialQuadrature
from .radialfd import (RadialSchema, RouteParams, compare_routes, evolve_heat,
                       evolve_schrodinger)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HARDY = 3
EXIT_EXPECT = 4
EXIT_NUMERIC = 5


class ConfigError(ValueError):
    """Malformed run configuration (schema violation, bad types, bad paths)."""


class ExpectationMiss(RuntimeError):
    """A headline result fell outside the tolerance given via --expect."""


# ---------------------------------------------------------------------------
# configuration loading and schema validation

_PROBLEM_KEYS = {"N", "a", "magnetic", "truncation"}

_EXPERIMENT_KEYS = {
    "spectrum": {"K"},
    "evolve": {"mode", "t", "route", "r_max", "quad_panels", "quad_nodes",
               "fd_points", "dt", "window"},
    "decay": {"mode", "weight", "times", "window", "samples"},
    "kernel": {"k_start", "K", "path", "rho", "x_dir", "y_dir",
               "weight_exponent"},
    "heat": {"k", "t0", "t1", "r_max", "fd_points", "dt", "fit_ratio",
             "fit_times", "residual"},
    "compare": {"mode", "T", "r_max", "fd_points", "dt", "quad_panels",
                "quad_nodes", "window"},
}

_RESIDUAL_KEYS = {"r_window", "t_window", "dr", "dt"}


def load_config(path: str, command: str) -> tuple[dict, str]:
    """Parse and schema-validate a run config; returns (config, sha256 hex)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(config, {"problem", "experiment", "output"}, "config")
    problem = config.get("problem")
    if not isinstance(problem, dict):
        raise ConfigError("config needs a 'problem' object")
    _reject_unknown(problem, _PROBLEM_KEYS, "problem")
    if not isinstance(problem.get("N"), int) or problem["N"] < 2:
        raise ConfigError("problem.N must be an integer >= 2")
    experiment = config.get("experiment", {})
    if not isinstance(experiment, dict):
        raise ConfigError("'experiment' must be a JSON object")
    _reject_unknown(experiment, _EXPERIMENT_KEYS[command], f"experiment ({command})")
    if isinstance(experiment.get("residual"), dict):
        _reject_unknown(experiment["residual"], _RESIDUAL_KEYS, "experiment.residual")
    output = config.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("'output' must be a JSON object")
    _reject_unknown(output, {"dir"}, "output")
    return config, digest


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _require(experiment: dict, key: str, command: str):
    if key not in experiment:
        raise ConfigError(f"'{command}' requires experiment.{key}")
    return experiment[key]


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc


def _mode_index(spec) -> ModeIndex:
    if (not isinstance(spec, (list, tuple)) or len(spec) != 2
            or not all(isinstance(v, int) for v in spec)):
        raise ConfigError("experiment.mode must be a pair of integers [n, j]")
    try:
        return ModeIndex(spec[0], spec[1])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_eigensystem(problem: dict, count: int):
    """Angular eigensystem from the problem block of a run config."""
    N = problem["N"]
    a = problem.get("a", 0.0)
    magnetic = problem.get("magnetic")
    if N == 2:
        try:
            scalar = a if np.isscalar(a) else _fourier_dict(a)
            mag = _fourier_dict(magnetic) if magnetic else None
            truncation = problem.get("truncation", max(16, count + 4))
            prob = AngularProblem(N=2, scalar_coeff=scalar, magnetic_coeff=mag,
                                  truncation=truncation)
            return eigensolve(assemble_circle(prob), N=2)
        except AngularProblemError as exc:
            raise ConfigError(str(exc)) from exc
    if magnetic:
        raise ConfigError("magnetic coefficients are supported only for N=2")
    if not isinstance(a, (int, float)):
        raise ConfigError(f"N={N} runs take a constant scalar coefficient a")
    return constant_a_spectrum(N, float(a), count)


def _spectral_table(problem: dict, K: int):
    """Index table of the first K angular modes of the problem block."""
    eigsys = build_eigensystem(problem, K)
    if K > len(eigsys):
        raise ConfigError(f"mode {K} is past the {len(eigsys)} modes of the "
                          "angular truncation")
    return build_table(eigsys, problem["N"], K)


def _fourier_dict(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("Fourier coefficients must be an object {q: value}")
    out = {}
    for key, val in obj.items():
        try:
            q = int(key)
        except ValueError as exc:
            raise ConfigError(f"Fourier index {key!r} is not an integer") from exc
        if isinstance(val, (list, tuple)) and len(val) == 2:
            out[q] = complex(val[0], val[1])
        elif isinstance(val, (int, float)):
            out[q] = complex(val)
        else:
            raise ConfigError(f"Fourier coefficient for q={q} must be a number "
                              "or [re, im] pair")
    return out


# ---------------------------------------------------------------------------
# artifact writing

def _provenance(command: str, config_hash: str, params: dict) -> dict:
    return {
        "tool": "schroflow",
        "version": __version__,
        "command": command,
        "config_sha256": config_hash,
        "parameters": params,
    }


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, provenance: dict, extra_lines: list,
               columns: list, rows) -> None:
    lines = [f"# {provenance['tool']} {provenance['version']}",
             f"# command: {provenance['command']}",
             f"# config_sha256: {provenance['config_sha256']}"]
    for key in sorted(provenance["parameters"]):
        lines.append(f"# param {key}={_fmt(provenance['parameters'][key])}")
    lines.extend(f"# {text}" for text in extra_lines)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, provenance: dict, payload: dict) -> None:
    document = {"schema_version": SCHEMA_VERSION, "provenance": provenance}
    document.update(payload)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _check_expect(expect: dict, measured: dict) -> None:
    """Compare measured headline values against --expect tolerances.

    Each expectation is either {"name": value, "name_tol": tol} (|measured -
    value| <= tol) or {"name_max": bound} (measured <= bound).
    """
    for key, bound in expect.items():
        if key.endswith("_tol"):
            continue
        if key.endswith("_max"):
            name = key[:-4]
            if name not in measured:
                raise ConfigError(f"--expect names unknown quantity {name!r}")
            if not measured[name] <= bound:
                raise ExpectationMiss(
                    f"{name} = {measured[name]:.6g} exceeds bound {bound:.6g}")
        else:
            if key not in measured:
                raise ConfigError(f"--expect names unknown quantity {key!r}")
            tol = expect.get(key + "_tol", 0.0)
            if not abs(measured[key] - bound) <= tol:
                raise ExpectationMiss(
                    f"{key} = {measured[key]:.6g} outside {bound:.6g} +- {tol:.6g}")


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(config: dict, out_dir: str, expect: dict,
                 provenance: dict) -> int:
    experiment = config.get("experiment", {})
    K = experiment.get("K", 8)
    if not isinstance(K, int) or K < 1:
        raise ConfigError("experiment.K must be a positive integer")
    eigsys = build_eigensystem(config["problem"], K)
    K = min(K, len(eigsys))
    table = build_table(eigsys, config["problem"]["N"], K)
    provenance["parameters"].update({"K": K})
    rows = [(k,) + table.row(k) for k in range(1, K + 1)]
    _write_csv(os.path.join(out_dir, "spectrum.csv"), provenance,
               [f"classification: {table.decay_class}"],
               ["k", "mu", "alpha", "beta"], rows)
    print(f"classification: {table.decay_class}")
    measured = {"mu_1": table.row(1)[0], "alpha_1": table.row(1)[1],
                "beta_1": table.row(1)[2]}
    _check_expect(expect, measured)
    if not table.hardy_ok:
        print("Hardy condition violated: mu_1 <= -((N-2)/2)^2", file=sys.stderr)
        return EXIT_HARDY
    return EXIT_OK


def cmd_evolve(config: dict, out_dir: str, expect: dict,
               provenance: dict) -> int:
    problem = config["problem"]
    experiment = config.get("experiment", {})
    mode_idx = _mode_index(_require(experiment, "mode", "evolve"))
    t = _number(_require(experiment, "t", "evolve"), "experiment.t")
    route = experiment.get("route", "closed")
    if route not in ("closed", "kernel", "fd"):
        raise ConfigError(f"unknown route {route!r}; choose closed, kernel or fd")
    r_max = float(experiment.get("r_max", 30.0))
    provenance["parameters"].update({"mode": list((mode_idx.n, mode_idx.j)),
                                     "t": t, "route": route, "r_max": r_max})

    table = _spectral_table(problem, mode_idx.j)
    mode = make_mode(mode_idx, table)

    if route == "fd":
        M = int(experiment.get("fd_points", 12000))
        dt = float(experiment.get("dt", 1e-3))
        schema = RadialSchema(N=problem["N"], mu=table.row(mode_idx.j)[0],
                              R=r_max, M=M, dt=dt)
        grid, weights = schema.grid, np.full(M, schema.h)
        u = evolve_schrodinger(schema, mode.radial(grid), t)
        provenance["parameters"].update({"fd_points": M, "dt": dt})
    else:
        quad = RadialQuadrature(r_max,
                                int(experiment.get("quad_panels", 125)),
                                int(experiment.get("quad_nodes", 16)))
        grid, weights = quad.nodes, quad.weights
        if route == "closed":
            u = flow.evolve_mode_closed_form(mode, grid, t)
        else:
            state0 = flow.state_from_mode(mode, quad, table)
            spec = flow.KernelSpec(table=table)
            u = flow.propagate_representation(state0, t, spec).profiles[mode_idx.j]
        provenance["parameters"].update({"quad_panels": quad.panels,
                                         "quad_nodes": quad.nodes_per_panel})

    rows = [(t, r, v.real, v.imag) for r, v in zip(grid, u)]
    _write_csv(os.path.join(out_dir, "profiles.csv"), provenance, [],
               ["t", "r", "re_u", "im_u"], rows)

    summary = {"route": route, "t": t, "mode": [mode_idx.n, mode_idx.j]}
    measured = {}
    if route != "closed":
        lo, hi = experiment.get("window", (0.1, 8.0))
        mask = (grid >= lo) & (grid <= hi)
        u_ref = flow.evolve_mode_closed_form(mode, grid[mask], t)
        rel = flow.rel_l2_error(u[mask], u_ref, grid[mask], weights[mask], problem["N"])
        summary["rel_l2_vs_closed"] = rel
        summary["window"] = [float(lo), float(hi)]
        measured["rel_l2"] = rel
    _write_json(os.path.join(out_dir, "summary.json"), provenance, summary)
    _check_expect(expect, measured)
    return EXIT_OK


def cmd_decay(config: dict, out_dir: str, expect: dict,
              provenance: dict) -> int:
    problem = config["problem"]
    experiment = config.get("experiment", {})
    mode_idx = _mode_index(_require(experiment, "mode", "decay"))
    weight = float(experiment.get("weight", 0.0))
    window = experiment.get("window", (1e-3, 60.0))
    samples = int(experiment.get("samples", 4000))
    times_spec = experiment.get("times", {"lo_exp": 0, "hi_exp": 10})
    if isinstance(times_spec, dict):
        _reject_unknown(times_spec, {"lo_exp", "hi_exp"}, "experiment.times")
        times = flow.dyadic_times(int(times_spec.get("lo_exp", 0)),
                                  int(times_spec.get("hi_exp", 10)))
    else:
        times = np.asarray([float(t) for t in times_spec])
    provenance["parameters"].update({
        "mode": [mode_idx.n, mode_idx.j], "weight": weight,
        "window": [float(window[0]), float(window[1])],
        "times": [float(t) for t in times],
    })

    table = _spectral_table(problem, mode_idx.j)
    mode = make_mode(mode_idx, table)
    ang_sup = table.eigsys.sup_abs(mode_idx.j)

    pairs = []
    for t in times:
        sup = flow.weighted_sup_norm(
            lambda r, t=t: flow.evolve_mode_closed_form(mode, r, t),
            weight, window, samples=samples,
        ).combined * ang_sup
        pairs.append((float(t), sup))
    report = flow.decay_fit(pairs, weight_exponent=weight)

    _write_csv(os.path.join(out_dir, "samples.csv"), provenance, [],
               ["t", "weighted_sup"], pairs)
    payload = {"decay": report.to_dict(),
               "reference_slope": -problem["N"] / 2.0 + mode.alpha}
    _write_json(os.path.join(out_dir, "decay.json"), provenance, payload)
    _check_expect(expect, {"slope": report.fitted_slope,
                           "r_squared": report.r_squared})
    return EXIT_OK


def cmd_kernel(config: dict, out_dir: str, expect: dict,
               provenance: dict) -> int:
    problem = config["problem"]
    experiment = config.get("experiment", {})
    N = problem["N"]
    k_start = int(experiment.get("k_start", 1))
    K = int(_require(experiment, "K", "kernel"))
    path = experiment.get("path", "mode_sum")
    rho_spec = _require(experiment, "rho", "kernel")
    if isinstance(rho_spec, dict):
        _reject_unknown(rho_spec, {"lo", "hi", "n", "spacing"}, "experiment.rho")
        if "lo" not in rho_spec or "hi" not in rho_spec:
            raise ConfigError("experiment.rho needs both lo and hi")
        n = int(rho_spec.get("n", 0))
        if n < 1:
            raise ConfigError("experiment.rho.n must be >= 1")
        space = np.geomspace if rho_spec.get("spacing", "log") == "log" else np.linspace
        rhos = space(float(rho_spec["lo"]), float(rho_spec["hi"]), n)
    else:
        rhos = np.asarray([float(v) for v in rho_spec])
    if len(rhos) == 0:
        raise ConfigError("kernel sweep needs a non-empty rho grid")
    x_dir = _require(experiment, "x_dir", "kernel")
    y_dir = _require(experiment, "y_dir", "kernel")
    w_exp = float(experiment.get("weight_exponent", 0.0))
    provenance["parameters"].update({"k_start": k_start, "K": K, "path": path,
                                     "weight_exponent": w_exp})

    table = _spectral_table(problem, K)
    try:
        spec = flow.KernelSpec(table=table, k_start=k_start, path=path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    rows = []
    weighted_max = 0.0
    for rho in rhos:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AccuracyWarning)
            val = flow.kernel_eval(spec, x_dir, y_dir, float(rho))
        truncated = int(any(issubclass(w.category, AccuracyWarning) for w in caught))
        weighted = float(rho) ** w_exp * abs(val)
        weighted_max = max(weighted_max, weighted)
        scaled = (2.0 * math.pi) ** (N / 2.0) * abs(val)
        rows.append((float(rho), val.real, val.imag, weighted, scaled, truncated))
    _write_csv(os.path.join(out_dir, "kernel.csv"), provenance, [],
               ["rho", "re_K", "im_K", "weighted_modulus", "scaled_modulus",
                "truncation_warning"], rows)
    _check_expect(expect, {"weighted_modulus": weighted_max})
    return EXIT_OK


def cmd_heat(config: dict, out_dir: str, expect: dict,
             provenance: dict) -> int:
    problem = config["problem"]
    experiment = config.get("experiment", {})
    N = problem["N"]
    a = float(problem.get("a", 0.0))
    k = int(experiment.get("k", 1))
    t0 = float(experiment.get("t0", 1.0))
    t1 = float(experiment.get("t1", 2.0))
    if not 0 < t0 < t1:
        raise ConfigError("heat runs need 0 < t0 < t1")
    r_max = float(experiment.get("r_max", 30.0))
    M = int(experiment.get("fd_points", 6000))
    dt = float(experiment.get("dt", 1e-3))
    provenance["parameters"].update({"k": k, "t0": t0, "t1": t1,
                                     "r_max": r_max, "fd_points": M, "dt": dt})

    eigsys = constant_a_spectrum(N, a, k)
    table = build_table(eigsys, N, k)
    if not table.hardy_ok:
        print("Hardy condition violated: mu_1 <= -((N-2)/2)^2", file=sys.stderr)
        return EXIT_HARDY
    mu_k, alpha_k, _ = table.row(k)

    residual_opts = experiment.get("residual", {})
    residual = flow.heat_residual(
        N, a, k,
        r_window=tuple(residual_opts.get("r_window", (0.5, 5.0))),
        t_window=tuple(residual_opts.get("t_window", (1.0, 2.0))),
        dr=float(residual_opts.get("dr", 1.0 / 200.0)),
        dt=float(residual_opts.get("dt", 1e-4)),
    )

    schema = RadialSchema(N=N, mu=mu_k, R=r_max, M=M, dt=dt)
    grid = schema.grid
    v0 = flow.heat_self_similar(N, a, k, grid, t0).real
    v_fd = evolve_heat(schema, v0, t1 - t0)
    v_exact = flow.heat_self_similar(N, a, k, grid, t1).real
    half = (N - 1) / 2.0
    rel_l2 = float(np.linalg.norm(grid ** half * (v_fd - v_exact))
                   / np.linalg.norm(grid ** half * v_exact))

    # time exponent of r^{alpha_k} v at fixed r/sqrt(t): exactly -N/2 + alpha_k
    ratio = float(experiment.get("fit_ratio", 1.0))
    fit_times = experiment.get("fit_times")
    times = (np.asarray([float(t) for t in fit_times]) if fit_times
             else flow.dyadic_times(0, 10))
    pairs = [(float(t), float(abs(
        (ratio * math.sqrt(t)) ** alpha_k
        * flow.heat_self_similar(N, a, k, ratio * math.sqrt(t), t))))
        for t in times]
    report = flow.decay_fit(pairs, weight_exponent=alpha_k)

    rows = list(zip(grid, v0, v_fd, v_exact))
    _write_csv(os.path.join(out_dir, "heat.csv"), provenance, [],
               ["r", "v_initial", "v_fd", "v_exact"], rows)
    payload = {
        "residual_rel": residual,
        "stepper_rel_l2": rel_l2,
        "fitted_exponent": report.fitted_slope,
        "reference_exponent": -N / 2.0 + alpha_k,
        "fit": report.to_dict(),
    }
    if a == 0.0:
        free = t1 ** (-N / 2.0) * np.exp(-grid ** 2 / (4.0 * t1))
        payload["free_profile_dev"] = float(np.max(np.abs(v_exact - free)))
    _write_json(os.path.join(out_dir, "residual.json"), provenance, payload)
    _check_expect(expect, {"residual": residual, "rel_l2": rel_l2,
                           "exponent": report.fitted_slope})
    return EXIT_OK


def cmd_compare(config: dict, out_dir: str, expect: dict,
                provenance: dict) -> int:
    problem = config["problem"]
    experiment = config.get("experiment", {})
    a = problem.get("a", 0.0)
    if not isinstance(a, (int, float)):
        raise ConfigError("route comparison takes a constant scalar coefficient a")
    mode_idx = _mode_index(_require(experiment, "mode", "compare"))
    params = RouteParams(
        N=problem["N"], a=float(a),
        T=float(experiment.get("T", 1.0)),
        r_max=float(experiment.get("r_max", 30.0)),
        fd_points=int(experiment.get("fd_points", 12000)),
        dt=float(experiment.get("dt", 1e-3)),
        quad_panels=int(experiment.get("quad_panels", 256)),
        quad_nodes=int(experiment.get("quad_nodes", 8)),
        window=tuple(experiment.get("window", (0.1, 8.0))),
    )
    provenance["parameters"].update({
        "mode": [mode_idx.n, mode_idx.j], "T": params.T, "r_max": params.r_max,
        "fd_points": params.fd_points, "dt": params.dt,
        "window": list(params.window),
    })
    report = compare_routes(mode_idx, params)
    _write_json(os.path.join(out_dir, "compare.json"), provenance,
                {"comparison": report.to_dict()})
    if report.failures:
        for route, failure in sorted(report.failures.items()):
            print(f"route {route} failed: {failure}", file=sys.stderr)
        return EXIT_NUMERIC
    measured = {"l2_worst": max(report.l2_rel.values()),
                "sup_worst": max(report.sup_rel.values())}
    _check_expect(expect, measured)
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "decay": cmd_decay,
    "kernel": cmd_kernel,
    "heat": cmd_heat,
    "compare": cmd_compare,
}


# ---------------------------------------------------------------------------
# entry point

def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="schroflow",
        description="Spectral simulation of scaling-invariant Schrodinger and "
                    "heat flows: batch runs configured by JSON, emitting "
                    "CSV/JSON artifacts.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument("--expect", default=None,
                        help="JSON object of expected headline values; a miss "
                             "exits with code 4")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    try:
        config, digest = load_config(args.config, args.command)
        expect = {}
        if args.expect:
            try:
                expect = json.loads(args.expect)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--expect is not valid JSON: {exc}") from exc
            if not isinstance(expect, dict):
                raise ConfigError("--expect must be a JSON object")
        out_dir = args.out if args.out != "." else config.get("output", {}).get("dir", ".")
        os.makedirs(out_dir, exist_ok=True)
        provenance = _provenance(args.command, digest,
                                 dict(config.get("problem", {})))
        return _COMMANDS[args.command](config, out_dir, expect, provenance)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HardyViolation as exc:
        print(f"Hardy condition violated: {exc}", file=sys.stderr)
        return EXIT_HARDY
    except ExpectationMiss as exc:
        print(f"expectation miss: {exc}", file=sys.stderr)
        return EXIT_EXPECT
    except (EigensolveError, flow.ResolutionError, ArithmeticError,
            np.linalg.LinAlgError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
