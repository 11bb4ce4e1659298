"""Command-line front door.

JSON-configured batch runs of spectrum computation, mode evolution, kernel
evaluation, decay-exponent fitting, self-similar heat checks, and
cross-route comparison, emitting CSV/JSON artifacts for offline plotting.

Each command writes its artifacts and returns the headline values that
--expect can name.  ``main`` alone checks --expect and turns each outcome
into an exit code by the type of exception raised: 0 success, 2 config
error, 3 Hardy condition violated, 4 expectation miss (--expect), 5 numeric
failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys

import numpy as np
import orjson

from . import __version__, flow
from .angular import (AngularProblem, AngularProblemError, EigensolveError,
                      circle_eigensystem, constant_a_spectrum)
from .oscillator import (DECAY_INVALID, HardyViolation, ModeIndex, angular_indices,
                         build_table, make_mode)
# evolve_schrodinger is not called here; the perfbench self-tests check that
# its tracer rebinds cli.evolve_schrodinger
from .radialfd import (RadialSchema, evolve_heat, evolve_schrodinger,  # noqa: F401
                       step_count)

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
# configuration: one reader table per config block

_REQUIRED = object()
_CALLEE = object()


def _read(obj, table: dict, where: str) -> dict:
    """Read a JSON object by its table, which maps each allowed key to
    (reader, default).  A reader is a nested table, or a function of the value
    and its dotted location that converts it or raises ConfigError.  Defaults
    are read like given values; _REQUIRED keys must be given, and absent
    _CALLEE keys are left out, so the callee's default applies."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config root'} must be a JSON object")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'config'}: {', '.join(unknown)}")
    out = {}
    for key, (reader, default) in table.items():
        name = f"{where}.{key}" if where else key
        if key not in obj and default is _REQUIRED:
            raise ConfigError(f"{name} is required")
        if key in obj or default is not _CALLEE:
            value = obj.get(key, default)
            out[key] = (_read(value, reader, name) if isinstance(reader, dict)
                        else reader(value, name))
    return out


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _positive(value, where: str) -> float:
    value = _number(value, where)
    if not value > 0:
        raise ConfigError(f"{where} must be a positive number, got {value!r}")
    return value


def _nonnegative(value, where: str) -> float:
    value = _number(value, where)
    if not value >= 0:
        raise ConfigError(f"{where} must be a number >= 0, got {value!r}")
    return value


def _integer(least: int | None = None, most: int | None = None):
    def read(value, where: str) -> int:
        if (isinstance(value, bool) or not isinstance(value, int)
                or (least is not None and value < least)
                or (most is not None and value > most)):
            bound = (f" in [{least}, {most}]" if most is not None
                     else "" if least is None else f" >= {least}")
            raise ConfigError(f"{where} must be an integer{bound}, got {value!r}")
        return value
    return read


def _string(*options: str):
    """Reader of a string, one of ``options`` if any are given."""
    def read(value, where: str) -> str:
        if not isinstance(value, str) or (options and value not in options):
            kind = f"one of {', '.join(options)}" if options else "a string"
            raise ConfigError(f"{where} must be {kind}, got {value!r}")
        return value
    return read


def _list(item, *sizes: int):
    """Reader of a non-empty list of ``item`` values, of a length in ``sizes``."""
    def read(value, where: str) -> list:
        if not isinstance(value, list) or not value or (sizes and len(value) not in sizes):
            count = " or ".join(map(str, sizes)) or "one or more"
            raise ConfigError(f"{where} must be a list of {count} values, got {value!r}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return read


def _either(kind: type, reader, other=_number):
    """Reader of a ``kind`` JSON value by ``reader``, and of any other by ``other``."""
    def read(value, where: str):
        return (reader if isinstance(value, kind) else other)(value, where)
    return read


def _window(item):
    """Reader of a [lo, hi] pair of ``item`` values with lo < hi."""
    def read(value, where: str) -> list:
        lo, hi = _list(item, 2)(value, where)
        if not lo < hi:
            raise ConfigError(f"{where} must be [lo, hi] with lo < hi, got {value!r}")
        return [lo, hi]
    return read


def _fit_times(times, where: str):
    """Check that ``times`` are enough distinct times for flow.decay_fit."""
    if len(set(times)) != len(times) or len(times) < flow.MIN_FIT_SAMPLES:
        raise ConfigError(f"{where} must give at least {flow.MIN_FIT_SAMPLES} "
                          f"distinct times, got {len(times)} values")
    return times


_count = _integer(1)
# a radialfd.RadialSchema grid has at least three cells
_grid_points = _integer(3)
_pair = _list(_number, 2)
# a kernel direction is an angle for N=2, and [theta, phi] or a 3-vector for N=3
_direction = _either(list, _list(_number, 2, 3))


def _mode(value, where: str) -> ModeIndex:
    n, j = _list(_integer(0), 2)(value, where)
    return ModeIndex(n, _integer(1)(j, f"{where}[1]"))


def _fourier(value, where: str) -> dict:
    """Circle Fourier coefficients {q: number or [re, im]} as {q: complex}."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object {{q: value}}, got {value!r}")
    out = {}
    for key, val in value.items():
        try:
            q = int(key)
        except ValueError as exc:
            raise ConfigError(f"{where}: Fourier index {key!r} is not an integer") from exc
        if q in out:
            raise ConfigError(f"{where}: Fourier index {key!r} gives the index {q} again")
        out[q] = (complex(*_pair(val, f"{where}.{key}")) if isinstance(val, list)
                  else complex(_number(val, f"{where}.{key}")))
    return out


def _rho_range(value, where: str) -> np.ndarray:
    rho = _read(value, _RHO, where)
    return np.geomspace(rho["lo"], rho["hi"], rho["n"])


def _dyadic_times(value, where: str) -> np.ndarray:
    return _fit_times(flow.dyadic_times(**_read(value, _TIMES, where)), where)


def _time_list(value, where: str) -> list:
    return _fit_times(_list(_positive)(value, where), where)


# a is a constant, or Fourier coefficients for N=2
_PROBLEM = {"N": (_integer(2), _REQUIRED), "a": (_either(dict, _fourier), 0.0),
            "magnetic": (_fourier, _CALLEE), "truncation": (_integer(0), _CALLEE)}

_RHO = {"lo": (_positive, _REQUIRED), "hi": (_positive, _REQUIRED), "n": (_count, _REQUIRED)}

# flow.dyadic_times's keyword arguments; 2^511 is the largest dyadic time t
# whose 1 + t^2 in the closed form is finite, and the bound caps the count
_time_exponent = _integer(-511, 511)
_TIMES = {"lo_exp": (_time_exponent, _CALLEE), "hi_exp": (_time_exponent, _CALLEE)}

_OUTPUT = {"dir": (_string(), ".")}


# the experiment keys each evolve route reads besides mode, t and route; the
# closed route has nothing to measure, so it takes no window
_EVOLVE_ROUTE_KEYS = {"closed": ("r_max",),
                      "kernel": ("r_max", "window"),
                      "fd": ("r_max", "fd_points", "dt", "window")}


def _check_rules(command: str, problem: dict, experiment: dict, given: set) -> None:
    """Rules that tie keys together, checked once every key has been read;
    ``given`` holds the keys that the experiment block gives."""
    N = problem["N"]
    if N > 2 and ("magnetic" in problem or "truncation" in problem
                  or isinstance(problem["a"], dict)):
        raise ConfigError("magnetic, truncation and a Fourier-coefficient a are "
                          "supported only for N=2")
    if N < 3 and command in ("heat", "compare") or N > 3 and command in ("decay", "kernel"):
        raise ConfigError(f"'{command}' runs do not support N={N}")
    if command == "kernel":
        for key in ("x_dir", "y_dir"):
            if isinstance(experiment[key], list) != (N == 3) or experiment[key] == [0, 0, 0]:
                raise ConfigError(f"experiment.{key}: a kernel direction is an angle for "
                                  "N=2, and [theta, phi] or a nonzero 3-vector for N=3")
        # r^w |K| is infinite at r = 0 for w < 0
        if experiment["weight_exponent"] < 0 and 0 in experiment["rho"]:
            raise ConfigError("experiment.rho: a zero radius needs weight_exponent >= 0")
    if command == "heat" and not 0 < experiment["t0"] < experiment["t1"]:
        raise ConfigError("heat runs need 0 < t0 < t1")
    if command == "evolve":
        route = experiment["route"]
        unread = sorted(given - {"mode", "t", "route", *_EVOLVE_ROUTE_KEYS[route]})
        if unread:
            raise ConfigError(f"experiment: the {route} route does not read "
                              f"{', '.join(unread)}")
    if command == "evolve" and experiment["route"] == "kernel" and not experiment["t"] > 0:
        raise ConfigError("the kernel route needs t > 0")
    # finite differences march a whole number of steps dt
    if command == "evolve" and experiment["route"] == "fd":
        _whole_steps(experiment["t"], experiment["dt"], "experiment.t")
    if command == "heat":
        _whole_steps(experiment["t1"] - experiment["t0"], experiment["dt"],
                     "experiment.t1 - experiment.t0")
    if command == "compare":
        _whole_steps(experiment["T"], experiment["dt"], "experiment.T")


def _whole_steps(T: float, dt: float, where: str) -> None:
    try:
        step_count(T, dt)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _object(pairs: list) -> dict:
    """A JSON object from its (key, value) pairs; ``json`` keeps the last
    value of a key given twice, so that is a config error here."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"the key {key!r} is given twice in one JSON object")
        out[key] = value
    return out


def load_config(path: str, command: str) -> tuple[dict, dict]:
    """Read a run config; returns its read blocks and the run's provenance,
    which records the problem block as written."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        config = json.loads(raw, object_pairs_hook=_object)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    blocks = _read(config, {"problem": (_PROBLEM, _REQUIRED),
                            "experiment": (_COMMANDS[command][1], {}),
                            "output": (_OUTPUT, {})}, "")
    _check_rules(command, blocks["problem"], blocks["experiment"],
                 set(config.get("experiment", {})))
    provenance = {"tool": "schroflow", "version": __version__, "command": command,
                  "config_sha256": hashlib.sha256(raw).hexdigest(),
                  "parameters": dict(config["problem"])}
    return blocks, provenance


def build_eigensystem(problem: dict, count: int):
    """Angular eigensystem from the read problem block of a run config."""
    if problem["N"] > 2:
        return constant_a_spectrum(problem["N"], problem["a"], count)
    try:
        prob = AngularProblem(scalar_coeff=problem["a"],
                              magnetic_coeff=problem.get("magnetic"),
                              truncation=problem.get("truncation", max(16, count + 4)))
        return circle_eigensystem(prob, count=count)
    except AngularProblemError as exc:
        raise ConfigError(str(exc)) from exc


def _spectral_table(problem: dict, K: int):
    """Index table of the first K angular modes of the problem block;
    HardyViolation if the problem violates the Hardy condition."""
    eigsys = build_eigensystem(problem, K)
    if K > len(eigsys):
        raise ConfigError(f"mode {K} is past the {len(eigsys)} modes of the "
                          "angular truncation")
    return build_table(eigsys, K)


# ---------------------------------------------------------------------------
# artifact writing

def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_CSV_BLOCK = 2048

# orjson writes an exponent with no plus sign and no leading zero (e16, e-7)
_EXP_UNSIGNED = re.compile(rb"e(?=\d)")
_EXP_ONE_DIGIT = re.compile(rb"e-(?=\d(?!\d))")
# the dtype in which orjson prints an array of each kind
_BULK = {"f": np.float64, "i": np.int64, "u": np.uint64}


def _cells(column: np.ndarray) -> list[str]:
    """``_fmt`` of every value of a float or integer array.

    ``_fmt`` writes a number as ``repr``, Python's shortest round-trip
    digits for a float.  The array is printed by one ``orjson.dumps`` call,
    whose digits are the same, and its exponents are then spelt as ``repr``
    spells them (``e16`` as ``e+16``, ``e-7`` as ``e-07``).  The cells
    orjson spells otherwise are taken from ``repr``: |x| in [1e-5, 1e-4),
    which orjson writes in fixed notation, and nan and +-inf, which it
    writes as null.
    """
    x = np.ascontiguousarray(column, dtype=_BULK[column.dtype.kind])
    if not x.size:
        return []
    text = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    text = _EXP_ONE_DIGIT.sub(b"e-0", _EXP_UNSIGNED.sub(b"e+", text))
    cells = text.decode().split(",")
    size = np.abs(x)
    for i in np.flatnonzero(((size >= 1e-5) & (size < 1e-4)) | ~np.isfinite(x)).tolist():
        cells[i] = repr(float(x[i]))
    return cells


def _write_csv(path: str, provenance: dict, extra_lines: list, columns: dict) -> None:
    """Provenance header, then one CSV column per item of ``columns``
    (name -> float or integer array, or a scalar: the same value on every
    row, formatted once)."""
    lines = [f"# {provenance['tool']} {provenance['version']}",
             f"# command: {provenance['command']}",
             f"# config_sha256: {provenance['config_sha256']}"]
    for key in sorted(provenance["parameters"]):
        lines.append(f"# param {key}={_fmt(provenance['parameters'][key])}")
    lines.extend(f"# {text}" for text in extra_lines)
    lines.append(",".join(columns))
    constant = {name: _fmt(c) for name, c in columns.items() if np.ndim(c) == 0}
    rows = max((len(c) for name, c in columns.items() if name not in constant), default=0)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        # a block of rows at a time keeps the formatted text small
        for start in range(0, rows, _CSV_BLOCK):
            count = min(_CSV_BLOCK, rows - start)
            block = ([constant[name]] * count if name in constant
                     else _cells(c[start:start + _CSV_BLOCK]) for name, c in columns.items())
            fh.write("\n".join(map(",".join, zip(*block, strict=True))) + "\n")


def _write_json(path: str, provenance: dict, payload: dict) -> None:
    document = {"schema_version": SCHEMA_VERSION, "provenance": provenance}
    document.update(payload)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_expect(text: str | None) -> dict:
    """The --expect JSON object, every value a number.  A tolerance
    "name_tol" is >= 0 and needs its "name", a value to compare: alone, or
    beside a misspelt name, it would check nothing."""
    try:
        expect = json.loads(text or "{}", object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--expect is not valid JSON: {exc}") from exc
    if not isinstance(expect, dict):
        raise ConfigError("--expect must be a JSON object")
    expect = {key: _number(value, f"--expect {key}") for key, value in expect.items()}
    for key, tol in expect.items():
        if not key.endswith("_tol"):
            continue
        if key[:-4] not in expect:
            raise ConfigError(f"--expect {key} is the tolerance of {key[:-4]!r}, "
                              "which is not given")
        if not tol >= 0:
            raise ConfigError(f"--expect {key} must be >= 0, got {tol!r}")
    return expect


def _check_expect(expect: dict, measured: dict) -> None:
    """Compare measured headline values against --expect tolerances.

    Each expectation is either {"name": value, "name_tol": tol} (|measured -
    value| <= tol) or {"name_max": bound} (measured <= bound).  A miss
    prints every number by repr, then the size of the miss.
    """
    for key, bound in expect.items():
        if key.endswith("_tol"):
            continue
        if key.endswith("_max"):
            name = key[:-4]
            if name not in measured:
                raise ConfigError(f"--expect names unknown quantity {name!r}")
            value = float(measured[name])
            if not value <= bound:
                raise ExpectationMiss(
                    f"{name} = {value!r} exceeds bound {bound!r} by {value - bound!r}")
        else:
            if key not in measured:
                raise ConfigError(f"--expect names unknown quantity {key!r}")
            value = float(measured[key])
            tol = expect.get(key + "_tol", 0.0)
            if not abs(value - bound) <= tol:
                raise ExpectationMiss(f"{key} = {value!r} outside {bound!r} +- {tol!r}"
                                      f" by {abs(value - bound)!r}")


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(problem: dict, experiment: dict, out_dir: str, provenance: dict) -> dict:
    K = experiment["K"]
    eigsys = build_eigensystem(problem, K)
    K = min(K, len(eigsys))
    mu = np.asarray(eigsys.eigenvalues[:K], dtype=float)
    alpha, beta, decay_class = angular_indices(mu, problem["N"])
    provenance["parameters"].update({"K": K})
    _write_csv(os.path.join(out_dir, "spectrum.csv"), provenance,
               [f"classification: {decay_class}"],
               {"k": np.arange(1, K + 1), "mu": mu, "alpha": alpha, "beta": beta})
    print(f"classification: {decay_class}")
    # the one command that reports a problem with no spectral table: its
    # rows, beta_k clamped at 0, are written before the refusal
    if decay_class == DECAY_INVALID:
        raise HardyViolation()
    return {"mu_1": float(mu[0]), "alpha_1": float(alpha[0]), "beta_1": float(beta[0])}


def cmd_evolve(problem: dict, experiment: dict, out_dir: str, provenance: dict) -> dict:
    mode_idx, t, route = (experiment[key] for key in ("mode", "t", "route"))
    grid_keys = tuple(key for key in _EVOLVE_ROUTE_KEYS[route] if key != "window")
    provenance["parameters"].update({"mode": [mode_idx.n, mode_idx.j], "t": t,
                                     "route": route,
                                     **{key: experiment[key] for key in grid_keys}})

    table = _spectral_table(problem, mode_idx.j)
    mode = make_mode(mode_idx, table)
    grid, weights, u = flow.evolve_route(route, mode, table, t, **{
        key: experiment[key] for key in ("r_max", "fd_points", "dt")})

    summary = {"route": route, "t": t, "mode": [mode_idx.n, mode_idx.j]}
    measured = {}
    if "window" in _EVOLVE_ROUTE_KEYS[route]:
        window = experiment["window"]
        rel, _ = flow.window_errors(u, flow.evolve_mode_closed_form(mode, grid, t),
                                    grid, weights, problem["N"], window)
        summary.update({"rel_l2_vs_closed": rel, "window": window})
        measured["rel_l2"] = rel

    _write_csv(os.path.join(out_dir, "profiles.csv"), provenance, [],
               {"t": t, "r": grid, "re_u": u.real, "im_u": u.imag})
    _write_json(os.path.join(out_dir, "summary.json"), provenance, summary)
    return measured


# samples per closed-form call of decay: the default 11 times of 4000
# samples are one call, and 1023 times are 64 calls, not one (times,
# samples) array of 4 million samples and its temporaries
_DECAY_BLOCK = 2 ** 16


def cmd_decay(problem: dict, experiment: dict, out_dir: str, provenance: dict) -> dict:
    mode_idx, weight = experiment["mode"], experiment["weight"]
    window, times = experiment["window"], experiment["times"]
    provenance["parameters"].update({
        "mode": [mode_idx.n, mode_idx.j], "weight": weight,
        "window": list(window), "times": [float(t) for t in times],
    })

    table = _spectral_table(problem, mode_idx.j)
    mode = make_mode(mode_idx, table)
    ang_sup = table.eigsys.sup_abs(mode_idx.j)
    r = np.geomspace(*window, experiment["samples"])

    # the times as the rows of (times, samples) arrays of _DECAY_BLOCK samples at most
    rows = max(1, _DECAY_BLOCK // len(r))
    sups = []
    for start in range(0, len(times), rows):
        amp = flow.closed_form_amplitude(mode, r, times[start:start + rows])
        sups.append(flow.weighted_sup_norm(r, amp, weight))
    t, weighted_sup = np.asarray(times, dtype=float), np.concatenate(sups) * ang_sup
    fit = flow.decay_fit(zip(t, weighted_sup))

    _write_csv(os.path.join(out_dir, "samples.csv"), provenance, [],
               {"t": t, "weighted_sup": weighted_sup})
    payload = {"decay": {**fit, "weight_exponent": weight},
               "reference_slope": -problem["N"] / 2.0 + mode.alpha}
    _write_json(os.path.join(out_dir, "decay.json"), provenance, payload)
    return {"slope": fit["fitted_slope"], "r_squared": fit["r_squared"]}


def cmd_kernel(problem: dict, experiment: dict, out_dir: str, provenance: dict) -> dict:
    w_exp = experiment["weight_exponent"]
    table = _spectral_table(problem, experiment["K"])
    try:
        spec = flow.KernelSpec(table=table, **{
            key: experiment[key] for key in ("k_start", "path") if key in experiment})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    provenance["parameters"].update({"k_start": spec.k_start, "K": experiment["K"],
                                     "path": spec.path, "weight_exponent": w_exp})
    rho = np.asarray(experiment["rho"], dtype=float)
    # j_{-alpha}(rho) is unbounded at rho = 0 for alpha > 0
    alpha_max = float(np.max(table.alpha[spec.k_start - 1:]))
    if alpha_max > 0 and np.any(rho == 0):
        raise ConfigError(f"experiment.rho: rho = 0 needs alpha_k <= 0 for every mode "
                          f"k_start..K of the series, got alpha_k = {alpha_max!r}")
    values, tail = flow.kernel_eval(spec, experiment["x_dir"], experiment["y_dir"], rho)
    modulus = np.abs(values)
    weighted = flow.weighted_modulus(rho, modulus, w_exp)
    if not np.all(np.isfinite(weighted)):
        raise FloatingPointError(
            f"the weighted modulus rho^w |K| (w = {w_exp!r}) is not finite at "
            f"rho = {float(rho[~np.isfinite(weighted)][0])!r}")
    _write_csv(os.path.join(out_dir, "kernel.csv"), provenance, [], {
        "rho": rho, "re_K": values.real, "im_K": values.imag,
        "weighted_modulus": weighted,
        "scaled_modulus": (2.0 * math.pi) ** (problem["N"] / 2.0) * modulus,
        "truncation_warning": (tail > flow.TAIL_THRESHOLD).astype(int)})
    return {"weighted_modulus": float(np.max(weighted))}


def cmd_heat(problem: dict, experiment: dict, out_dir: str, provenance: dict) -> dict:
    N, k = problem["N"], experiment["k"]
    t0, t1 = experiment["t0"], experiment["t1"]
    provenance["parameters"].update(
        {key: experiment[key] for key in ("k", "t0", "t1", "r_max", "fd_points", "dt")})

    mu_k, alpha_k, _ = _spectral_table(problem, k).row(k)

    residual = flow.heat_residual(N, mu_k, alpha_k)

    # backward Euler's error is a series in dt: Richardson's extrapolation
    # 2 v_{dt/2} - v_dt of marches with steps dt and dt/2 cancels its leading term
    coarse, fine = (RadialSchema(N=N, alpha=alpha_k, R=experiment["r_max"],
                                 M=experiment["fd_points"], dt=dt)
                    for dt in (experiment["dt"], experiment["dt"] / 2.0))
    grid = coarse.grid
    v0 = flow.heat_self_similar(N, alpha_k, grid, t0)
    v_fd = 2.0 * evolve_heat(fine, v0, t1 - t0) - evolve_heat(coarse, v0, t1 - t0)
    v_exact = flow.heat_self_similar(N, alpha_k, grid, t1)
    half = (N - 1) / 2.0
    rel_l2 = flow.relative_error(np.linalg.norm(grid ** half * (v_fd - v_exact)),
                                 np.linalg.norm(grid ** half * v_exact))

    # time exponent of r^{alpha_k} v at r = sqrt(t): exactly -N/2 + alpha_k
    times = experiment.get("fit_times", flow.dyadic_times())
    pairs = [(float(t), float(abs(
        math.sqrt(t) ** alpha_k * flow.heat_self_similar(N, alpha_k, math.sqrt(t), t))))
        for t in times]
    fit = flow.decay_fit(pairs)

    _write_csv(os.path.join(out_dir, "heat.csv"), provenance, [],
               {"r": grid, "v_initial": v0, "v_fd": v_fd, "v_exact": v_exact})
    payload = {
        "residual_rel": residual,
        "stepper_rel_l2": rel_l2,
        "fitted_exponent": fit["fitted_slope"],
        "reference_exponent": -N / 2.0 + alpha_k,
        "fit": {**fit, "weight_exponent": alpha_k},
    }
    _write_json(os.path.join(out_dir, "residual.json"), provenance, payload)
    return {"residual": residual, "rel_l2": rel_l2, "exponent": fit["fitted_slope"]}


def cmd_compare(problem: dict, experiment: dict, out_dir: str, provenance: dict) -> dict:
    mode_idx = experiment["mode"]
    route_keys = ("T", "r_max", "fd_points", "dt", "window")
    provenance["parameters"].update({"mode": [mode_idx.n, mode_idx.j],
                                     **{key: experiment[key] for key in route_keys}})

    table = _spectral_table(problem, mode_idx.j)
    mode = make_mode(mode_idx, table)
    report = flow.compare_routes(mode, table, *(experiment[key] for key in route_keys))
    _write_json(os.path.join(out_dir, "compare.json"), provenance, {"comparison": report})
    if report["failures"]:
        for route, failure in sorted(report["failures"].items()):
            print(f"route {route} failed: {failure}", file=sys.stderr)
        raise ArithmeticError(f"failed routes: {', '.join(sorted(report['failures']))}")
    return {"l2_worst": max(report["l2_rel"].values()),
            "sup_worst": max(report["sup_rel"].values())}


# the cells every finite-difference march defaults to, and the time steps:
# the fd route extrapolates in space from these cells and 3x as many and
# steps with the order-24 Pade (12,12) at _FD_DT; heat extrapolates its
# backward Euler in time from _HEAT_DT and _HEAT_DT/2.  Heat's error is then
# partly space error: 1.0e-5 on the loss mode, where 6000 cells read 4.1e-6
_FD_POINTS, _FD_DT, _HEAT_DT = 1500, 0.25, 1e-2

# each command with the reader table of its experiment block
_COMMANDS = {
    "spectrum": (cmd_spectrum, {"K": (_count, 8)}),
    "evolve": (cmd_evolve, {
        "mode": (_mode, _REQUIRED), "t": (_number, _REQUIRED),
        "route": (_string(*flow.ROUTES), "closed"),
        "r_max": (_positive, 30.0), "fd_points": (_grid_points, _FD_POINTS),
        "dt": (_positive, _FD_DT), "window": (_window(_number), [0.1, 8.0])}),
    "decay": (cmd_decay, {
        "mode": (_mode, _REQUIRED), "weight": (_number, 0.0),
        "times": (_either(dict, _dyadic_times, _time_list), {}),
        "window": (_window(_positive), [1e-3, 60.0]), "samples": (_count, 4000)}),
    # k_start and path are KernelSpec fields
    "kernel": (cmd_kernel, {
        "K": (_count, _REQUIRED), "k_start": (_count, _CALLEE),
        "path": (_string(), _CALLEE),
        "rho": (_either(dict, _rho_range, _list(_nonnegative)), _REQUIRED),
        "x_dir": (_direction, _REQUIRED), "y_dir": (_direction, _REQUIRED),
        "weight_exponent": (_number, 0.0)}),
    "heat": (cmd_heat, {
        "k": (_count, 1), "t0": (_number, 1.0), "t1": (_number, 2.0),
        "r_max": (_positive, 30.0), "fd_points": (_grid_points, _FD_POINTS),
        "dt": (_positive, _HEAT_DT), "fit_times": (_time_list, _CALLEE)}),
    "compare": (cmd_compare, {
        "mode": (_mode, _REQUIRED), "T": (_positive, 1.0),
        "r_max": (_positive, 30.0), "fd_points": (_grid_points, _FD_POINTS),
        "dt": (_positive, _FD_DT), "window": (_window(_number), [0.1, 8.0])}),
}


# ---------------------------------------------------------------------------
# entry point

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call of a process and
    reused by every later one: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="schroflow",
        description="Spectral simulation of scaling-invariant Schrodinger and "
                    "heat flows: batch runs configured by JSON, emitting "
                    "CSV/JSON artifacts.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None,
                        help="output directory (default: output.dir of the "
                             "config, else cwd)")
    parser.add_argument("--expect", default=None,
                        help="JSON object of expected headline values; a miss "
                             "exits with code 4")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv if argv is not None else sys.argv[1:])
    try:
        config, provenance = load_config(args.config, args.command)
        expect = _read_expect(args.expect)
        out_dir = args.out if args.out is not None else config["output"]["dir"]
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}") from exc
        _check_expect(expect, _COMMANDS[args.command][0](
            config["problem"], config["experiment"], out_dir, provenance))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except flow.WindowError as exc:
        print(f"config error: experiment.window: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HardyViolation as exc:
        print(f"Hardy condition violated: {exc}", file=sys.stderr)
        return EXIT_HARDY
    except ExpectationMiss as exc:
        print(f"expectation miss: {exc}", file=sys.stderr)
        return EXIT_EXPECT
    except (EigensolveError, ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
