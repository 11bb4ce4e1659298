"""Seeded job lists for the benchmark workloads.

A job is one CLI invocation: a command, the config it reads and the
tolerance its output must meet against ``reference``.  Sizes are the CLI
defaults; the seed varies only physics inputs (the coefficient ``a`` within
its decay class, the mode, ``t``, kernel directions and the rho range).
Grid sizes, M, dt, T, K and the rho count are fixed, so every seed does the
same work.

Inputs are drawn by slot so that the cost and the worst-case error of a list
barely change with the seed: each slot keeps its decay class, its angular
degree block, its radial number n and its stratum of ``t`` in [1, 4].  The
loss-of-decay slots of degree 0, whose singular modes set a list's worst
error, draw ``a`` from a narrow band around the witness a = -3/16.
"""

from __future__ import annotations

import json
import math
import random

from reference import alpha_of, mu_sphere

WORKLOADS = ("representation", "fd_march", "kernel_sweep")

RHO_COUNT = 40
SPECTRUM_TRUNCATION = 200
SPECTRUM_K = 24

# first mode index and size of the N=3 degree blocks l = 0, 1, 2
_BLOCKS = {0: (1, 1), 1: (2, 3), 2: (5, 5)}


def _r(x: float) -> float:
    """Round a drawn value so configs stay short and print exactly."""
    return round(x, 6)


def _a(rng: random.Random, cls: str, l: int = 1) -> float:
    if cls == "loss":                             # -1/4 < a < 0
        return _r(rng.uniform(-0.19, -0.185) if l == 0 else rng.uniform(-0.24, -0.06))
    return _r(rng.uniform(0.0, 1.0))              # a >= 0


def _mode(rng: random.Random, l: int, n: int | None = None) -> list[int]:
    """(n, j) with j drawn from degree block l; n drawn from 0..2 unless given."""
    first, size = _BLOCKS[l]
    j = first + rng.randrange(size)
    return [rng.randrange(3) if n is None else n, j]


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    width = (hi - lo) / count
    return [_r(lo + width * (i + rng.random())) for i in range(count)]


def _direction(rng: random.Random) -> list[float]:
    """(theta, phi) uniform on the sphere."""
    return [_r(math.acos(rng.uniform(-1.0, 1.0))), _r(rng.uniform(0.0, 2.0 * math.pi))]


def _rho(rng: random.Random, lo: tuple, hi: tuple) -> dict:
    return {"lo": _r(rng.uniform(*lo)), "hi": _r(rng.uniform(*hi)), "n": RHO_COUNT}


def _job(name: str, command: str, problem: dict, experiment: dict, tol: float) -> dict:
    return {"name": name, "command": command, "tol": tol,
            "config": {"problem": problem, "experiment": experiment}}


def representation(rng: random.Random) -> list[dict]:
    """Representation-formula evolution on the 2000-node default quadrature."""
    ts = _strata(rng, 7, 1.0, 4.0)
    jobs = []
    for i, (cls, l, n) in enumerate([("loss", 0, 0), ("loss", 1, 1), ("loss", 2, 2),
                                     ("classical", 0, 1), ("classical", 1, 2),
                                     ("classical", 2, 0)]):
        jobs.append(_job(f"evolve_kernel_{cls}_l{l}", "evolve",
                         {"N": 3, "a": _a(rng, cls, l)},
                         {"mode": _mode(rng, l, n), "t": ts[i], "route": "kernel"}, 1e-6))
    jobs.append(_job("evolve_kernel_ab", "evolve",
                     {"N": 2, "a": _r(rng.uniform(0.0, 0.5)),
                      "magnetic": {"0": _r(rng.uniform(0.1, 0.4))}},
                     {"mode": [1, 1 + rng.randrange(4)], "t": ts[6],
                      "route": "kernel"}, 1e-6))
    return jobs


def fd_march(rng: random.Random) -> list[dict]:
    """Crank-Nicolson evolution (1000 steps at M=12000) and backward-Euler
    heat runs (1000 steps at M=6000)."""
    jobs = []
    for cls, l, n in [("loss", 0, 2), ("loss", 1, 1), ("classical", 0, 1), ("classical", 1, 0)]:
        jobs.append(_job(f"evolve_fd_{cls}_l{l}", "evolve",
                         {"N": 3, "a": _a(rng, cls, l)},
                         {"mode": _mode(rng, l, n), "t": 1.0, "route": "fd"}, 1e-2))
    for cls, l in [("loss", 0), ("loss", 1), ("classical", 0), ("classical", 1)]:
        first, size = _BLOCKS[l]
        jobs.append(_job(f"heat_{cls}_l{l}", "heat", {"N": 3, "a": _a(rng, cls, l)},
                         {"k": first + rng.randrange(size)}, 1e-2))
    return jobs


def kernel_sweep(rng: random.Random) -> list[dict]:
    """Many scalar kernel evaluations, decay fits and an N=2 magnetic
    spectrum at large truncation."""
    jobs = [
        _job("kernel_free_legendre", "kernel", {"N": 3, "a": 0.0},
             {"K": 3721, "path": "legendre_collapsed", "rho": _rho(rng, (0.1, 0.2), (16, 20)),
              "x_dir": _direction(rng), "y_dir": _direction(rng)}, 1e-8),
        _job("kernel_mode_sum", "kernel", {"N": 3, "a": _a(rng, "loss")},
             {"K": 169, "path": "mode_sum", "rho": _rho(rng, (0.1, 0.2), (4, 5)),
              "x_dir": _direction(rng), "y_dir": _direction(rng)}, 1e-10),
        _job("kernel_tail", "kernel", {"N": 3, "a": _a(rng, "classical")},
             {"K": 3721, "k_start": 2, "path": "legendre_collapsed",
              "rho": _rho(rng, (0.1, 0.2), (16, 20)),
              "x_dir": _direction(rng), "y_dir": _direction(rng)}, 1e-8),
    ]
    for cls in ("loss", "classical"):
        a = _a(rng, cls)
        mode = _mode(rng, 0 if cls == "loss" else 1)
        jobs.append(_job(f"decay_{cls}", "decay", {"N": 3, "a": a},
                         {"mode": mode, "weight": _r(alpha_of(3, mu_sphere(a, mode[1]))),
                          "times": {"lo_exp": 4, "hi_exp": 14}}, 1e-2))
    c, d = _r(rng.uniform(-0.3, 0.3)), _r(rng.uniform(-0.3, 0.3))
    jobs.append(_job("spectrum_magnetic", "spectrum",
                     {"N": 2, "a": _r(rng.uniform(0.0, 0.5)),
                      "magnetic": {"0": _r(rng.uniform(0.1, 0.4)), "1": [c, d], "-1": [c, -d]},
                      "truncation": SPECTRUM_TRUNCATION},
                     {"K": SPECTRUM_K}, 1e-9))
    return jobs


def known_defects(rng: random.Random) -> list[dict]:
    """Jobs that fail at the time the benchmark was written; they run once,
    untimed, and their outcome is reported beside the workload's result."""
    return [_job("kernel_n2_fourier", "kernel",
                 {"N": 2, "a": _r(rng.uniform(0.0, 0.5)),
                  "magnetic": {"0": _r(rng.uniform(0.1, 0.4))}},
                 {"K": 9, "rho": _rho(rng, (0.1, 0.2), (4, 5)),
                  "x_dir": _r(rng.uniform(0.0, 2.0 * math.pi)),
                  "y_dir": _r(rng.uniform(0.0, 2.0 * math.pi))}, 1e-10)]


_BUILDERS = {"representation": representation, "fd_march": fd_march,
             "kernel_sweep": kernel_sweep}


def make_jobs(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(timed jobs, known-defect jobs) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    defects = known_defects(rng) if workload == "kernel_sweep" else []
    return jobs, defects


def config_bytes(job: dict) -> bytes:
    return (json.dumps(job["config"], indent=1, sort_keys=True) + "\n").encode()
