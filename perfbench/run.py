"""schroflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a schroflow source tree.  Generates the workload's job
configs from the seed, measures interpreter set-up time, runs the jobs in one
fresh child process with BLAS/OpenMP threads pinned, checks every job's
artifacts against an independent reference, prints every metric with its
unit and ends with one JSON line.  ``--trace 0`` reports end-to-end metrics;
``--trace 1`` reports per-layer metrics from a traced run.  Full results go
to ``.bench_out/`` in the tree.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREADS = 1            # fixed BLAS/OpenMP thread count, <= nproc everywhere
SETUP_REPEATS = 5
TIME_LIMIT_S = 170     # the whole run, child included, ends within this

sys.path.insert(0, str(HERE))
from reference import CHECKS  # noqa: E402
from workloads import WORKLOADS, config_bytes, make_jobs  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "accuracy_digits": "digits"}


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(result: dict, artifact_bytes: int) -> dict[str, tuple]:
    """Per-layer metrics of a traced run: counts per job list (identical for
    every list), times as the median over traced lists."""
    cycles = result["layers"]

    def stat(name, key):
        return [c.get(name, {}).get(key, 0) for c in cycles]

    def count(name, key="calls"):
        return stat(name, key)[0]

    def busy(*names, key="busy_s"):
        return _median([sum(vals) for vals in zip(*(stat(n, key) for n in names))])

    def rate(work, names):
        return _median([_ratio(w, b) for w, b in zip(
            [sum(v) for v in zip(*(stat(n, work) for n in names))],
            [sum(v) for v in zip(*(stat(n, "busy_s") for n in names))])])

    fd = ("radialfd.evolve_schrodinger", "radialfd.evolve_heat")
    m = {
        "specfun.j_scaled.calls": (count("specfun.j_scaled"), "count"),
        "specfun.j_scaled.points": (count("specfun.j_scaled", "points"), "count"),
        "specfun.j_scaled.busy_s": (busy("specfun.j_scaled"), "s"),
        "specfun.j_scaled.points_per_s": (rate("points", ["specfun.j_scaled"]), "1/s"),
    }
    for name in ("specfun.legendre_p", "specfun.sph_harm", "angular.angular_value"):
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
    for name in ("flow.kernel_eval", "flow.propagate_representation"):
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.self_s"] = (busy(name, key="self_s"), "s")
    m["flow.kernel_entries"] = (count("flow.propagate_representation", "entries"), "count")
    m["radialfd.evolve.calls"] = (sum(count(n) for n in fd), "count")
    m["radialfd.evolve.busy_s"] = (busy(*fd), "s")
    m["radialfd.steps"] = (sum(count(n, "steps") for n in fd), "count")
    m["radialfd.cell_steps"] = (sum(count(n, "cell_steps") for n in fd), "count")
    m["radialfd.cell_steps_per_s"] = (rate("cell_steps", fd), "1/s")
    m["angular.assemble_circle.busy_s"] = (busy("angular.assemble_circle"), "s")
    m["angular.eigensolve.busy_s"] = (busy("angular.eigensolve"), "s")
    m["angular.eigensolve.dim"] = (count("angular.eigensolve", "dim"), "count")
    m["oscillator.build_table.busy_s"] = (busy("oscillator.build_table"), "s")
    m["oscillator.make_mode.busy_s"] = (busy("oscillator.make_mode"), "s")
    m["quadrature.RadialQuadrature.calls"] = (count("quadrature.RadialQuadrature"), "count")
    for name in ("flow.evolve_mode_closed_form", "flow.weighted_sup_norm", "flow.heat_residual"):
        m[f"{name}.busy_s"] = (busy(name), "s")
    for layer in ("specfun", "angular", "oscillator", "quadrature", "flow", "radialfd", "cli"):
        names = sorted({n for c in cycles for n in c if n.split(".")[0] == layer})
        m[f"{layer}.self_s"] = (busy(*names, key="self_s") if names else 0.0, "s")
    m["cli.artifact_bytes"] = (artifact_bytes, "bytes")
    m["process.wall_s"] = (_median(result["plain_cycles"]), "s")
    m["process.cpu_s"] = (_median(result["cpu_cycles"]), "s")
    m["trace.wall_s"] = (_median(result["traced_cycles"]), "s")
    m["trace.overhead_s"] = (m["trace.wall_s"][0] - m["process.wall_s"][0], "s")
    m["trace.spans"] = (sum(s["calls"] for s in cycles[0].values()), "count")
    return m


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def measure_setup(env: dict) -> float:
    """Median wall time from a fresh interpreter to ``import schroflow.cli``.
    The median discounts the first import of a fresh tree, which also writes
    the bytecode cache."""
    argv = [sys.executable, "-c", "import schroflow.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str:
    """Commit of the tree, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check(job: dict) -> float:
    """Relative error of a job's artifacts; unreadable artifacts count as
    an infinite error."""
    try:
        return CHECKS[job["command"]](job["config"], Path(job["out_dir"]))
    except (OSError, ValueError, KeyError, IndexError):
        return math.inf


def verify(jobs: list[dict], records: list[dict]) -> list[dict]:
    """Check each job's artifacts; a job fails if any execution exited
    non-zero, its artifacts changed between executions, or its error against
    the reference exceeds its tolerance."""
    checks = []
    for job, rec in zip(jobs, records):
        runs = len(rec["codes"])
        entry = {"name": job["name"], "runs": runs, "error": None,
                 "failed_runs": sum(1 for c in rec["codes"] if c != 0),
                 "messages": list(rec["errors"])}
        if entry["failed_runs"] == 0:
            entry["error"] = check(job)
            if not entry["error"] <= job["tol"]:
                entry["messages"].append(
                    f"error {entry['error']:.3e} exceeds tolerance {job['tol']:.0e}")
                entry["failed_runs"] = runs
            if rec["nondeterministic"]:
                entry["messages"].append("artifacts differ between identical runs")
                entry["failed_runs"] = runs
        checks.append(entry)
    return checks


def parse_args(argv):
    parser = argparse.ArgumentParser(description="schroflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "schroflow" / "cli.py").is_file():
        print(f"perfbench: no schroflow sources under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return _run(args, tag, run_dir, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, tag: str, run_dir: Path, started: float) -> int:
    jobs, defects = make_jobs(args.workload, args.seed)
    for job in jobs + defects:
        job["config_path"] = str(run_dir / f"{job['name']}.json")
        job["out_dir"] = str(run_dir / job["name"])
        Path(job["config_path"]).write_bytes(config_bytes(job))
    env = child_env()
    setup_s = None if args.trace else measure_setup(env)

    plan_path, result_path = run_dir / "plan.json", run_dir / "result.json"
    spans_path = OUT / f"{tag}-spans.jsonl"
    plan_path.write_text(json.dumps({"jobs": jobs, "defects": defects, "trace": args.trace,
                                     "seconds": args.seconds, "spans_path": str(spans_path)}))
    timeout = TIME_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(plan_path),
                               str(result_path)], env=env, cwd=run_dir, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish within {timeout:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(proc.stdout, file=sys.stderr)
        print(f"perfbench: client exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    checks = verify(jobs, result["jobs"])
    attempted = sum(c["runs"] for c in checks)
    failed = sum(c["failed_runs"] for c in checks)
    errors = [c["error"] for c in checks if c["error"] is not None]
    correct = all(c["failed_runs"] == 0 for c in checks)
    for defect, job in zip(result["defects"], defects):
        if defect["code"] == 0:
            err = check(job)
            defect["error"] = f"now exits 0; error {err:.3e} against the reference"
            correct = correct and err <= job["tol"]

    artifact_bytes = sum(rec["artifact_bytes"] for rec in result["jobs"])
    if args.trace:
        metrics = layer_metrics(result, artifact_bytes)
    else:
        # the mean, not the median, of each job's executions: on a shared host
        # the speed flips between fast and slow phases within a run, and the
        # median jumps between the phases where the mean moves smoothly
        wall = sum(statistics.fmean(rec["walls"]) for rec in result["jobs"])
        worst = min(max(errors), 1.0) if errors else 1.0
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (result["maxrss_mb"], "MB"),
            "accuracy_digits": (-math.log10(max(worst, 1e-16)), "digits"),
        }
    environment = dict(result["environment"], nproc=os.cpu_count(), seed=args.seed,
                       threads={v: env[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
                       git_commit=git_commit())

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric fail_ratio = {_ratio(failed, attempted)!r} ratio "
          f"(jobs_failed = {failed}, jobs_attempted = {attempted})")
    for c in checks:
        status = "ok" if c["failed_runs"] == 0 else "FAILED"
        err = "n/a" if c["error"] is None else f"{c['error']:.3e}"
        print(f"job {c['name']}: {status}, runs {c['runs']}, rel_error {err}"
              + "".join(f"; {msg}" for msg in c["messages"]))
    for d in result["defects"]:
        print(f"known defect {d['name']}: exit {d['code']}: {d['error']}")
    for key, value in environment.items():
        print(f"env {key} = {value}")

    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, measured_s=result["measured_s"],
                  environment=environment, checks=checks,
                  defects=result["defects"],
                  jobs=[{k: rec[k] for k in ("name", "walls", "codes")}
                        for rec in result["jobs"]])
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
