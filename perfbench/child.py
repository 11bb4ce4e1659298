"""One workload's client: runs a job list in this fresh interpreter.

    python3 child.py PLAN_JSON RESULT_JSON

Each job is one ``schroflow.cli.main(argv)`` call, made in-process, one after
another (a closed loop with one client).  Untraced, jobs run round-robin until
the time budget would be exceeded, after at least one whole list.  Traced,
whole lists alternate untraced and traced, at least one of each, so the
tracing overhead is measured in the same process.  Known-defect jobs run
once at the end, untimed and untraced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import schroflow.cli as cli
from tracer import Tracer, summarize


def run_job(job: dict) -> dict:
    argv = [job["command"], "--config", job["config_path"], "--out", job["out_dir"]]
    sink_out, sink_err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            code = cli.main(argv)
    except SystemExit as exc:            # argparse rejects argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:             # an uncaught error is the CLI's exit 1
        code, error = 1, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if code != 0 and error is None:
        lines = sink_err.getvalue().strip().splitlines()
        error = lines[-1] if lines else f"exit code {code}"
    return {"wall": wall, "code": code, "error": error}


def artifacts(out_dir: str) -> tuple[str, int]:
    """sha256 over the job's artifacts and their total size in bytes."""
    digest, size = hashlib.sha256(), 0
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


class Client:
    def __init__(self, jobs: list[dict]):
        self.jobs = jobs
        self.records = [{"name": j["name"], "walls": [], "codes": [], "errors": [],
                         "sha256": None, "artifact_bytes": 0, "nondeterministic": False}
                        for j in jobs]

    def run(self, i: int) -> float:
        job, rec = self.jobs[i], self.records[i]
        res = run_job(job)
        rec["walls"].append(res["wall"])
        rec["codes"].append(res["code"])
        if res["error"] is not None and res["error"] not in rec["errors"]:
            rec["errors"].append(res["error"])
        if res["code"] == 0:
            sha, size = artifacts(job["out_dir"])
            if rec["sha256"] is None:
                rec["sha256"], rec["artifact_bytes"] = sha, size
            elif sha != rec["sha256"]:
                rec["nondeterministic"] = True
        return res["wall"]

    def cycle(self) -> float:
        """Run the whole list once; returns the sum of the job wall times."""
        return sum(self.run(i) for i in range(len(self.jobs)))


def run_untraced(client: Client, seconds: float) -> dict:
    start = time.perf_counter()
    client.cycle()
    i = 0
    while True:
        walls = client.records[i]["walls"]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
        client.run(i)
        i = (i + 1) % len(client.jobs)
    return {"measured_s": time.perf_counter() - start}


def run_traced(client: Client, seconds: float, spans_path: str) -> dict:
    tracer = Tracer()
    plain, traced, cpu, layers = [], [], [], []
    start = time.perf_counter()
    while not (plain and traced) or (
            time.perf_counter() - start + statistics.median(plain + traced) <= seconds):
        if len(plain) <= len(traced):
            cpu0 = time.process_time()
            plain.append(client.cycle())
            cpu.append(time.process_time() - cpu0)
            continue
        tracer.install()
        try:
            wall = 0.0
            for i, job in enumerate(client.jobs):
                tracer.job = f"{len(traced)}:{job['name']}"
                wall += client.run(i)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        traced.append(wall)
        layers.append(summarize(spans))
        if len(traced) == 1:
            with open(spans_path, "w") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
    return {"measured_s": time.perf_counter() - start, "plain_cycles": plain,
            "traced_cycles": traced, "cpu_cycles": cpu, "layers": layers}


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    client = Client(plan["jobs"])
    if plan["trace"]:
        result = run_traced(client, plan["seconds"], plan["spans_path"])
    else:
        result = run_untraced(client, plan["seconds"])
    result["jobs"] = client.records
    result["defects"] = [dict(run_job(job), name=job["name"]) for job in plan["defects"]]
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
