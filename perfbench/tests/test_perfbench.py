"""Self-tests of the benchmark code.

    python3 -m pytest perfbench/tests

The work-count test runs one traced job list per workload for two seeds
(about a minute on two cores).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from child import Client
from run import END_TO_END, HERE, ROOT, layer_metrics
from tracer import Tracer, summarize
from workloads import WORKLOADS, config_bytes, make_jobs

import schroflow.cli as cli
from schroflow import flow, specfun

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK_COUNTS = ("specfun.j_scaled.points", "flow.kernel_entries",
               "radialfd.cell_steps", "angular.eigensolve.dim")


def _configs(workload, seed):
    jobs, defects = make_jobs(workload, seed)
    return [config_bytes(job) for job in jobs + defects]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_configs(workload):
    assert _configs(workload, 7) == _configs(workload, 7)
    assert _configs(workload, 7) != _configs(workload, 8)


def _keys(obj):
    return {k: _keys(v) for k, v in obj.items()} if isinstance(obj, dict) else None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_varies_only_physics(workload):
    """Same jobs, config keys and sizes for every seed; only drawn values differ."""
    for ja, jb in zip(*(make_jobs(workload, seed)[0] for seed in (1, 2))):
        assert (ja["name"], ja["command"], _keys(ja["config"])) == \
            (jb["name"], jb["command"], _keys(jb["config"]))
        ea, eb = ja["config"]["experiment"], jb["config"]["experiment"]
        for key in ("K", "k_start", "path", "route", "times"):
            assert ea.get(key) == eb.get(key), (ja["name"], key)
        assert ea.get("rho", {}).get("n") == eb.get("rho", {}).get("n")
        assert (ja["config"]["problem"].get("truncation")
                == jb["config"]["problem"].get("truncation"))
        if ea.get("route") == "fd":
            assert ea["t"] == eb["t"]


def _traced_counts(workload, seed, tmp_path):
    jobs, _ = make_jobs(workload, seed)
    tmp_path.mkdir()
    for job in jobs:
        job["config_path"] = str(tmp_path / f"{job['name']}.json")
        job["out_dir"] = str(tmp_path / job["name"])
        Path(job["config_path"]).write_bytes(config_bytes(job))
    client = Client(jobs)
    tracer = Tracer()
    tracer.install()
    try:
        client.cycle()
    finally:
        tracer.uninstall()
    assert all(code == 0 for rec in client.records for code in rec["codes"])
    result = {"layers": [summarize(tracer.take())], "plain_cycles": [1.0],
              "cpu_cycles": [1.0], "traced_cycles": [1.0]}
    return layer_metrics(result, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_do_not_depend_on_seed(workload, tmp_path):
    m1 = _traced_counts(workload, 1, tmp_path / "s1")
    m2 = _traced_counts(workload, 2, tmp_path / "s2")
    for name in WORK_COUNTS:
        assert m1[name] == m2[name], name
    assert set(m1) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert m1[m["name"]][1] == m["unit"], m["name"]
    if workload != "fd_march":
        assert m1["radialfd.evolve.calls"][0] == 0
    if workload != "representation":
        assert m1["flow.propagate_representation.calls"][0] == 0
    if workload == "fd_march":
        assert m1["specfun.j_scaled.calls"][0] == 0


def test_tracer_wraps_names_callers_use_and_restores_them():
    originals = (flow.j_scaled, flow.legendre_p, cli.evolve_schrodinger, cli.evolve_heat)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(f, "__wrapped__", None) is o for f, o in zip(
            (flow.j_scaled, flow.legendre_p, cli.evolve_schrodinger, cli.evolve_heat),
            originals))
        flow.j_scaled(3, 0.0, [1.0, 2.0, 3.0])
    finally:
        tracer.uninstall()
    assert (flow.j_scaled, flow.legendre_p, cli.evolve_schrodinger,
            cli.evolve_heat) == originals
    assert specfun.j_scaled is originals[0]
    stats = summarize(tracer.take())
    assert stats["specfun.j_scaled"]["calls"] == 1
    assert stats["specfun.j_scaled"]["points"] == 3
    assert stats["specfun.bessel_j"]["busy_s"] <= stats["specfun.j_scaled"]["busy_s"]


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1, "j", None), ("b", 1.0, 4.0, 0, "j", None),
             ("a", 5.0, 7.0, 0, "j", None)]
    stats = summarize(spans)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["busy_s"] == 10.0          # the nested "a" is not counted twice
    assert stats["a"]["self_s"] == (10.0 - 5.0) + 2.0
    assert stats["b"]["self_s"] == 3.0


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END


def test_every_metric_prints_with_its_unit():
    """A short end-to-end run prints each metric as 'metric NAME = VALUE UNIT'
    and ends with the JSON summary."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "kernel_sweep",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["attempted"] >= 1
    printed = dict(re.findall(r"^metric (\S+) = \S+ (\S+)", proc.stdout, re.M))
    for name, unit in END_TO_END.items():
        assert printed[name] == unit
        assert summary["metrics"][name]["unit"] == unit
    assert "fail_ratio" in printed


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fd_march",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
