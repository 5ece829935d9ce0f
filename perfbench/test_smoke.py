"""Smoke test of the session benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload on a one-location deployment, untraced twice and traced
once, and checks the metric tables against ``BENCHMARK.json``, the
correctness checks, and that two invocations with one seed agree exactly on
every simulated metric.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
HOST_METRICS = {"setup_s", "sessions_per_s", "session_ms"}


def _table(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


def test_metric_tables_match_benchmark_json():
    assert _table(SPEC["end_to_end"]) == list(bench.END_TO_END)
    assert _table(SPEC["per_layer"]) == list(bench.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_workload(name, tmp_path):
    workload = replace(bench.WORKLOADS[name], locations=1)
    seconds = workload.sweep_s  # the minimum: the seed sweep and one reference sweep
    sessions = workload.sweeps(seconds) * len(workload.schemes)
    first = bench.measure(workload, 3, seconds, False, tmp_path / "a")
    second = bench.measure(workload, 3, seconds, False, tmp_path / "b")
    for outcome in (first, second):
        assert outcome.correct, outcome.notes
        assert outcome.failed == 0
        assert outcome.attempted == sessions * workload.n_tags
        assert set(outcome.metrics) == {n for n, _, _ in bench.END_TO_END}
        assert all(v > 0 for v in outcome.metrics.values())
    for metric in set(first.metrics) - HOST_METRICS:
        assert first.metrics[metric] == second.metrics[metric], metric

    traced = bench.measure(workload, 3, seconds, True, tmp_path / "t")
    assert traced.correct, traced.notes
    assert traced.attempted == 2 * sessions * workload.n_tags
    assert set(traced.metrics) == {n for n, _, _ in bench.PER_LAYER}
    assert traced.metrics["engine.cache.warm_hit_frac"] == 1.0
    assert traced.metrics["trace.sessions"] == sessions
    if name == "multi-reader-handoff":
        assert traced.metrics["sensing.lp.calls"] == 0
        assert traced.metrics["sim.events"] > 0
    else:
        assert traced.metrics["sensing.lp.calls"] > 0


def test_run_refuses_without_program_source(tmp_path):
    """In a directory holding only the benchmark, the run fails without a result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ident-wall",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
