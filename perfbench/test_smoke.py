"""Smoke tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They run every workload on shortened streams, so they take a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tracing import span_stats  # noqa: E402
from truth import Truth, check_report, exact_hhh  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every end-to-end metric a run prints, listed or not in BENCHMARK.json.
PRINTED = ("throughput_pps", "batch_ms_p50", "batch_ms_p90", "query_ms_p50", "query_ms_p90",
           "final_query_ms", "setup_s", "peak_rss_mb", "precision", "recall", "failed_frac")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("name", [w["name"] for w in DEFINITION["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(name):
    completed = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                     "--smoke")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.strip()}
    for metric in PRINTED:
        value, unit = printed[metric]
        assert float(value) >= 0 and unit
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for entry in DEFINITION["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0


def _real_report():
    """A converged RHHH report, its truth and the gate's tolerances."""
    workload = workloads.WORKLOADS["flood"]
    keys = workloads.make_keys("flood", 5, workloads.CONVERGED)
    rig_workload = dataclasses.replace(workload, packets=len(keys), replay="keys")
    rig = workloads.build_rig(rig_workload, 5)
    try:
        rig.session.feed(keys)
        report = rig.session.output(workloads.THETA)
    finally:
        rig.close()
    hierarchy = rig.session.hierarchy
    truth = Truth(hierarchy, keys, workloads.THETA, exact_hhh(hierarchy, keys, workloads.THETA))
    tolerances = workloads.gate_tolerances(len(keys), hierarchy.size)
    return report, truth, tolerances, workload.must_report, hierarchy


def test_corrupted_report_trips_the_gate():
    report, truth, tolerances, must_report, hierarchy = _real_report()
    assert check_report(report, truth, must_report=must_report, **tolerances) == []

    victim = [c for c in report.candidates if str(c.prefix) == workloads.VICTIM_PREFIX]
    assert victim
    dropped = dataclasses.replace(
        report, candidates=[c for c in report.candidates if c not in victim])
    assert check_report(dropped, truth, must_report=must_report, **tolerances)

    # The victim prefix moved to a /24 no packet was sent to.
    node, (src, dst) = victim[0].prefix.key()
    moved = dataclasses.replace(victim[0], prefix=hierarchy.to_prefix((node, (src, dst ^ (1 << 30)))))
    assert truth.frequency(moved.prefix.key()) == 0
    corrupted = dataclasses.replace(
        report, candidates=[moved if c is victim[0] else c for c in report.candidates])
    assert check_report(corrupted, truth, **tolerances)

    inflated = dataclasses.replace(victim[0], lower_bound=victim[0].lower_bound * 10,
                                   upper_bound=victim[0].upper_bound * 10)
    corrupted = dataclasses.replace(
        report, candidates=[inflated if c is victim[0] else c for c in report.candidates])
    assert check_report(corrupted, truth, **tolerances)

    assert check_report(dataclasses.replace(report, candidates=[]), truth, **tolerances)
    assert check_report(dataclasses.replace(report, total=report.total + 1), truth, **tolerances)


def test_traced_run_writes_spans_with_nonnegative_self_times():
    completed = _run("--workload", "backbone", "--seed", "3", "--seconds", "1", "--trace", "1",
                     "--smoke")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert {entry["name"] for entry in DEFINITION["per_layer"]} == set(result["metrics"])
    assert result["metrics"]["counter.calls"]["value"] > 0
    assert result["metrics"]["trace.batches"]["value"] > 0
    span_file = next(line.split()[1] for line in lines if line.strip().startswith("span_file"))
    with np.load(span_file) as dumped:
        names = [str(name) for name in dumped["names"]]
        spans = {key: dumped[key] for key in ("name", "parent", "start", "end")}
    assert len(spans["start"]) > 0
    assert (spans["parent"] < np.arange(len(spans["parent"]))).all()
    stats = span_stats(names, spans)
    for label in ("session.feed_trace", "rhhh.update_batch", "counter.update", "trace.read",
                  "rhhh.output", "counter.bound"):
        assert stats[label]["calls"] > 0, label
    for label, figures in stats.items():
        assert figures["min_self_s"] >= 0.0, label


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "cache", "__pycache__"))
    completed = _run("--workload", "backbone", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
