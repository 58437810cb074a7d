"""The benchmark's own tests (tiny inputs; run with ``pytest e2ebench``).

* a tiny run of each workload prints every metric ``BENCHMARK.json``
  names, with its unit, traced and untraced;
* the same seed generates identical inputs (and another seed others);
* the same seed repeats every deterministic count exactly;
* without ``src/`` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import BENCH_DIR, GATED, ROOT
from layers import PER_LAYER

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(tmp_root / "e2ebench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["testgen", "grade", "serve"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_benchmark_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = summary["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    # The human report names each gated metric's source with unit and n.
    text = "\n".join(lines[:-1])
    for by_workload in GATED.values():
        assert f"  {by_workload[workload]} " in text
    if trace == "1":
        assert f"per-layer table: {workload}" in text
        assert "trace.unattributed_frac=" in text


def test_benchmark_json_lists_the_emitted_metrics():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _, _ in PER_LAYER]
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(GATED)
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["testgen", "grade", "serve"]


def test_same_seed_same_inputs():
    import inproc
    import serve

    for fn, args in (
        (inproc.testgen_inputs, ("full", 2)),
        (serve.round_plan, ("full", 2)),
        (serve.warm_set, ("full",)),
    ):
        assert fn(7, *args) == fn(7, *args)
        assert fn(7, *args) != fn(8, *args)
    circuits = inproc.build_grade("tiny", 7)["circuits"]
    first = inproc.grade_blocks(circuits, "tiny", 7, 1)
    assert first == inproc.grade_blocks(circuits, "tiny", 7, 1)
    assert first != inproc.grade_blocks(circuits, "tiny", 8, 1)


def _deterministic(result):
    counts = dict(result.counts)
    for name in ("atpg_coverage", "atpg_patterns", "grade_coverage", "serve_coverage"):
        if name in result.metrics:
            counts[name] = result.metrics[name].value
    for name, metric in result.layer_metrics.items():
        if name.startswith(("sim.wide.", "atpg.podem.decisions", "atpg.podem.backtracks",
                            "service.dedupe.")):
            counts[name] = metric.value
    return counts


@pytest.mark.parametrize("workload,trace", [
    ("testgen", False), ("grade", True), ("serve", False),
])
def test_same_seed_same_counts(workload, trace):
    from run import run_workload

    first = run_workload(workload, 5, 0.0, trace, "tiny")
    second = run_workload(workload, 5, 0.0, trace, "tiny")
    assert first.failed == 0 and second.failed == 0
    assert _deterministic(first) == _deterministic(second)
    if workload == "testgen":
        assert all(op[4] > 0 for op in first.counts["ops"] if op[0] == "atpg")
    if workload == "grade":
        assert first.layer_metrics["sim.wide.batches"].value > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "testgen", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
