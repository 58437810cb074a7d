"""End-to-end, layer-attributed benchmark of the repro toolkit.

Usage::

    python3 e2ebench/run.py [--workload testgen|grade|serve|all]
                            [--seed N] [--seconds S] [--trace 0|1]
                            [--size full|tiny]

Runs the chosen workload (``all``: the three in turn, each in its own
process), checks every output, and prints each metric by name with its
unit and sample count.  With ``--trace 1`` it also prints the
per-layer table of the same rounds replayed under the tracer.
``--size tiny`` shrinks every input for a quick smoke run.  The last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the gated metrics of ``BENCHMARK.json``
untraced and its per-layer metrics traced (prefixed ``<workload>.``
for ``all``).  Exit status is 1 when any op or output check failed and
2 when the benchmark cannot run (e.g. no ``src/``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, List

from harness import WORKLOADS, BenchError, Metric, Result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> Result:
    """Run one workload and return its result."""
    if name == "serve":
        from serve import run_serve

        return run_serve(seed, seconds, trace, size)
    from inproc import run_grade, run_testgen

    runner = {"testgen": run_testgen, "grade": run_grade}[name]
    return runner(seed, seconds, trace, size)


def render(result: Result) -> List[str]:
    """Human-readable lines for one workload's result."""
    lines = [f"== {result.workload}  seed={result.seed} size={result.size} "
             f"rounds={result.rounds}"]
    for name, metric in result.metrics.items():
        lines.append(f"  {name:<26}{metric.value:>16.6g}  {metric.unit:<18}n={metric.n}")
    lines.append(f"  checks: {result.attempted} attempted, {result.failed} failed")
    lines.extend(f"  FAILED: {message}" for message in result.failures)
    if result.layer_table:
        lines.append(result.layer_table)
    return lines


def as_json(metrics: Dict[str, Metric]) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of the summary line."""
    return {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()}


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (so peak RSS and heap are its own)."""
    attempted = failed = 0
    metrics: Dict[str, Dict[str, object]] = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode == 2:
            return 2
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        summary = json.loads(lines[-1])
        attempted += summary["attempted"]
        failed += summary["failed"]
        metrics.update({f"{name}.{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


def main(argv: List[str]) -> int:
    """Parse arguments, run, print; returns the exit status."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    metrics = result.layer_metrics if args.trace else result.gated()
    print("\n".join(render(result)), flush=True)
    summary = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": as_json(metrics),
    }
    print(json.dumps(summary), flush=True)
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
