"""Shared plumbing for the end-to-end benchmark.

Imports ``repro`` from the checkout's ``src/`` (never from an installed
copy), holds one workload run's result, and the statistics every
workload reports: percentiles with their sample count, peak RSS, and
the mapping from the benchmark's gated metric names to the per-workload
metric each one carries.
"""

from __future__ import annotations

import math
import os
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, ready files and span dumps (gitignored).
WORK_DIR = ROOT / ".e2ebench"

WORKLOADS = ("testgen", "grade", "serve")

#: Gated metric name -> the workload metric it carries, per workload.
#: ``BENCHMARK.json`` lists the gated names; every workload reports all
#: of them, so each name needs a meaning on every workload (README.md,
#: "Gated metrics").
GATED: Dict[str, Dict[str, str]] = {
    "setup_s": {w: "setup_s" for w in WORKLOADS},
    "peak_rss_mb": {w: "peak_rss_mb" for w in WORKLOADS},
    "throughput": {
        "testgen": "atpg_faults_per_s",
        "grade": "grade_fp_per_s",
        "serve": "serve_jobs_per_s",
    },
    "throughput_alt": {
        "testgen": "scan_faults_per_s",
        "grade": "grade_wide_fp_per_s",
        "serve": "serve_cold_per_s",
    },
    "quality": {
        "testgen": "atpg_coverage",
        "grade": "grade_coverage",
        "serve": "serve_coverage",
    },
    # serve's warm p50 is printed but not gated: it is latency-bound and
    # swung 0.25-0.45 IQR/median across seeds on a shared host
    # (README.md, "Gated metrics").
    "p50_ms": {
        "testgen": "atpg_op_p50_ms",
        "grade": "grade_op_p50_ms",
        "serve": "serve_cold_p50_ms",
    },
    "p50_alt_ms": {
        "testgen": "scan_op_p50_ms",
        "grade": "grade_wide_op_p50_ms",
        "serve": "serve_shared_p50_ms",
    },
}

GATED_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput": "1/s",
    "throughput_alt": "1/s",
    "quality": "fraction",
    "p50_ms": "ms",
    "p50_alt_ms": "ms",
}


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no program to measure)."""


def import_repro() -> Any:
    """Import ``repro`` from ``<checkout>/src``; refuse any other copy."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise BenchError(
            f"no repro package under {SRC}: run from a checkout that "
            "holds src/repro"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    loaded = Path(repro.__file__).resolve().parent
    if loaded != package.resolve():
        raise BenchError(f"imported repro from {loaded}, expected {package}")
    return repro


def derive_seed(*parts: Any) -> int:
    """A 31-bit seed that is a pure function of ``parts``."""
    return random.Random(":".join(str(p) for p in parts)).randrange(1 << 31)


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the checkout's src and this dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env.pop("PYTHONSTARTUP", None)
    return env


def peak_rss_mb() -> float:
    """Largest max-RSS of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def timed_median(setup: Callable[[], Any], trials: int) -> "tuple[float, Any]":
    """Run ``setup`` ``trials`` times; (median seconds, last result)."""
    durations = []
    result = None
    for _ in range(trials):
        start = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - start)
    return median(durations), result


@dataclass
class Metric:
    """One reported number with its unit and sample count."""

    value: float
    unit: str
    n: int


@dataclass
class Result:
    """Everything one workload run produced."""

    workload: str
    seed: int
    size: str
    rounds: int = 0
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: Counts that must repeat exactly for one seed (the determinism
    #: contract the benchmark's tests hold).
    counts: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Traced runs only: rendered per-layer table and per-layer metrics.
    layer_table: Optional[str] = None
    layer_metrics: Dict[str, Metric] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str, n: int) -> None:
        """Record one metric."""
        self.metrics[name] = Metric(float(value), unit, int(n))

    def fail(self, message: str) -> None:
        """Record one failed op or output check."""
        self.failures.append(message)

    @property
    def failed(self) -> int:
        """Failed ops and checks (each counts once)."""
        return len(self.failures)

    def gated(self) -> Dict[str, Metric]:
        """The gated metrics, under their ``BENCHMARK.json`` names.

        A metric the run could not measure (every op of its kind failed)
        is left out and counted as a failure.
        """
        gated = {}
        for name, by_workload in GATED.items():
            metric = self.metrics.get(by_workload[self.workload])
            if metric is None:
                self.fail(f"no {by_workload[self.workload]} measured")
                continue
            gated[name] = Metric(metric.value, GATED_UNITS[name], metric.n)
        return gated
