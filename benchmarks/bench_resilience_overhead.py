"""Cost of supervision: the resilience layer's overhead when nothing fails.

Fault tolerance is only free-standing infrastructure if a *healthy* run
barely pays for it.  This benchmark measures sharded fault simulation
three ways: the compiled parallel-pattern engine grading a seeded block
of random patterns against every collapsed fault of the ISCAS-85-scale
``r1908`` (256 patterns under ``--quick``, 2048 otherwise):

1. **unsupervised baseline** — the in-process shard/merge path
   (``workers=1, shards=4``: same shard bookkeeping, no fork, no
   supervisor);
2. **supervised, quiet** — the full fork-based supervisor with retries
   armed and a timeout set, but no chaos: the fault-free steady state;
3. **supervised, under fire** — the same pool with the chaos harness
   crashing every worker's first attempt, measuring what healing
   actually costs.

An untimed single-engine run first builds the circuit's cone caches,
which fork workers inherit, so every variant grades from the same warm
start; its report is the reference.

Assertions pin behaviour, not absolute timings:

* all three coverage reports are **bit-identical** to the reference;
* the chaotic run heals completely (a permanent failure would raise;
  crash and retry counters match the shard count);
* supervision bookkeeping overhead stays within ``MAX_OVERHEAD`` of the
  baseline *when the machine has enough CPUs to actually parallelize*
  (with >= ``WORKERS`` CPUs the supervised run is usually *faster*;
  on smaller machines the table still prints and exactness is still
  enforced, but the wall-clock gate is skipped).

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_resilience_overhead.py [--quick]

or through pytest, which executes the quick configuration.
"""

import argparse
import os
import sys

from conftest import print_table, run_with_manifest

from repro.atpg import random_patterns
from repro.circuits import iscas85_like
from repro.exec import ForkBackend
from repro.faultsim import ShardedFaultSimulator, create_simulator
from repro.resilience import ChaosConfig, RetryPolicy, SupervisionPolicy

WORKERS = 4
ENGINE = "parallel_pattern"
#: A quiet supervised run may cost at most this multiple of the
#: unsupervised in-process baseline (only gated with enough CPUs).
MAX_OVERHEAD = 1.5


def available_cpus():
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_workload(quick):
    """``r1908``, a seeded pattern block, and the warm reference report."""
    circuit = iscas85_like("r1908")
    patterns = random_patterns(circuit, 256 if quick else 2048, seed=0)
    reference = create_simulator(circuit, ENGINE).run(patterns)
    return circuit, patterns, reference


def run_variant(circuit, patterns, label, **kwargs):
    simulator = ShardedFaultSimulator(circuit, ENGINE, **kwargs)
    report, manifest, elapsed = run_with_manifest(
        "bench.resilience_overhead",
        circuit.name,
        ENGINE,
        lambda: simulator.run(patterns),
        method=label,
        limits={k: str(v) for k, v in kwargs.items() if k != "chaos"},
    )
    return report, simulator, elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if not ForkBackend.available():
        print("fork unavailable on this platform; nothing to supervise")
        return

    circuit, patterns, reference = build_workload(args.quick)
    supervision = SupervisionPolicy(
        timeout_s=120.0, retry=RetryPolicy(max_retries=2, base_delay_s=0.01)
    )

    baseline, _, base_s = run_variant(
        circuit, patterns, "unsupervised", workers=1, shards=WORKERS
    )
    quiet, quiet_sim, quiet_s = run_variant(
        circuit, patterns, "supervised-quiet",
        workers=WORKERS, supervision=supervision,
    )
    chaotic, chaos_sim, chaos_s = run_variant(
        circuit, patterns, "supervised-chaos",
        workers=WORKERS, supervision=supervision,
        chaos=ChaosConfig(seed=0, crash_rate=1.0),
    )

    rows = [
        ("unsupervised (in-process)", f"{base_s:.3f}", "1.00x", "-", "-"),
        (
            "supervised, quiet",
            f"{quiet_s:.3f}",
            f"{quiet_s / base_s:.2f}x",
            quiet_sim.stats["supervision"]["crashes"],
            quiet_sim.stats["supervision"]["retries"],
        ),
        (
            "supervised, under fire",
            f"{chaos_s:.3f}",
            f"{chaos_s / base_s:.2f}x",
            chaos_sim.stats["supervision"]["crashes"],
            chaos_sim.stats["supervision"]["retries"],
        ),
    ]
    print_table(
        f"Supervision overhead ({circuit.name}, {ENGINE}, "
        f"{len(reference.faults)} faults, {len(patterns)} patterns, "
        f"{WORKERS} workers)",
        ("variant", "seconds", "vs baseline", "crashes", "retries"),
        rows,
    )

    # Exactness: sharding, supervision and healed chaos never change
    # the report.
    assert baseline == reference, "in-process shards diverged from one engine"
    assert quiet == baseline, "supervised run diverged from baseline"
    assert chaotic == baseline, "chaotic run diverged from baseline"
    # The chaos actually fired and was fully healed.
    shard_count = len(chaos_sim.stats["shards"]) or WORKERS
    assert chaos_sim.stats["supervision"]["crashes"] >= shard_count - 1
    assert quiet_sim.stats["supervision"]["crashes"] == 0

    cpus = available_cpus()
    if cpus >= WORKERS:
        overhead = quiet_s / base_s
        assert overhead <= MAX_OVERHEAD, (
            f"quiet supervision cost {overhead:.2f}x the in-process "
            f"baseline (budget {MAX_OVERHEAD}x)"
        )
        print(f"quiet supervision overhead {overhead:.2f}x "
              f"(budget {MAX_OVERHEAD}x) OK")
    else:
        print(f"only {cpus} CPUs; wall-clock gate skipped "
              f"(needs >= {WORKERS})")


def test_resilience_overhead():
    main(["--quick"])


if __name__ == "__main__":
    main(sys.argv[1:])
