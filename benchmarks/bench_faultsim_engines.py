"""Per-engine fault-simulation throughput, with cross-engine agreement.

Measures patterns/second for every combinational engine on the circuits
the paper argues about (the SN74181 ALU and random logic), and pins
three guarantees:

1. **Agreement** — all engines (serial, deductive, parallel-fault,
   parallel-pattern, wide) report the identical detected-fault set;
   any disagreement fails the run.
2. **Wide speedup** — the lane-batched wide engine (numpy backend) is
   at least 3x the compiled parallel-pattern engine on an
   ISCAS-85-scale circuit (r1908: ~880 gates, full collapsed fault
   list, 1024 patterns, no fault dropping).  Small workloads cannot
   amortize the fixed per-vector-op cost, which is why the gate runs
   the full-scale workload even under ``--quick``.
3. **Sharded exactness** — sharded multi-process sequential
   verification of the registered-74181 scan schedule produces the
   bit-identical coverage report as the single process.  The table
   prints each worker count's seconds and ratio; no speedup is
   required, because one lane-batched pass grades every fault of a
   shard, so shards split a pass instead of dividing per-fault work.

Measured speedups are additionally checked against the committed
baseline trajectory ``BENCH_faultsim_engines.json`` at the repo root
(schema ``repro.bench-trajectory/1``, see :mod:`repro.bench_trajectory`):
a figure more than the tolerance below its baseline fails the run, and
``--update-baseline`` rewrites the file (pushing the old figure onto
the entry's history).

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_faultsim_engines.py \
        [--quick] [--update-baseline]

or through pytest, which executes the quick configuration.
"""

import argparse
import os
import random
import sys

from conftest import print_table, run_with_manifest

from repro import bench_trajectory
from repro.circuits import (
    alu74181,
    iscas85_like,
    random_combinational,
    registered_alu74181,
)
from repro.faults import collapse_faults
from repro.faultsim import (
    Engine,
    FaultSimulator,
    SequentialFaultSimulator,
    ShardedFaultSimulator,
    WideFaultSimulator,
    create_simulator,
)
from repro.scan import insert_scan, sample_fault_list, schedule_scan_tests
from repro.atpg import generate_tests

MIN_WIDE_SPEEDUP = 3.0
SHARDED_WORKERS = 4

#: The wide-engine gate workload: ISCAS-85 scale, every collapsed
#: fault, enough patterns that both engines run at steady state.
WIDE_CIRCUIT = "r1908"
WIDE_PATTERNS = 1024

BASELINE_PATH = bench_trajectory.default_baseline_path(
    "faultsim_engines", start=os.path.dirname(os.path.abspath(__file__))
)


def _random_patterns(circuit, count, seed):
    rng = random.Random(seed)
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs}
        for _ in range(count)
    ]


def _manifest_run(name, circuit, simulator, patterns, **kwargs):
    """One measured engine run, reported through a run manifest.

    The patterns-simulated figure in the printed table comes from the
    manifest's telemetry counters — i.e. from what the engine actually
    did — not from the caller's workload description; a mismatch fails
    the benchmark.
    """
    report, manifest, elapsed = run_with_manifest(
        "bench.faultsim",
        circuit.name,
        name,
        lambda: simulator.run(patterns, **kwargs),
        method="throughput",
        limits={"patterns": len(patterns), **kwargs},
        stats={"detected": 0},  # patched below once the report exists
        phase_prefix="faultsim.",
    )
    manifest.stats["detected"] = len(report.first_detection)
    simulated = manifest.counters.get("faultsim.patterns_simulated", 0)
    if simulated != len(patterns):
        raise SystemExit(
            f"TELEMETRY MISMATCH on {circuit.name}/{name}: engine reported "
            f"{simulated} patterns simulated, workload had {len(patterns)}"
        )
    return report, manifest, elapsed


def agreement_table(circuit, patterns):
    """Run every engine on one workload; returns (rows, detected sets)."""
    faults = collapse_faults(circuit)
    rows = []
    detected = {}
    manifests = []

    def measure(name, simulator):
        report, manifest, elapsed = _manifest_run(
            name, circuit, simulator, patterns
        )
        detected[name] = frozenset(report.first_detection)
        manifests.append(manifest)
        rows.append(
            (
                name,
                manifest.counters["faultsim.patterns_simulated"],
                manifest.stats["detected"],
                f"{len(patterns) / elapsed:.0f}",
            )
        )

    for engine in Engine:
        measure(engine.value, create_simulator(circuit, engine, faults=faults))
    return rows, detected, manifests


def check_agreement(circuit, patterns):
    rows, detected, manifests = agreement_table(circuit, patterns)
    print_table(
        f"Engine agreement + throughput on {circuit.name}",
        ["engine", "patterns", "detected", "patterns/sec"],
        rows,
    )
    reference = detected["serial"]
    disagreeing = [
        name for name, found in detected.items() if found != reference
    ]
    if disagreeing:
        raise SystemExit(
            f"ENGINE DISAGREEMENT on {circuit.name}: {disagreeing} "
            f"differ from the serial reference"
        )
    print(f"all engines agree: {len(reference)} faults detected")
    return manifests


def measure_wide_speedup():
    """Wide (lane-batched) vs compiled parallel-pattern on ISCAS scale.

    Both engines run the identical workload at their shipped defaults:
    the full collapsed fault list of r1908 and the same random
    patterns, with ``drop_detected=False`` so every fault stays live
    through every batch and the ratio isolates the engines' cores.
    Detected-fault sets and first-detection indices must be identical
    — the wide engine's contract — before the speedup gate applies.
    """
    circuit = iscas85_like(WIDE_CIRCUIT)
    faults = collapse_faults(circuit)
    patterns = _random_patterns(circuit, WIDE_PATTERNS, seed=1908)

    wide = WideFaultSimulator(circuit, faults=faults, backend="numpy")
    ppsf = FaultSimulator(circuit, faults=faults)
    # Warm both at full width (compile cache, cone + union-cone caches,
    # allocator arenas) so timing measures steady state; a process's
    # very first full-width pass pays a large one-time heap-growth cost
    # that would otherwise swamp the measured ratio.
    wide.run(patterns, drop_detected=False)
    ppsf.run(patterns[:64])

    # Best-of-3 per engine, with the engines' runs interleaved: on
    # shared hardware the machine drifts by 30%+ on minute timescales,
    # so timing one engine's runs minutes after the other's skews the
    # ratio.  Interleaving samples both engines across the same drift
    # window, and taking each engine's best run (noise only ever adds
    # time) gives the least-noisy estimate of the steady-state ratio.
    report_wide = manifest_wide = None
    fast = slow = float("inf")
    for _ in range(3):
        report_w, manifest_w, elapsed = _manifest_run(
            "wide", circuit, wide, patterns, drop_detected=False
        )
        if manifest_w.counters.get("sim.compiled.compiles", 0):
            raise SystemExit("compile cache missed during the measured wide run")
        if elapsed < fast:
            report_wide, manifest_wide, fast = report_w, manifest_w, elapsed
        report_ppsf, _, elapsed = _manifest_run(
            "parallel_pattern", circuit, ppsf, patterns, drop_detected=False
        )
        slow = min(slow, elapsed)
    speedup = slow / fast
    print_table(
        f"Wide-engine speedup on {circuit.name} "
        f"({len(faults)} faults, {WIDE_PATTERNS} patterns, no dropping)",
        ["engine", "seconds", "patterns/sec", "speedup"],
        [
            (
                "parallel_pattern (compiled)",
                f"{slow:.3f}",
                f"{WIDE_PATTERNS / slow:.0f}",
                "1.0x",
            ),
            (
                f"wide ({wide.backend}, {manifest_wide.counters.get('sim.wide.batches', 0)} lane batches)",
                f"{fast:.3f}",
                f"{WIDE_PATTERNS / fast:.0f}",
                f"{speedup:.1f}x",
            ),
        ],
    )
    if report_wide.first_detection != report_ppsf.first_detection:
        raise SystemExit(
            f"ENGINE DISAGREEMENT: wide vs parallel_pattern on {circuit.name}"
        )
    if speedup < MIN_WIDE_SPEEDUP:
        raise SystemExit(
            f"wide speedup {speedup:.2f}x below the required "
            f"{MIN_WIDE_SPEEDUP}x"
        )
    workload = {
        "faults": len(faults),
        "patterns": WIDE_PATTERNS,
        "drop_detected": False,
        "backend": wide.backend,
    }
    return speedup, circuit.name, workload


def check_baseline(results, update):
    """Regression-check (or rewrite) the committed speedup trajectory.

    ``results`` rows are ``(label, circuit, workload, speedup,
    min_gate)``.  Without ``update`` every row must be at or above its
    committed baseline minus the tolerance — a missing file or label is
    itself a failure, so the trajectory can never silently fall out of
    date.  With ``update`` the file is rewritten and old figures move
    to each entry's history.
    """
    if update:
        if os.path.exists(BASELINE_PATH):
            data = bench_trajectory.load_trajectory(BASELINE_PATH)
        else:
            data = bench_trajectory.new_trajectory("faultsim_engines")
        for label, circuit, workload, speedup, min_gate in results:
            bench_trajectory.update_entry(
                data, label, circuit, workload, speedup, min_gate
            )
        bench_trajectory.save_trajectory(BASELINE_PATH, data)
        print(f"baseline updated: {BASELINE_PATH}")
        return
    if not os.path.exists(BASELINE_PATH):
        raise SystemExit(
            f"missing baseline trajectory {BASELINE_PATH}; run with "
            f"--update-baseline to record one"
        )
    data = bench_trajectory.load_trajectory(BASELINE_PATH)
    for label, _, _, speedup, _ in results:
        try:
            entry, floor = bench_trajectory.check_entry(data, label, speedup)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        print(
            f"baseline OK: {label} at {speedup:.2f}x "
            f"(committed {entry['speedup']:.2f}x, floor {floor:.2f}x)"
        )


def measure_sharded_sequential(quick):
    """Sharded vs single-process sequential verification (74181 workload).

    The workload is the scan flow's verifier on the registered 74181:
    sequentially fault-simulate the full shift/capture schedule, every
    fault of a shard in one lane-batched pass per clock.  Every sharded
    run must be bit-identical to the single-process report.  All printed
    numbers come from validated run manifests carrying the ``workers``
    section.
    """
    circuit = registered_alu74181()
    design = insert_scan(circuit)
    core_tests = generate_tests(
        circuit.combinational_core(), random_phase=32, seed=74181
    )
    schedule = schedule_scan_tests(design, core_tests.patterns)
    faults = sample_fault_list(
        collapse_faults(design.circuit), 96 if quick else 192, seed=0
    )

    def measure(workers):
        if workers == 1:
            simulator = SequentialFaultSimulator(design.circuit, faults=faults)
            runner = lambda: simulator.run(schedule)
            section = None
        else:
            simulator = ShardedFaultSimulator(
                design.circuit, "sequential", faults=faults, workers=workers
            )
            runner = lambda: simulator.run(schedule)
            section = simulator
        report, manifest, elapsed = run_with_manifest(
            "bench.faultsim.sharded",
            design.circuit.name,
            "sequential",
            runner,
            method="sequential-verify",
            limits={
                "workers": workers,
                "faults": len(faults),
                "cycles": len(schedule),
            },
            stats={"detected": 0},
        )
        manifest.stats["detected"] = len(report.first_detection)
        if section is not None:
            manifest.workers = section.workers_section()
        manifest.validate()
        return report, manifest, elapsed

    reference, _, single_s = measure(1)
    rows = [
        (
            "1 (single process)",
            len(faults),
            len(reference.first_detection),
            f"{single_s:.3f}",
            "1.0x",
        )
    ]
    speedups = {}
    for workers in (2, SHARDED_WORKERS) if not quick else (SHARDED_WORKERS,):
        report, manifest, elapsed = measure(workers)
        if report != reference:
            raise SystemExit(
                f"SHARDED MISMATCH with {workers} workers: merged report "
                f"differs from the single-process run"
            )
        speedups[workers] = single_s / elapsed
        rows.append(
            (
                f"{workers} ({manifest.workers['mode']}, "
                f"{len(manifest.workers['shards'])} shards)",
                len(faults),
                manifest.stats["detected"],
                f"{elapsed:.3f}",
                f"{speedups[workers]:.1f}x",
            )
        )
    print_table(
        f"Sharded sequential verification on {design.circuit.name} "
        f"({len(faults)} faults, {len(schedule)}-cycle scan schedule)",
        ["workers", "faults", "detected", "seconds", "speedup"],
        rows,
    )
    print("sharded reports bit-identical to single process: OK")
    return speedups[SHARDED_WORKERS]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: fewer patterns, same agreement + speedup gates",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the committed speedup trajectory "
        "(BENCH_faultsim_engines.json) from this run's figures",
    )
    args = parser.parse_args(argv)

    alu = alu74181()
    check_agreement(alu, _random_patterns(alu, 8 if args.quick else 32, seed=1))
    if not args.quick:
        rand = random_combinational(10, 120, seed=5)
        check_agreement(rand, _random_patterns(rand, 32, seed=2))

    wide_speedup, wide_circuit, wide_workload = measure_wide_speedup()
    print(
        f"OK: wide engine is {wide_speedup:.1f}x the compiled "
        f"parallel-pattern engine on {wide_circuit}"
    )
    check_baseline(
        [
            (
                "wide-vs-parallel-pattern",
                wide_circuit,
                wide_workload,
                wide_speedup,
                MIN_WIDE_SPEEDUP,
            ),
        ],
        args.update_baseline,
    )
    measure_sharded_sequential(args.quick)
    return 0


def test_engines_quick():
    """Pytest entry point: the quick benchmark must pass end to end."""
    assert main(["--quick"]) == 0


if __name__ == "__main__":
    sys.exit(main())
