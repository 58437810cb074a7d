"""Quickstart: faults, test generation, and fault simulation in 30 lines.

Run:  python examples/quickstart.py [--manifest-out manifest.json]
                                    [--workers N] [--store DIR]

With ``--manifest-out`` the ATPG run's manifest (seed, engine, limits,
per-phase stats, final coverage — see ``repro.telemetry.RunManifest``)
is written as JSON; CI runs this and validates the file against the
manifest schema.  ``--workers N`` shards the flow's fault-simulation
passes across N processes — the result is bit-identical, and the
manifest gains a ``workers`` section CI also validates.

``--store DIR`` memoizes the ATPG run through the content-addressed
result store (``repro.store``): the first invocation computes and
persists the result, a second invocation with the same DIR serves it
straight from disk (zero ATPG/fault-simulation work) and the printed
``store.hit``/``store.miss`` counters show which path ran.

``--chaos`` (with ``--workers >= 2``) turns the run into a live demo of
the resilience layer (``repro.resilience``): every worker's first
attempt is crashed deliberately, the supervisor retries, and the run
must still finish with the bit-identical result and a failure-free
manifest — CI asserts exactly that.

``--fault-model MODEL`` switches the graded fault universe
(``stuck_at`` default, ``bridging``, ``transition``,
``cmos_stuck_open``): non-stuck-at models reduce to a composite
circuit plus stuck-at grading (``repro.faults.plan_fault_model``), so
the identical ATPG flow runs unchanged, and the manifest gains a
validated ``fault_model`` section CI checks.
"""

import argparse

from repro import telemetry
from repro.circuits import c17
from repro.faults import FaultModel, all_faults, collapse_faults, plan_fault_model
from repro.atpg import generate_tests
from repro.faultsim import FaultSimulator
from repro.testability import analyze


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--manifest-out",
        metavar="PATH",
        help="write the ATPG run manifest as JSON to this file",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard fault simulation across N worker processes "
        "(result is bit-identical to N=1; the manifest gains a "
        "'workers' section)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="memoize the ATPG run through the content-addressed result "
        "store at DIR (a second run with the same DIR is a cache hit "
        "and does zero test-generation work)",
    )
    parser.add_argument(
        "--fault-model",
        choices=[model.value for model in FaultModel],
        default="stuck_at",
        metavar="MODEL",
        help="fault model to generate tests for (stuck_at, bridging, "
        "transition, cmos_stuck_open); non-stuck-at models run the "
        "same flow over the plan_fault_model composite circuit",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="inject a crash into every worker's first attempt (needs "
        "--workers >= 2): the supervised retry heals each crash, the "
        "result stays bit-identical, and the manifest ends up with "
        "supervision counters but no 'failures' section",
    )
    args = parser.parse_args(argv)

    # 0. Turn telemetry on so every instrumented layer reports.
    sink = telemetry.enable()

    # 1. A circuit: the classic ISCAS-85 c17 benchmark (6 NAND gates).
    circuit = c17()
    print(circuit.stats())

    # 2. The single stuck-at fault universe, before and after collapsing.
    universe = all_faults(circuit)
    collapsed = collapse_faults(circuit)
    print(f"fault universe: {len(universe)} -> {len(collapsed)} collapsed")

    # 3. Testability analysis (the paper's §II workflow).
    report = analyze(circuit)
    print(report.summary())
    print("hardest to observe:", report.hardest_to_observe(3))

    # 4. Automatic test pattern generation (PODEM + fault dropping).
    #    With --store the run is memoized: keyed by the circuit's
    #    structural hash + engine + seed + params, computed at most once.
    chaos = supervision = None
    if args.chaos:
        from repro.resilience import ChaosConfig, RetryPolicy, SupervisionPolicy

        chaos = ChaosConfig(seed=0, crash_rate=1.0)
        supervision = SupervisionPolicy(
            retry=RetryPolicy(max_retries=2, base_delay_s=0.01)
        )

    # The fault-model plan is deterministic (seed-keyed), so recomputing
    # it here matches what generate_tests grades — warm or cold.
    plan = plan_fault_model(circuit, args.fault_model, seed=0)
    if plan.is_reduction:
        print(
            f"fault model {plan.model.value}: {len(plan.faults)} faults, "
            f"composite {len(plan.circuit.gates)} gates "
            f"(from {len(circuit.gates)}), reduction {plan.reduction}"
        )

    def run_atpg():
        return generate_tests(
            circuit,
            method="podem",
            random_phase=8,
            workers=args.workers,
            supervision=supervision,
            chaos=chaos,
            fault_model=args.fault_model,
        )

    if args.store:
        from repro.netlist import cache_key
        from repro.store import (
            KIND_ATPG_RESULT,
            ResultStore,
            decode_test_result,
            encode_test_result,
        )

        store = ResultStore(args.store)
        key = cache_key(
            circuit,
            "parallel_pattern",
            seed=0,
            params={"flow": "atpg", "method": "podem", "random_phase": 8},
            fault_model=args.fault_model,
        )
        result, cached = store.memoize(
            key,
            KIND_ATPG_RESULT,
            run_atpg,
            encode=encode_test_result,
            decode=decode_test_result,
        )
        print(
            f"store[{key[:12]}…]: {'HIT — served from disk' if cached else 'MISS — computed and stored'} "
            f"(hit={sink.counters.get('store.hit', 0)} "
            f"miss={sink.counters.get('store.miss', 0)})"
        )
    else:
        result = run_atpg()
    print(result.summary())
    sim_inputs = plan.circuit.inputs
    for index, pattern in enumerate(result.patterns):
        bits = "".join(str(pattern[net]) for net in sim_inputs)
        print(f"  pattern {index}: {bits}  (inputs {', '.join(sim_inputs)})")

    # 5. Independent verification by fault simulation — the full
    #    uncollapsed universe for stuck-at, the plan's graded universe
    #    (on the composite circuit) for every other model.
    if plan.is_reduction:
        simulator = FaultSimulator(plan.circuit, faults=plan.faults)
    else:
        simulator = FaultSimulator(circuit, faults=universe)
    verification = simulator.run(result.patterns)
    print(f"verified against the full universe: {verification.summary()}")

    # 6. The run manifest: one deterministic record of what just ran.
    manifest = result.manifest.validate()
    print(
        f"manifest: seed={manifest.seed} engine={manifest.engine} "
        f"phases={[p['name'] for p in manifest.phases]} "
        f"backtracks={manifest.counters.get('atpg.backtracks', 0)}"
    )
    if manifest.fault_model is not None:
        print(
            f"manifest fault_model: {manifest.fault_model['model']} "
            f"({manifest.fault_model['faults']} faults)"
        )
    print(f"telemetry counters collected: {len(sink.counters)}")
    if args.chaos:
        supervision_stats = (manifest.workers or {}).get("supervision", {})
        # A shard that stayed failed would have raised out of the flow.
        print(
            f"chaos: {supervision_stats.get('crashes', 0)} worker crash(es) "
            f"injected, {supervision_stats.get('retries', 0)} retries; "
            f"every injected fault was healed"
        )
    if args.manifest_out:
        with open(args.manifest_out, "w", encoding="utf-8") as stream:
            stream.write(manifest.to_json(indent=2))
        print(f"manifest written to {args.manifest_out}")

    telemetry.disable()


if __name__ == "__main__":
    main()
