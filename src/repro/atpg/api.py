"""Top-level deterministic test-generation flow.

The classic mixed flow the mainframe CAD systems of the paper's era ran
(Bottorff et al. [78]):

1. optional random-pattern *phase 1* mops up the easy faults cheaply;
2. a deterministic engine (PODEM or the D-algorithm) targets each
   remaining collapsed fault, with fault dropping after every pattern;
3. don't-care merge compaction and random fill (plus opt-in
   reverse-order compaction);
4. a final fault-simulation pass produces the signed-off coverage.

Every emitted pattern is verified by fault simulation before being
trusted — an engine bug can therefore lower coverage but never inflate
the report.  Crucially, the pattern that is *verified* (and used for
fault dropping) is the very pattern that *ships*: each test cube is
random-filled over all primary inputs exactly once, and that fully
specified pattern feeds ``detects``, ``detected_faults``, and the
emitted test set alike.

Every run also emits a :class:`repro.telemetry.RunManifest` — seed,
engine, method, limits, per-phase spans (random phase, deterministic
loop, compaction, repair rounds), and effort counters (backtracks,
decisions, aborts, fault drops) — attached to the returned
:class:`TestGenerationResult` and dumpable as JSON.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .. import telemetry
from ..netlist.circuit import Circuit
from ..faults.stuck_at import Fault
from ..faults.models import FaultModelPlan, plan_fault_model
from ..faultsim.coverage import CoverageReport
from .podem import PodemGenerator, PodemResult
from .d_algorithm import DAlgorithm
from .random_gen import random_patterns
from .compaction import merge_cubes, fill_cubes, reverse_order_compaction

Pattern = Dict[str, int]


@dataclass
class TestGenerationResult:
    """Everything a test-floor hand-off needs."""

    circuit_name: str
    method: str
    patterns: List[Pattern]
    report: CoverageReport
    redundant: List[Fault] = field(default_factory=list)
    aborted: List[Fault] = field(default_factory=list)
    total_backtracks: int = 0
    random_phase_patterns: int = 0
    manifest: Optional[telemetry.RunManifest] = None
    fault_model_plan: Optional[FaultModelPlan] = None

    @property
    def coverage(self) -> float:
        """Detected fraction of the fault list."""
        return self.report.coverage

    @property
    def testable_coverage(self) -> float:
        """Coverage over the non-redundant faults only."""
        testable = len(self.report.faults) - len(self.redundant)
        if testable <= 0:
            return 1.0
        return len(self.report.first_detection) / testable

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.circuit_name} [{self.method}]: {len(self.patterns)} patterns, "
            f"coverage {self.coverage:.1%} "
            f"({self.testable_coverage:.1%} of testable), "
            f"{len(self.redundant)} redundant, {len(self.aborted)} aborted"
        )


def _fill_pattern(
    cube: Dict[str, Optional[int]], inputs: Sequence[str], rng: random.Random
) -> Pattern:
    """Random-fill one cube over *all* primary inputs.

    This is the single fill point of the flow: the returned pattern is
    both verified/fault-dropped and shipped, so missing cube keys can
    never make the verified pattern diverge from the emitted one.
    """
    return {
        net: (value if value is not None else rng.randint(0, 1))
        for net, value in ((n, cube.get(n)) for n in inputs)
    }


def generate_tests(
    circuit: Circuit,
    method: str = "podem",
    faults: Optional[Sequence[Fault]] = None,
    random_phase: int = 32,
    backtrack_limit: int = 10000,
    compact: bool = True,
    reverse_compact: bool = False,
    seed: int = 0,
    engine: str = "parallel_pattern",
    workers: int = 1,
    supervision: Optional["SupervisionPolicy"] = None,
    chaos: Optional["ChaosConfig"] = None,
    fault_model: str = "stuck_at",
    backend: Optional[Any] = None,
) -> TestGenerationResult:
    """Run the full deterministic ATPG flow on a combinational circuit.

    ``method`` is ``"podem"`` or ``"dalg"``.  ``random_phase`` patterns
    of uniform random stimulus run first (0 disables).  Returns fully
    specified patterns plus the verified coverage report; the
    :attr:`TestGenerationResult.manifest` carries the run's telemetry.

    ``engine`` selects the fault-simulation engine used for pattern
    verification and fault grading (see :class:`repro.faultsim.Engine`);
    the default is the compiled parallel-pattern engine.
    ``reverse_compact`` opts into a final reverse-order compaction pass
    through the same engine.

    ``workers > 1`` runs every full fault-simulation pass (random-phase
    grading, repair-round re-grading, final sign-off) sharded across
    that many worker processes via
    :class:`repro.faultsim.sharded.ShardedFaultSimulator`.  Results are
    bit-identical to ``workers=1``; the manifest grows a ``workers``
    section with per-shard timings and counters.  ``backend`` picks the
    :mod:`repro.exec` execution backend for the pool (``"inline"`` /
    ``"fork"`` / ``"spawn"`` / ``"thread-lane"`` or an
    :class:`~repro.exec.ExecutorBackend`; default auto-selects fork
    where available, else spawn), recorded in the manifest's
    ``workers.backend``.

    ``supervision``/``chaos`` configure the sharded executor's fault
    tolerance (see :mod:`repro.resilience`): worker crashes, hangs and
    raised exceptions are retried with backoff and healed by in-process
    fallback; a shard that fails deterministically raises.

    ``fault_model`` selects the fault model (``"stuck_at"``,
    ``"bridging"``, ``"cmos_stuck_open"``, ``"transition"``; see
    :class:`repro.faults.FaultModel`).  Non-stuck-at models reduce to a
    composite circuit plus an ordinary stuck-at fault list
    (:func:`repro.faults.plan_fault_model`), so the whole flow —
    PODEM/D-alg, every simulation engine, sharding, compaction — runs
    unchanged over the composite; for two-frame models each emitted
    pattern assigns the composite inputs ``"{net}@1"``/``"{net}@2"``
    (one pattern = one ordered vector pair).  ``faults``, when given,
    must then be model-typed faults.  The manifest records the
    reduction in its validated ``fault_model`` section, and the result
    carries the full :class:`repro.faults.FaultModelPlan` as
    ``fault_model_plan``.
    """
    from ..faultsim import ShardedFaultSimulator, create_simulator

    if method not in ("podem", "dalg"):
        raise ValueError(f"unknown ATPG method {method!r}")
    # Resolve the model once; downstream everything works on the plan's
    # (possibly composite) circuit and plain stuck-at fault list, so the
    # sharded/engine paths below stay model-agnostic and cannot
    # double-reduce.
    plan = plan_fault_model(circuit, fault_model, faults=faults, seed=seed)
    work = plan.circuit
    fault_list = list(plan.faults)
    sharded: Optional[ShardedFaultSimulator] = None
    if workers and workers > 1:
        sharded = ShardedFaultSimulator(
            work,
            engine,
            faults=fault_list,
            workers=workers,
            supervision=supervision,
            chaos=chaos,
            backend=backend,
        )
        simulator = sharded
    else:
        simulator = create_simulator(work, engine, faults=fault_list)
    engine_name = getattr(engine, "value", engine)
    rng = random.Random(seed)
    inputs = work.inputs

    accepted: List[Pattern] = []
    cubes: List[Dict[str, Optional[int]]] = []
    verified: List[Pattern] = []
    redundant: List[Fault] = []
    aborted: List[Fault] = []
    total_backtracks = 0
    random_used = 0

    with telemetry.capture() as session:
        with telemetry.span(
            "atpg.generate_tests",
            circuit=circuit.name,
            method=method,
            engine=str(engine_name),
        ):
            undetected = list(fault_list)
            with telemetry.span("atpg.phase.random"):
                if random_phase:
                    candidates = random_patterns(work, random_phase, seed=seed)
                    phase_report = simulator.run(candidates)
                    # Keep only useful random patterns, in first-detection order.
                    useful_indices = sorted(
                        {index for index in phase_report.first_detection.values()}
                    )
                    for index in useful_indices:
                        accepted.append(candidates[index])
                    random_used = len(useful_indices)
                    detected = set(phase_report.first_detection)
                    undetected = [f for f in undetected if f not in detected]
                    telemetry.incr("atpg.random.patterns", len(candidates))
                    telemetry.incr("atpg.random.kept", random_used)
                    telemetry.incr("atpg.random.faults_detected", len(detected))

            generator = (
                PodemGenerator(work, backtrack_limit=backtrack_limit)
                if method == "podem"
                else DAlgorithm(work, backtrack_limit=backtrack_limit)
            )

            with telemetry.span("atpg.phase.deterministic"):
                queue = list(undetected)
                dropped: set = set()
                while queue:
                    fault = queue.pop(0)
                    if fault in dropped:
                        continue
                    telemetry.incr("atpg.targets")
                    result: PodemResult = generator.generate(fault)
                    total_backtracks += result.backtracks
                    telemetry.incr("atpg.backtracks", result.backtracks)
                    telemetry.incr("atpg.decisions", result.decisions)
                    if result.pattern is None:
                        if result.redundant:
                            redundant.append(fault)
                            telemetry.incr("atpg.redundant")
                        else:
                            aborted.append(fault)
                            telemetry.incr("atpg.aborts")
                        continue
                    # One fill over every primary input; this exact pattern
                    # is verified, used for fault dropping, and shipped.
                    filled = _fill_pattern(result.pattern, inputs, rng)
                    if not simulator.detects(filled, fault):
                        # Engine produced an unsound cube: treat as aborted,
                        # never inflate coverage.
                        aborted.append(fault)
                        telemetry.incr("atpg.aborts")
                        telemetry.incr("atpg.unsound_cubes")
                        continue
                    cubes.append({net: result.pattern.get(net) for net in inputs})
                    verified.append(filled)
                    # Fault-drop everything this pattern catches.
                    before = len(dropped)
                    for other in simulator.detected_faults(filled):
                        dropped.add(other)
                    telemetry.incr("atpg.fault_drops", len(dropped) - before)

            with telemetry.span("atpg.phase.compaction"):
                if compact and cubes:
                    telemetry.incr("atpg.compaction.cubes_in", len(cubes))
                    merged = merge_cubes(cubes, inputs)
                    telemetry.incr("atpg.compaction.cubes_out", len(merged))
                    deterministic = fill_cubes(merged, inputs, seed=seed + 1)
                else:
                    # No compaction: ship the very patterns that were
                    # verified and fault-dropped, bit for bit.
                    deterministic = list(verified)
            patterns = accepted + deterministic

            # Repair rounds: merge compaction changes the random fill, which
            # can lose faults that were only detected by fill coincidence.
            # Re-target anything still undetected, appending uncompacted
            # patterns.
            with telemetry.span("atpg.phase.repair"):
                final_report = simulator.run(patterns)
                for _ in range(3):
                    missing = [
                        f
                        for f in final_report.undetected
                        if f not in redundant and f not in aborted
                    ]
                    if not missing:
                        break
                    telemetry.incr("atpg.repair.rounds")
                    telemetry.incr("atpg.repair.retargeted", len(missing))
                    for fault in missing:
                        result = generator.generate(fault)
                        total_backtracks += result.backtracks
                        telemetry.incr("atpg.backtracks", result.backtracks)
                        telemetry.incr("atpg.decisions", result.decisions)
                        if result.pattern is None:
                            if result.redundant:
                                redundant.append(fault)
                                telemetry.incr("atpg.redundant")
                            else:
                                aborted.append(fault)
                                telemetry.incr("atpg.aborts")
                            continue
                        filled = _fill_pattern(result.pattern, inputs, rng)
                        if simulator.detects(filled, fault):
                            patterns.append(filled)
                            telemetry.incr("atpg.repair.patterns_added")
                        else:
                            aborted.append(fault)
                            telemetry.incr("atpg.aborts")
                            telemetry.incr("atpg.unsound_cubes")
                    final_report = simulator.run(patterns)

            if reverse_compact and patterns:
                with telemetry.span("atpg.phase.reverse_compaction"):
                    before_count = len(patterns)
                    patterns = reverse_order_compaction(
                        work, patterns, faults=fault_list, engine=engine
                    )
                    telemetry.incr(
                        "atpg.reverse.dropped", before_count - len(patterns)
                    )
                    final_report = simulator.run(patterns)

    manifest = telemetry.RunManifest(
        flow="atpg.generate_tests",
        circuit=circuit.name,
        seed=seed,
        engine=str(engine_name),
        method=method,
        limits={
            "random_phase": random_phase,
            "backtrack_limit": backtrack_limit,
            "compact": compact,
            "reverse_compact": reverse_compact,
            "workers": workers,
        },
        fault_model=plan.section(),
        phases=session.phase_stats("atpg.phase."),
        counters=dict(session.counters),
        stats={
            "patterns": len(patterns),
            "random_phase_patterns": random_used,
            "fault_count": len(fault_list),
            "detected": len(final_report.first_detection),
            "coverage": final_report.coverage,
            "redundant": len(redundant),
            "aborted": len(aborted),
            "total_backtracks": total_backtracks,
        },
        workers=sharded.workers_section() if sharded is not None else None,
    )
    return TestGenerationResult(
        circuit_name=circuit.name,
        method=method,
        patterns=patterns,
        report=final_report,
        redundant=redundant,
        aborted=aborted,
        total_backtracks=total_backtracks,
        random_phase_patterns=random_used,
        manifest=manifest,
        fault_model_plan=plan,
    )
