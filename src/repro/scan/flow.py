"""End-to-end full-scan test flow (the reward promised in §IV-A).

``full_scan_flow`` performs the complete transaction the paper
describes: insert a scan chain, extract the combinational core, run
*combinational* ATPG on it, schedule each test as shift/capture cycles,
and verify the resulting stimulus on the scanned netlist by sequential
fault simulation.  The output coverage is therefore measured through
the chip's actual pins (PIs, POs and the three scan pins), proving the
sequential problem really did reduce to the combinational one.

Sequential verification costs one serial pass per fault, so it is the
flow's wall-clock wall on anything bigger than a toy:
``full_scan_flow(..., workers=N)`` shards the verified fault list
across ``N`` worker processes
(:class:`repro.faultsim.sharded.ShardedFaultSimulator`) with a result
bit-identical to the single-process pass.  ``fault_limit`` caps the
verified list by a *seeded random sample* (never a prefix — fault
enumeration order is structural, so a prefix is a biased estimator);
the sample seed is recorded in the attached run manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .. import telemetry
from ..netlist.circuit import Circuit
from ..atpg.api import generate_tests, TestGenerationResult
from ..faults.collapse import collapse_faults
from ..faults.models import FaultModel, UnsupportedFaultModelError
from ..faultsim.sharded import SEQUENTIAL_ENGINE, ShardedFaultSimulator
from ..faultsim.coverage import CoverageReport, sample_fault_list
from ..economics.overhead import scan_test_data_volume
from .chain import ScanDesign, ScanTester, insert_scan

Pattern = Dict[str, int]


@dataclass
class FullScanResult:
    """Everything produced by the scan flow.

    ``scan_coverage`` is ``None`` when the flow ran with
    ``verify=False`` — an unverified run is *not* the same thing as a
    verified run that found nothing, and must never read as one.
    ``manifest`` is the flow's own run manifest
    (``flow="scan.full_scan_flow"``, with a ``workers`` section when the
    verification was sharded); the combinational core's ATPG manifest
    rides along as :attr:`core_manifest`.
    """

    design: ScanDesign
    core_tests: TestGenerationResult
    schedule: List[Pattern]  # cycle-by-cycle input vectors (scan pins incl.)
    scan_coverage: Optional[CoverageReport]
    total_clocks: int
    data_volume_bits: int
    manifest: Optional[telemetry.RunManifest] = None

    @property
    def verified(self) -> bool:
        """Did a sequential verification pass actually run?"""
        return self.scan_coverage is not None

    @property
    def core_manifest(self) -> Optional[telemetry.RunManifest]:
        """The core ATPG run's manifest (from ``generate_tests``)."""
        return self.core_tests.manifest

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.verified:
            verification = (
                f"verified scan coverage {self.scan_coverage.coverage:.1%}"
            )
        else:
            verification = "scan coverage unverified (verify=False)"
        return (
            f"{self.design.original.name}: chain={self.design.chain_length}, "
            f"core {self.core_tests.summary()}; "
            f"applied in {self.total_clocks} clocks, "
            f"{self.data_volume_bits} bits of test data, "
            f"{verification}"
        )


def schedule_scan_tests(
    design: ScanDesign,
    patterns: Sequence[Mapping[str, int]],
    fill: int = 0,
    flush: bool = True,
) -> List[Pattern]:
    """Expand combinational-core patterns into per-cycle input vectors.

    Protocol per pattern: ``chain_length`` shift cycles (loading the
    state, PIs idle), one capture cycle with the pattern's PIs, then
    the unload overlaps the next pattern's load; a final full unload
    drains the last capture.

    ``flush`` prepends the classic chain flush test — a 00110011...
    stream shifted through the whole chain — which exposes stuck-at
    faults in the scan path itself before any core test runs.
    """
    chain = design.chain
    n = len(chain)
    system_inputs = design.system_inputs
    schedule: List[Pattern] = []

    def cycle(scan_en: int, scan_in: int, pis: Optional[Mapping[str, int]] = None) -> Pattern:
        """One per-clock input vector with the scan pins set."""
        vector = {net: fill for net in system_inputs}
        if pis:
            vector.update({net: value for net, value in pis.items()})
        vector[design.scan_enable] = scan_en
        vector[design.scan_in] = scan_in
        return vector

    if flush:
        flush_bits = [(i // 2) % 2 for i in range(2 * n + 4)]
        for bit in flush_bits:
            schedule.append(cycle(1, bit))

    for pattern in patterns:
        bits = [pattern.get(net, fill) for net in chain]
        for bit in reversed(bits):
            schedule.append(cycle(1, bit))
        pis = {net: pattern.get(net, fill) for net in system_inputs}
        schedule.append(cycle(0, fill, pis))
    # Drain the final capture.
    for _ in range(n):
        schedule.append(cycle(1, fill))
    return schedule


def full_scan_flow(
    circuit: Circuit,
    method: str = "podem",
    random_phase: int = 32,
    seed: int = 0,
    verify: bool = True,
    fault_limit: Optional[int] = None,
    sample_seed: int = 0,
    fill: int = 0,
    flush: bool = True,
    engine: str = "parallel_pattern",
    reverse_compact: bool = False,
    workers: int = 1,
    supervision: Optional["SupervisionPolicy"] = None,
    chaos: Optional["ChaosConfig"] = None,
    fault_model: str = "stuck_at",
    backend: Optional[Any] = None,
) -> FullScanResult:
    """Scan-insert, ATPG the core, schedule, and (optionally) verify.

    ``fill``/``flush`` pass through to :func:`schedule_scan_tests`;
    ``engine``/``reverse_compact`` pass through to the core
    :func:`~repro.atpg.api.generate_tests` call.  ``fault_limit`` caps
    the number of faults sequentially verified by a random sample drawn
    with ``sample_seed`` (verification costs one sequential pass per
    fault; benchmarks on larger designs sample).  ``workers > 1``
    shards both the core ATPG's fault-simulation passes and the
    sequential verification across that many processes — the result is
    bit-identical to ``workers=1``.  ``backend`` selects the
    :mod:`repro.exec` execution backend for both pools (default
    auto-selects fork where available, else spawn).

    ``supervision``/``chaos`` configure the sharded executors' fault
    tolerance (see :mod:`repro.resilience`); a shard that fails
    deterministically raises.

    ``fault_model`` passes through to the core ATPG.  The scan flow's
    capability matrix is narrower than the core's: the sequential
    verifier replays shift/capture cycles against *stuck-at* faults on
    the scanned netlist, so ``"bridging"`` requires ``verify=False``
    (core patterns are generated for the bridging universe but cannot
    be sequentially re-verified against it), and the two-frame models
    (``"transition"``, ``"cmos_stuck_open"``) are rejected outright —
    their composite patterns are ordered vector *pairs*, which this
    single-capture scan protocol cannot apply.  Both violations raise
    :class:`repro.faults.UnsupportedFaultModelError` before any work
    runs.
    """
    model = FaultModel.coerce(fault_model)
    if model in (FaultModel.TRANSITION, FaultModel.CMOS_STUCK_OPEN):
        raise UnsupportedFaultModelError(
            f"full_scan_flow cannot apply {model.value!r} tests: the "
            f"two-frame composite patterns are ordered vector pairs, "
            f"but the scan protocol applies one capture per load "
            f"(launch-off-shift/capture scheduling is not implemented)"
        )
    if model is not FaultModel.STUCK_AT and verify:
        raise UnsupportedFaultModelError(
            f"full_scan_flow sequential verification grades stuck-at "
            f"faults on the scanned netlist and cannot re-verify "
            f"{model.value!r} tests; pass verify=False to run the core "
            f"ATPG under this model unverified"
        )
    design = insert_scan(circuit)
    core = circuit.combinational_core()
    verifier: Optional[ShardedFaultSimulator] = None
    with telemetry.capture() as session:
        with telemetry.span("scan.full_scan_flow", circuit=circuit.name):
            with telemetry.span("scan.phase.core_atpg"):
                core_tests = generate_tests(
                    core,
                    method=method,
                    random_phase=random_phase,
                    seed=seed,
                    engine=engine,
                    reverse_compact=reverse_compact,
                    workers=workers,
                    supervision=supervision,
                    chaos=chaos,
                    fault_model=model,
                    backend=backend,
                )
            with telemetry.span("scan.phase.schedule"):
                schedule = schedule_scan_tests(
                    design, core_tests.patterns, fill=fill, flush=flush
                )
                total_clocks = len(schedule)
                data_volume = scan_test_data_volume(
                    len(core_tests.patterns),
                    design.chain_length,
                    len(design.system_inputs),
                    len(circuit.outputs),
                )
            coverage: Optional[CoverageReport] = None
            if verify:
                with telemetry.span("scan.phase.verify"):
                    faults = sample_fault_list(
                        collapse_faults(design.circuit), fault_limit, sample_seed
                    )
                    telemetry.incr("scan.verify.faults", len(faults))
                    verifier = ShardedFaultSimulator(
                        design.circuit,
                        SEQUENTIAL_ENGINE,
                        faults=faults,
                        workers=workers,
                        supervision=supervision,
                        chaos=chaos,
                        backend=backend,
                    )
                    coverage = verifier.run(schedule)

    engine_name = getattr(engine, "value", engine)
    manifest = telemetry.RunManifest(
        flow="scan.full_scan_flow",
        circuit=circuit.name,
        seed=seed,
        engine=str(engine_name),
        method=method,
        limits={
            "random_phase": random_phase,
            "fault_limit": fault_limit,
            "sample_seed": sample_seed,
            "fill": fill,
            "flush": flush,
            "reverse_compact": reverse_compact,
            "verify": verify,
            "workers": workers,
        },
        phases=session.phase_stats("scan.phase."),
        counters=dict(session.counters),
        stats={
            "chain_length": design.chain_length,
            "core_patterns": len(core_tests.patterns),
            "core_coverage": core_tests.coverage,
            "total_clocks": total_clocks,
            "data_volume_bits": data_volume,
            "verified": verify,
            "verified_faults": len(coverage.faults) if coverage is not None else 0,
            "detected": (
                len(coverage.first_detection) if coverage is not None else 0
            ),
            "scan_coverage": coverage.coverage if coverage is not None else None,
        },
        workers=verifier.workers_section() if verifier is not None else None,
        fault_model=(
            core_tests.fault_model_plan.section()
            if core_tests.fault_model_plan is not None
            else None
        ),
    )
    return FullScanResult(
        design=design,
        core_tests=core_tests,
        schedule=schedule,
        scan_coverage=coverage,
        total_clocks=total_clocks,
        data_volume_bits=data_volume,
        manifest=manifest,
    )
