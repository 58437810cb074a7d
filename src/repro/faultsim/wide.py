"""Wide-word fault simulation: lane-batched PPSF (the vectorized engine).

Same workload contract as the parallel-pattern engine
(:mod:`repro.faultsim.parallel_pattern`) — identical detected-fault
sets and first-detection indices on any (circuit, fault list, pattern
set) input — but instead of injecting one fault at a time, faults are
graded in *batches*: each batch shares one pass over the union of its
output cones, with one lane per faulty machine
(:class:`repro.sim.wide.WideInjector`).  Faults are ordered by the
topological position of their site before batching so batch-mates'
cones overlap heavily and the union stays close to a single cone.

Engine name: ``"wide"`` (:class:`repro.faultsim.Engine.WIDE`).  The
lane backend (numpy arrays or the dependency-free big-int fallback) is
chosen at import time and can be pinned per instance via ``backend=``
or globally via the ``REPRO_WIDE_BACKEND`` environment variable.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from .. import telemetry
from ..netlist.circuit import Circuit, NetlistError
from ..faults.stuck_at import Fault, all_faults
from ..sim.compiled import compile_circuit  # noqa: F401 (e2ebench tracer)
from ..sim.packed import PackedPatternSet
from ..sim.wide import WideInjector, resolve_backend
from .expand import netlist_structure
from .coverage import CoverageReport

Pattern = Mapping[str, int]

#: Faults graded per union-cone pass.  Large enough that the per-op
#: interpreter cost is amortized across many lanes (the union cone of
#: 256 topologically adjacent faults is barely larger than that of 64,
#: while vector ops on 256 lanes cost little more than on 64), small
#: enough that per-net lane matrices stay cache- and memory-friendly.
DEFAULT_FAULT_BATCH = 256

#: Patterns simulated per packed batch.  The wide engine's per-gate cost
#: is dominated by fixed per-vector-op dispatch, so wider pattern words
#: amortize it almost for free (the report is identical for any batch
#: size; see :meth:`WideFaultSimulator.run`).
DEFAULT_PATTERN_BATCH = 1024


class WideFaultSimulator:
    """Lane-batched parallel-pattern fault simulator (combinational).

    Construction mirrors :class:`~repro.faultsim.parallel_pattern.FaultSimulator`
    plus the wide knobs: ``backend`` (``"auto"`` / ``"numpy"`` /
    ``"bigint"``) and ``fault_batch`` (lanes per union-cone pass).
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Sequence[Fault]] = None,
        collapse: bool = True,
        backend: str = "auto",
        fault_batch: int = DEFAULT_FAULT_BATCH,
    ) -> None:
        if not circuit.is_combinational:
            raise NetlistError(
                "WideFaultSimulator is combinational; scan the design or use "
                "SequentialFaultSimulator"
            )
        if fault_batch < 1:
            raise ValueError(f"fault_batch must be >= 1, got {fault_batch}")
        self.circuit = circuit
        self.structure = netlist_structure(circuit)
        if faults is None:
            faults = self.structure.collapsed(circuit) if collapse else all_faults(circuit)
        self.faults = list(faults)
        self.backend = resolve_backend(backend)
        self.fault_batch = fault_batch
        self.expanded = self.structure.expanded
        self._sites = self.structure.sites(self.faults)
        # Positions of the faults whose site is in the netlist (the rest
        # are never detected), sorted by site.  The dense net index *is*
        # the topological position, so this clusters faults whose cones
        # share downstream logic.  The sort is stable and pure, so
        # batching is deterministic.
        self._order = sorted(
            (k for k, site in enumerate(self._sites) if site is not None),
            key=self._sites.__getitem__,
        )

    def _grade_batchwise(
        self, injector: WideInjector, indices: Sequence[int]
    ) -> Dict[int, int]:
        """Detection word per fault position in ``indices`` (distinct
        positions; faults whose site is not in the netlist get none)."""
        order = self._order
        if len(indices) < len(self.faults):
            live = set(indices)
            order = [k for k in order if k in live]
        sites, faults, mask = self._sites, self.faults, injector.mask
        detections: Dict[int, int] = {}
        for start in range(0, len(order), self.fault_batch):
            chunk = order[start : start + self.fault_batch]
            targets = [(sites[k], mask if faults[k].value else 0) for k in chunk]
            detections.update(zip(chunk, injector.grade(targets)))
        return detections

    def run(
        self,
        patterns: Sequence[Pattern],
        batch_size: int = DEFAULT_PATTERN_BATCH,
        drop_detected: bool = True,
    ) -> CoverageReport:
        """Fault-simulate the pattern list; returns a coverage report.

        Identical semantics (and bit-identical reports) to
        :meth:`FaultSimulator.run`: packed pattern batches in order,
        first detection decided by lowest set bit within the first
        detecting batch, optional fault dropping between batches.
        """
        with telemetry.span(
            "faultsim.run", engine="wide", circuit=self.circuit.name,
            backend=self.backend,
        ):
            telemetry.incr("faultsim.patterns_simulated", len(patterns))
            telemetry.incr("faultsim.faults_graded", len(self.faults))
            return self._run(patterns, batch_size, drop_detected)

    def _run(
        self,
        patterns: Sequence[Pattern],
        batch_size: int,
        drop_detected: bool,
    ) -> CoverageReport:
        report = CoverageReport(self.circuit.name, len(patterns), list(self.faults))
        faults = self.faults
        remaining = list(range(len(faults)))
        inputs = self.circuit.inputs
        for start in range(0, len(patterns), batch_size):
            if not remaining:
                break
            batch = patterns[start : start + batch_size]
            packed = PackedPatternSet.from_patterns(inputs, batch)
            injector = WideInjector(self.expanded, packed, backend=self.backend)
            detections = self._grade_batchwise(injector, remaining)
            still_remaining: List[int] = []
            for k in remaining:
                detection_word = detections.get(k, 0)
                if detection_word:
                    # setdefault, not assignment: see FaultSimulator._run.
                    report.first_detection.setdefault(
                        faults[k], start + _lowest_set_bit(detection_word)
                    )
                    if not drop_detected:
                        still_remaining.append(k)
                else:
                    still_remaining.append(k)
            remaining = still_remaining
        return report

    def detects(self, pattern: Pattern, fault: Fault) -> bool:
        """Does one pattern detect one fault?  (ATPG verification hook.)"""
        telemetry.incr("faultsim.detects_calls")
        (site,) = self.structure.sites([fault])
        if site is None:
            return False
        packed = PackedPatternSet.from_patterns(self.circuit.inputs, [pattern])
        injector = WideInjector(self.expanded, packed, backend=self.backend)
        forced = packed.mask if fault.value else 0
        return bool(injector.grade([(site, forced)])[0])

    def detected_faults(self, pattern: Pattern) -> List[Fault]:
        """All listed faults detected by one pattern."""
        telemetry.incr("faultsim.detected_faults_calls")
        packed = PackedPatternSet.from_patterns(self.circuit.inputs, [pattern])
        injector = WideInjector(self.expanded, packed, backend=self.backend)
        detections = self._grade_batchwise(injector, range(len(self.faults)))
        return [
            fault
            for k, fault in enumerate(self.faults)
            if detections.get(k, 0)
        ]


def _lowest_set_bit(word: int) -> int:
    return (word & -word).bit_length() - 1

