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

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..netlist.circuit import Circuit, NetlistError
from ..faults.stuck_at import Fault, all_faults
from ..faults.collapse import collapse_faults
from ..sim.compiled import compile_circuit
from ..sim.packed import PackedPatternSet
from ..sim.wide import WideInjector, resolve_backend
from .expand import expand_branches, fault_site_net
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
        if faults is None:
            faults = collapse_faults(circuit) if collapse else all_faults(circuit)
        self.faults = list(faults)
        self.backend = resolve_backend(backend)
        self.fault_batch = fault_batch
        self.expanded, self._branch_map = expand_branches(circuit)
        self._program = compile_circuit(self.expanded)
        # Per-fault site index in the expanded circuit (None = absent net,
        # never detected — matching the parallel-pattern engine).
        self._site_index: Dict[Fault, Optional[int]] = {}
        # Site per position in self.faults, and the site-sorted order of
        # the full list — both computed once (dataclass hashing per
        # fault per run would otherwise show up in profiles).
        self._sites: Optional[List[Optional[int]]] = None
        self._full_order: Optional[List[int]] = None

    def _site(self, fault: Fault) -> Optional[int]:
        try:
            return self._site_index[fault]
        except KeyError:
            site = self._program.index.get(
                fault_site_net(fault, self._branch_map)
            )
            self._site_index[fault] = site
            return site

    def _fault_sites(self) -> List[Optional[int]]:
        sites = self._sites
        if sites is None:
            index_get = self._program.index.get
            branch_map = self._branch_map
            sites = [
                index_get(fault_site_net(fault, branch_map))
                for fault in self.faults
            ]
            self._sites = sites
        return sites

    def _ordered(self, indices: Sequence[int]) -> List[int]:
        """``indices`` (positions into ``self.faults``) sorted by site.

        The dense net index *is* the topological position, so sorting by
        it clusters faults whose cones share downstream logic.  The sort
        is stable and pure, so batching is deterministic.
        """
        if len(indices) == len(self.faults):
            order = self._full_order
            if order is not None:
                return order
        sites = self._fault_sites()
        sentinel = self._program.num_nets
        order = sorted(
            indices,
            key=lambda k: sentinel if sites[k] is None else sites[k],
        )
        if len(indices) == len(self.faults):
            self._full_order = order
        return order

    def _grade_batchwise(
        self, injector: WideInjector, indices: Sequence[int]
    ) -> Dict[int, int]:
        """Detection word per fault position, lane-batched."""
        detections: Dict[int, int] = {}
        sites = self._fault_sites()
        faults = self.faults
        mask = injector.mask
        order = self._ordered(indices)
        step = self.fault_batch
        for start in range(0, len(order), step):
            chunk = order[start : start + step]
            targets: List[Tuple[int, int]] = []
            positions: List[int] = []
            for k in chunk:
                site = sites[k]
                if site is None:
                    detections[k] = 0
                    continue
                targets.append((site, mask if faults[k].value else 0))
                positions.append(k)
            if not targets:
                continue
            for k, det in zip(positions, injector.grade(targets)):
                detections[k] = det
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
        remaining = list(range(len(self.faults)))
        faults = self.faults
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
        site = self._site(fault)
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

