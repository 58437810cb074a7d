"""Parallel-fault single-pattern fault simulation (refs [102], [104]).

The historical dual of PPSF: one pattern at a time, but a machine word
carries one bit per *faulty machine* (bit 0 is the good machine).
Fault injection is a per-net mask applied as values propagate.  This is
the technique Chiang et al. compared against deductive simulation in
1974; it is implemented both for completeness and as an independent
cross-check of the PPSF engine in the test suite.

Evaluation routes through the compiled core: the netlist's structure
(:func:`repro.faultsim.expand.netlist_structure`) holds the expanded
circuit levelized into a flat integer program, and the per-net
injection masks are dense arrays over it, applied as each word
settles, so the inner loop performs no name hashing at all.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from .. import telemetry
from ..netlist.circuit import Circuit, NetlistError
from ..faults.stuck_at import Fault, all_faults
from .expand import netlist_structure
from .coverage import CoverageReport

Pattern = Mapping[str, int]


class ParallelFaultSimulator:
    """Single-pattern simulator packing the good + faulty machines bitwise."""

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Sequence[Fault]] = None,
        collapse: bool = True,
    ) -> None:
        if not circuit.is_combinational:
            raise NetlistError("ParallelFaultSimulator is combinational")
        self.circuit = circuit
        self.structure = netlist_structure(circuit)
        if faults is None:
            faults = self.structure.collapsed(circuit) if collapse else all_faults(circuit)
        self.faults = list(faults)
        # Machine 0 = good; machine j (1-based) = fault j-1.
        self._mask = (2 << len(self.faults)) - 1
        # Per-net injection masks: bits forced to 1, bits forced to 0.
        program = self.structure.program
        self._or_masks = [0] * program.num_nets
        self._and_masks = [-1] * program.num_nets
        sites = zip(self.faults, self.structure.sites(self.faults))
        for index, (fault, site) in enumerate(sites):
            if site is None:
                continue
            bit = 1 << (index + 1)
            if fault.value:
                self._or_masks[site] |= bit
            else:
                self._and_masks[site] &= ~bit

    def simulate_pattern(self, pattern: Pattern) -> List[Fault]:
        """Simulate one pattern across all machines; returns detected faults."""
        program = self.structure.program
        mask = self._mask
        source_words = [
            mask if pattern.get(net, 0) else 0
            for net in program.source_names
        ]
        words = program.eval_masked(
            source_words, mask, self._or_masks, self._and_masks
        )
        detected_bits = 0
        for out in program.output_indices:
            word = words[out]
            good = -(word & 1) & mask  # broadcast machine 0's bit
            detected_bits |= (word ^ good) & mask
        detected_bits >>= 1  # strip the good machine
        result = []
        index = 0
        while detected_bits:
            if detected_bits & 1:
                result.append(self.faults[index])
            detected_bits >>= 1
            index += 1
        return result

    def detected_faults(self, pattern: Pattern) -> List[Fault]:
        """Engine-API alias for :meth:`simulate_pattern`."""
        return self.simulate_pattern(pattern)

    def detects(self, pattern: Pattern, fault: Fault) -> bool:
        """Does one pattern detect one fault?"""
        return fault in self.simulate_pattern(pattern)

    def run(self, patterns: Sequence[Pattern]) -> CoverageReport:
        """Run and collect the results."""
        with telemetry.span(
            "faultsim.run", engine="parallel_fault", circuit=self.circuit.name
        ):
            telemetry.incr("faultsim.patterns_simulated", len(patterns))
            telemetry.incr("faultsim.faults_graded", len(self.faults))
            report = CoverageReport(
                self.circuit.name, len(patterns), list(self.faults)
            )
            for index, pattern in enumerate(patterns):
                for fault in self.simulate_pattern(pattern):
                    report.first_detection.setdefault(fault, index)
            return report
