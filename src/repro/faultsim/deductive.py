"""Deductive fault simulation (Armstrong [100]).

One two-valued good-machine pass per pattern, during which each net
carries the *set of faults that would complement it*.  Set algebra per
gate deduces output lists from input lists:

* gates with a controlling value ``c`` (AND/OR/NAND/NOR): with ``S`` the
  inputs at ``c``,

  - ``S`` empty: any fault flipping any input flips the output —
    union of the input lists;
  - otherwise: a fault must flip *every* controlling input while
    flipping *no* non-controlling input — intersection over ``S``
    minus the union over the rest;

* XOR/XNOR: a fault flips the output iff it appears on an odd number of
  inputs — fold with symmetric difference;
* NOT/BUF: copy.

Exact under the single-fault assumption, and an independent oracle for
the bit-parallel engines in the cross-validation tests.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

from .. import telemetry
from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gates import CONTROLLING_VALUE, GateType
from ..faults.stuck_at import Fault, all_faults
from ..sim.compiled import compile_circuit
from .coverage import CoverageReport
from .expand import netlist_structure

Pattern = Mapping[str, int]


class DeductiveFaultSimulator:
    """Single-pattern deductive simulator for combinational circuits."""

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Sequence[Fault]] = None,
        collapse: bool = True,
    ) -> None:
        if not circuit.is_combinational:
            raise NetlistError("DeductiveFaultSimulator is combinational")
        self.circuit = circuit
        if faults is None:
            faults = netlist_structure(circuit).collapsed(circuit) if collapse else all_faults(circuit)
        self.faults = list(faults)
        self._fault_set = set(self.faults)
        # Index faults by site for quick activation lookup.
        self._stem_faults: Dict[str, List[Fault]] = {}
        self._branch_faults: Dict[tuple, List[Fault]] = {}
        for fault in self.faults:
            if fault.gate is None:
                self._stem_faults.setdefault(fault.net, []).append(fault)
            else:
                self._branch_faults.setdefault((fault.gate, fault.pin), []).append(fault)

    def fault_lists(self, pattern: Pattern) -> Dict[str, FrozenSet[Fault]]:
        """Per-net sets of faults that complement the net for ``pattern``."""
        # The good machine runs on the compiled core (one flat pass);
        # only the fault-list set algebra walks the gates in Python.
        program = compile_circuit(self.circuit)
        source_words = [
            1 if pattern.get(net, 0) else 0 for net in program.source_names
        ]
        words = program.eval_words(source_words, 1)
        index = program.index
        values: Dict[str, int] = {}
        lists: Dict[str, FrozenSet[Fault]] = {}
        for net in self.circuit.inputs:
            value = words[index[net]]
            values[net] = value
            lists[net] = self._activated_stem(net, value)
        for gate in self.circuit.topological_order():
            input_values = tuple(values[n] for n in gate.inputs)
            out_value = words[index[gate.output]]
            values[gate.output] = out_value
            input_lists = [
                self._branch_list(gate.name, pin, net, values[net], lists[net])
                for pin, net in enumerate(gate.inputs)
            ]
            propagated = _propagate(gate.kind, input_values, input_lists)
            stem = self._activated_stem(gate.output, out_value)
            lists[gate.output] = propagated | stem
        return lists

    def _activated_stem(self, net: str, value: int) -> FrozenSet[Fault]:
        activated = [
            f for f in self._stem_faults.get(net, ()) if f.value != value
        ]
        return frozenset(activated)

    def _branch_list(
        self,
        gate_name: str,
        pin: int,
        net: str,
        value: int,
        stem_list: FrozenSet[Fault],
    ) -> FrozenSet[Fault]:
        # Under the single-fault assumption, each listed fault flips its
        # line independently: the pin's list is the stem's list plus the
        # pin's own activated branch faults (a branch stuck at the
        # current value flips nothing and joins no list).
        branch = [
            f
            for f in self._branch_faults.get((gate_name, pin), ())
            if f.value != value
        ]
        return frozenset(set(stem_list) | set(branch))

    def detected_faults(self, pattern: Pattern) -> FrozenSet[Fault]:
        """Detected faults."""
        lists = self.fault_lists(pattern)
        detected: Set[Fault] = set()
        for net in self.circuit.outputs:
            detected |= lists[net]
        return frozenset(detected & self._fault_set)

    def detects(self, pattern: Pattern, fault: Fault) -> bool:
        """Does one pattern detect one fault?  (Engine-API hook; computes
        the full per-net fault lists for the pattern.)"""
        return fault in self.detected_faults(pattern)

    def run(self, patterns: Sequence[Pattern]) -> CoverageReport:
        """Run and collect the results."""
        with telemetry.span(
            "faultsim.run", engine="deductive", circuit=self.circuit.name
        ):
            telemetry.incr("faultsim.patterns_simulated", len(patterns))
            telemetry.incr("faultsim.faults_graded", len(self.faults))
            report = CoverageReport(
                self.circuit.name, len(patterns), list(self.faults)
            )
            for index, pattern in enumerate(patterns):
                for fault in self.detected_faults(pattern):
                    report.first_detection.setdefault(fault, index)
            return report


def _propagate(
    kind: GateType,
    input_values: Sequence[int],
    input_lists: Sequence[FrozenSet[Fault]],
) -> FrozenSet[Fault]:
    if kind in (GateType.NOT, GateType.BUF):
        return input_lists[0]
    if kind in (GateType.CONST0, GateType.CONST1):
        return frozenset()
    if kind in (GateType.XOR, GateType.XNOR):
        return reduce(lambda a, b: a ^ b, input_lists, frozenset())
    control = CONTROLLING_VALUE.get(kind)
    if control is None:
        raise NetlistError(f"no propagation rule for {kind}")
    controlling = [
        lst for value, lst in zip(input_values, input_lists) if value == control
    ]
    non_controlling = [
        lst for value, lst in zip(input_values, input_lists) if value != control
    ]
    if not controlling:
        return reduce(lambda a, b: a | b, input_lists, frozenset())
    intersection = reduce(lambda a, b: a & b, controlling)
    union_rest = reduce(lambda a, b: a | b, non_controlling, frozenset())
    return intersection - union_rest
