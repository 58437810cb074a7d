"""Fanout-branch expansion, and the per-netlist structure built on it.

Stem faults are easy to inject (force one net); branch faults affect a
single reader's view of a net.  The uniform trick: insert an explicit
BUF on every gate-input pin whose net has fanout greater than one.  In
the expanded circuit every fault in the original maps to a stem force,
so one injection mechanism serves all simulators.  Every consumer takes
the expansion from :func:`netlist_structure`, built once per netlist in
the process-wide LRU of :func:`repro.sim.compiled.cached`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType
from ..faults.collapse import collapse_faults
from ..faults.stuck_at import Fault
from ..sim.compiled import cached, compile_circuit

BranchMap = Dict[Tuple[str, int], str]


def expand_branches(circuit: Circuit) -> Tuple[Circuit, BranchMap]:
    """Insert BUFs on fanout branches; returns (expanded, branch map).

    ``branch_map[(gate_name, pin)]`` names the expanded circuit's net
    carrying that branch.  Pins on single-fanout nets are not expanded
    (their branch faults are equivalent to the stem fault).
    """
    expanded = Circuit(f"{circuit.name}__expanded")
    for net in circuit.inputs:
        expanded.add_input(net)

    multi_fanout = {
        net for net in circuit.nets() if circuit.fanout_count(net) > 1
    }
    branch_map: BranchMap = {}
    for gate in circuit.gates:
        new_inputs = []
        for pin, net in enumerate(gate.inputs):
            if net in multi_fanout:
                branch_net = f"{gate.name}__in{pin}"
                expanded.buf(net, branch_net, name=branch_net)
                branch_map[(gate.name, pin)] = branch_net
                new_inputs.append(branch_net)
            else:
                new_inputs.append(net)
        expanded.add_gate(gate.kind, new_inputs, gate.output, gate.name)
    for net in circuit.outputs:
        expanded.add_output(net)
    expanded.validate()
    return expanded, branch_map


def fault_site_net(fault: Fault, branch_map: BranchMap) -> str:
    """Net to force in the expanded circuit for the given fault."""
    if fault.gate is None:
        return fault.net
    return branch_map.get((fault.gate, fault.pin), fault.net)


class NetlistStructure:
    """What fault work needs of one netlist, built once.

    ``expanded``/``branch_map`` come from :func:`expand_branches`,
    ``program`` is ``compile_circuit(expanded)`` (cone caches included)
    and :meth:`collapsed` the collapsed stuck-at list.  Every caller
    with an equal netlist shares it, so nothing may mutate it
    (``expanded`` included); it holds no reference to the circuit it
    was built from.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.expanded, self.branch_map = expand_branches(circuit)
        self.program = compile_circuit(self.expanded)
        self._collapsed: Optional[Tuple[Fault, ...]] = None

    def collapsed(self, circuit: Circuit) -> Tuple[Fault, ...]:
        """The collapsed stuck-at list of ``circuit`` (this netlist),
        built on first use: bridging composites never need it."""
        if self._collapsed is None:
            self._collapsed = tuple(collapse_faults(circuit))
        return self._collapsed

    def sites(self, faults: Iterable[Fault]) -> List[Optional[int]]:
        """Program index of each fault's site (None: not in the netlist)."""
        index, branch_map = self.program.index, self.branch_map
        return [index.get(fault_site_net(f, branch_map)) for f in faults]


def netlist_structure(circuit: Circuit) -> NetlistStructure:
    """The cached :class:`NetlistStructure` of ``circuit``'s netlist."""
    return cached("structure", circuit, NetlistStructure)
