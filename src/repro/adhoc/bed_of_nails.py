"""Bed-of-nails / in-circuit testing (§III-B, Fig. 5).

The fixture probes the *underside of the board*: every board net gets a
nail, giving controllability and observability the edge connector never
had.  "Drive/sense nails" testing overdrives each chip's input nets and
senses its outputs, testing one chip at a time with resolution far
better than an edge test — at the price of contact reliability,
electrical loading and possible overdrive damage, all of which are
modeled as knobs here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..netlist.circuit import Circuit, NetlistError
from ..faults.stuck_at import Fault
from ..faultsim.parallel_pattern import FaultSimulator
from ..faultsim.coverage import CoverageReport
from ..sim.packed import PackedPatternSet, PackedSimulator


@dataclass
class BoardModule:
    """One chip instance on the board: its gates and its boundary nets."""

    name: str
    input_nets: List[str]   # board nets feeding this chip
    output_nets: List[str]  # board nets driven by this chip
    gate_names: Set[str] = field(default_factory=set)


class Board:
    """A flattened board netlist with per-chip boundary bookkeeping."""

    def __init__(self, name: str = "board") -> None:
        self.name = name
        self.circuit = Circuit(name)
        self.modules: Dict[str, BoardModule] = {}

    def place(self, instance_name: str, chip: Circuit, connections: Mapping[str, str]) -> BoardModule:
        """Instantiate ``chip`` with its PIs mapped to board nets.

        ``connections`` maps chip input names to existing board nets
        (or new board-level primary inputs).  Chip internal nets are
        prefixed by the instance name; chip outputs become board nets
        ``instance.output``.
        """
        prefix = f"{instance_name}."
        mapping: Dict[str, str] = {}
        for pin in chip.inputs:
            board_net = connections.get(pin)
            if board_net is None:
                board_net = prefix + pin
                self.circuit.add_input(board_net)
            mapping[pin] = board_net
        for gate in chip.gates:
            mapping.setdefault(gate.output, prefix + gate.output)
        gate_names = set()
        for gate in chip.gates:
            name = prefix + gate.name
            self.circuit.add_gate(
                gate.kind,
                [mapping[n] for n in gate.inputs],
                mapping[gate.output],
                name,
            )
            gate_names.add(name)
        module = BoardModule(
            instance_name,
            [mapping[p] for p in chip.inputs],
            [mapping[p] for p in chip.outputs],
            gate_names,
        )
        self.modules[instance_name] = module
        return module

    def expose_outputs(self, module: str) -> None:
        """Route a module's outputs to the board edge."""
        for net in self.modules[module].output_nets:
            if net not in self.circuit.outputs:
                self.circuit.add_output(net)

    def edge_inputs(self) -> List[str]:
        """Edge inputs."""
        return list(self.circuit.inputs)


@dataclass
class NailContact:
    """Reliability model of one probe: may fail to make contact."""

    net: str
    reliable: bool = True


class BedOfNailsTester:
    """In-circuit tester: drive and sense any board net via nails."""

    def __init__(
        self,
        board: Board,
        contact_failure_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.board = board
        rng = random.Random(seed)
        self.contacts: Dict[str, NailContact] = {
            net: NailContact(net, rng.random() >= contact_failure_rate)
            for net in board.circuit.nets()
        }
        self.overdrive_events = 0

    @property
    def nail_count(self) -> int:
        """Nail count."""
        return len(self.contacts)

    def usable_nets(self) -> List[str]:
        """Usable nets."""
        return [n for n, c in self.contacts.items() if c.reliable]

    def in_circuit_test(
        self,
        module_name: str,
        patterns: Sequence[Mapping[str, int]],
        faults: Optional[Sequence[Fault]] = None,
    ) -> CoverageReport:
        """Drive/sense-nails test of one chip, in place.

        Each pattern overdrives the chip's input nets (counted as
        overdrive events) and senses its output nets.  Realized by
        forcing those nets in a packed simulation of the whole board —
        the electrical essence of in-circuit test.  Fault list defaults
        to the module's own gates' faults.
        """
        module = self.board.modules[module_name]
        unusable = [
            net
            for net in module.input_nets + module.output_nets
            if not self.contacts[net].reliable
        ]
        if unusable:
            raise NetlistError(
                f"no reliable contact on: {', '.join(unusable[:5])}"
            )
        circuit = self.board.circuit
        if faults is None:
            from ..faults.stuck_at import all_faults

            faults = [
                f
                for f in all_faults(circuit)
                if (f.gate in module.gate_names)
                or (f.gate is None and circuit.driver_of(f.net) is not None
                    and circuit.driver_of(f.net).name in module.gate_names)
            ]
        simulator = _ForcedNetFaultSimulator(
            circuit, module.input_nets, module.output_nets, faults
        )
        self.overdrive_events += len(patterns) * len(module.input_nets)
        return simulator.run(patterns)


class _ForcedNetFaultSimulator:
    """Fault simulation with stimulus forced onto internal nets (nails)."""

    def __init__(
        self,
        circuit: Circuit,
        drive_nets: Sequence[str],
        sense_nets: Sequence[str],
        faults: Sequence[Fault],
    ) -> None:
        from ..faultsim.expand import fault_site_net, netlist_structure

        self.circuit = circuit
        self.drive_nets = list(drive_nets)
        self.sense_nets = list(sense_nets)
        self.faults = list(faults)
        structure = netlist_structure(circuit)
        self._sim = PackedSimulator(structure.expanded)
        self._site = lambda f: fault_site_net(f, structure.branch_map)

    def run(self, patterns: Sequence[Mapping[str, int]]) -> CoverageReport:
        """Run and collect the results."""
        report = CoverageReport(self.circuit.name, len(patterns), self.faults)
        packed = PackedPatternSet.from_patterns(
            self.circuit.inputs, [dict() for _ in patterns]
        )
        mask = packed.mask
        drive_force: Dict[str, int] = {}
        for net in self.drive_nets:
            word = 0
            for index, pattern in enumerate(patterns):
                if pattern.get(net, 0):
                    word |= 1 << index
            drive_force[net] = word
        good = self._sim.run(packed, force=drive_force)
        for fault in self.faults:
            site = self._site(fault)
            if site in drive_force:
                continue  # the nail overrides the fault: not testable here
            force = dict(drive_force)
            force[site] = mask if fault.value else 0
            faulty = self._sim.run(packed, force=force)
            detected = 0
            for net in self.sense_nets:
                detected |= (good[net] ^ faulty[net]) & mask
            if detected:
                report.first_detection[fault] = (
                    (detected & -detected).bit_length() - 1
                )
        return report
