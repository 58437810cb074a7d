"""Fault collapsing: equivalence classes and dominance (refs [36]-[51]).

Two faults are *equivalent* when every test for one detects the other —
they induce identical faulty functions.  Structural equivalence rules
per gate (McCluskey & Clegg [41]):

* AND:  output SA0 ≡ each input SA0
* NAND: output SA1 ≡ each input SA0
* OR:   output SA1 ≡ each input SA1
* NOR:  output SA0 ≡ each input SA1
* NOT:  output SA0 ≡ input SA1, output SA1 ≡ input SA0
* BUF/DFF: output SAv ≡ input SAv
* a single-fanout stem ≡ its only branch (same line)

Collapsing shrinks the 6-per-2-input-gate universe towards the paper's
"about 3000" for 1000 gates.  The checkpoint theorem goes further:
tests detecting all faults on primary inputs and fanout branches detect
all faults in a fanout-free-region-decomposable circuit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType
from .stuck_at import Fault, all_faults


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[Fault, Fault] = {}

    def add(self, item: Fault) -> None:
        """Register an item with itself as parent."""
        self.parent.setdefault(item, item)

    def find(self, item: Fault) -> Fault:
        """Root of the item's class, with path compression."""
        self.add(item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: Fault, b: Fault) -> None:
        """Merge the classes containing the two items."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self) -> List[List[Fault]]:
        """All equivalence classes as lists of members."""
        groups: Dict[Fault, List[Fault]] = {}
        for item in self.parent:
            groups.setdefault(self.find(item), []).append(item)
        return list(groups.values())


def _branch_fault(circuit: Circuit, gate_name: str, pin: int, value: int) -> Fault:
    net = circuit.gate(gate_name).inputs[pin]
    return Fault(net, value, gate=gate_name, pin=pin)


def equivalence_classes(circuit: Circuit) -> List[List[Fault]]:
    """Partition the full fault universe into structural equivalence classes."""
    universe = all_faults(circuit)
    uf = _UnionFind()
    for fault in universe:
        uf.add(fault)

    # Gate-local equivalences.
    for gate in circuit.gates:
        out = gate.output
        kind = gate.kind
        if kind in (GateType.AND, GateType.NAND):
            out_value = 0 if kind is GateType.AND else 1
            for pin in range(gate.fanin):
                uf.union(Fault(out, out_value), _branch_fault(circuit, gate.name, pin, 0))
        elif kind in (GateType.OR, GateType.NOR):
            out_value = 1 if kind is GateType.OR else 0
            for pin in range(gate.fanin):
                uf.union(Fault(out, out_value), _branch_fault(circuit, gate.name, pin, 1))
        elif kind is GateType.NOT:
            uf.union(Fault(out, 0), _branch_fault(circuit, gate.name, 0, 1))
            uf.union(Fault(out, 1), _branch_fault(circuit, gate.name, 0, 0))
        elif kind in (GateType.BUF, GateType.DFF):
            uf.union(Fault(out, 0), _branch_fault(circuit, gate.name, 0, 0))
            uf.union(Fault(out, 1), _branch_fault(circuit, gate.name, 0, 1))

    # Single-fanout stems are the same line as their lone branch.
    for net in circuit.nets():
        readers = circuit.fanout_of(net)
        is_output = net in circuit.outputs
        if len(readers) == 1 and not is_output:
            gate = readers[0]
            pin = gate.inputs.index(net)
            uf.union(Fault(net, 0), _branch_fault(circuit, gate.name, pin, 0))
            uf.union(Fault(net, 1), _branch_fault(circuit, gate.name, pin, 1))
    return uf.classes()


def _class_representative(members: Sequence[Fault], circuit: Circuit) -> Fault:
    """Prefer stem faults closest to the inputs (stable, readable)."""
    def sort_key(fault: Fault):
        """Sort key."""
        stem_rank = 0 if fault.gate is None else 1
        try:
            level = circuit.level_of(fault.net)
        except Exception:
            level = 0
        return (stem_rank, level, fault.name)

    return min(members, key=sort_key)


def collapse_faults(circuit: Circuit) -> List[Fault]:
    """One representative fault per equivalence class."""
    return [
        _class_representative(members, circuit)
        for members in equivalence_classes(circuit)
    ]


def collapse_ratio(circuit: Circuit) -> float:
    """Collapsed / uncollapsed universe size."""
    universe = all_faults(circuit)
    classes = equivalence_classes(circuit)
    return len(classes) / len(universe) if universe else 1.0


def dominance_collapse(circuit: Circuit) -> List[Fault]:
    """Equivalence collapse followed by gate-local dominance pruning.

    Fault ``a`` dominates ``b`` when every test for ``b`` also detects
    ``a``; the dominated representative suffices.  Gate-local rule: an
    AND output SA1 dominates each input SA1, so the output fault can be
    dropped when an input-SA1 representative remains *and has a test*;
    dually for OR/NOR/NAND.  A redundant input fault covers nothing, so
    the drop waits for :class:`~repro.atpg.podem.PodemGenerator` to
    find a test for one of them; sequential circuits keep every
    equivalence representative.
    """
    classes = equivalence_classes(circuit)
    representative: Dict[Fault, Fault] = {}
    for members in classes:
        rep = _class_representative(members, circuit)
        for member in members:
            representative[member] = rep

    kept: Set[Fault] = set(representative.values())
    if not circuit.is_combinational:
        return sorted(kept, key=lambda f: f.name)
    from ..atpg.podem import PodemGenerator

    podem = PodemGenerator(circuit)
    for gate in circuit.gates:
        kind = gate.kind
        if kind in (GateType.AND, GateType.NAND):
            dominated_value = 1 if kind is GateType.AND else 0
            branch_value = 1
        elif kind in (GateType.OR, GateType.NOR):
            dominated_value = 0 if kind is GateType.OR else 1
            branch_value = 0
        else:
            continue
        out_fault = representative.get(Fault(gate.output, dominated_value))
        if out_fault is None or out_fault not in kept:
            continue
        # Output fault is dominated by any input-branch fault; drop it if
        # a dominating branch representative survives with a test and
        # the output is not directly observable (POs keep their faults).
        if gate.output in circuit.outputs:
            continue
        branch_reps = []
        for pin in range(gate.fanin):
            branch = Fault(gate.inputs[pin], branch_value, gate=gate.name, pin=pin)
            rep = representative.get(branch)
            if rep is not None and rep in kept and rep != out_fault:
                branch_reps.append(rep)
        if any(podem.generate(rep).found for rep in branch_reps):
            kept.discard(out_fault)
    return sorted(kept, key=lambda f: f.name)


def checkpoint_faults(circuit: Circuit) -> List[Fault]:
    """Checkpoint-theorem fault list: primary inputs + fanout branches.

    For an irredundant circuit, a test set detecting every checkpoint
    fault detects every stuck-at fault (To [50]).
    """
    checkpoints: List[Fault] = []
    for net in circuit.inputs:
        checkpoints.append(Fault(net, 0))
        checkpoints.append(Fault(net, 1))
    for net in circuit.nets():
        # Branches of any fanout stem are checkpoints — including the
        # branches of a fanning-out primary input.
        if circuit.fanout_count(net) > 1:
            for gate in set(circuit.fanout_of(net)):
                for pin, pin_net in enumerate(gate.inputs):
                    if pin_net != net:
                        continue
                    checkpoints.append(Fault(net, 0, gate=gate.name, pin=pin))
                    checkpoints.append(Fault(net, 1, gate=gate.name, pin=pin))
    return checkpoints
