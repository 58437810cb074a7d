"""The :class:`Circuit` netlist container.

A circuit is a set of named nets, each driven by exactly one source (a
primary input or a gate output), plus declared primary inputs and outputs.
Storage elements are ``DFF`` gates; their outputs are treated as
pseudo-primary-inputs and their inputs as pseudo-primary-outputs when the
combinational core is analyzed — exactly the decomposition that scan design
makes *physically real* (Fig. 9 of the paper).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .gates import Gate, GateType


class NetlistError(Exception):
    """Structural problem in a netlist (multiple drivers, cycles, ...)."""


@dataclass
class CircuitStats:
    """Size summary used by the economics models and reports."""

    name: str
    num_gates: int
    num_combinational: int
    num_flip_flops: int
    num_inputs: int
    num_outputs: int
    num_nets: int
    max_level: int
    max_fanin: int
    max_fanout: int

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.num_gates} gates "
            f"({self.num_combinational} comb, {self.num_flip_flops} FF), "
            f"{self.num_inputs} PI, {self.num_outputs} PO, "
            f"depth {self.max_level}, max fanin {self.max_fanin}, "
            f"max fanout {self.max_fanout}"
        )


class Circuit:
    """A gate-level netlist with single-driver nets.

    The class is deliberately mutable-while-building and then analyzed
    lazily: structural queries (levels, fanout, cones) are computed on
    demand and cached; any mutation invalidates the caches.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._gates: Dict[str, Gate] = {}
        self._driver: Dict[str, Gate] = {}
        self._input_set: Set[str] = set()
        self._caches_valid = False
        self._version = 0
        self._topo_order: List[Gate] = []
        self._levels: Dict[str, int] = {}
        self._fanout: Dict[str, List[Gate]] = {}
        self._cyclic_gates: List[str] = []
        # (version, digest) memo of repro.netlist.hashing.ordered_hash.
        self._ordered_hash: Optional[Tuple[int, str]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> str:
        """Declare ``net`` as a primary input and return its name."""
        if net in self._input_set:
            raise NetlistError(f"duplicate primary input {net!r}")
        if net in self._driver:
            raise NetlistError(f"net {net!r} is already driven by a gate")
        self._inputs.append(net)
        self._input_set.add(net)
        self._invalidate()
        return net

    def add_inputs(self, nets: Iterable[str]) -> List[str]:
        """Declare several primary inputs, returning their names."""
        return [self.add_input(net) for net in nets]

    def add_output(self, net: str) -> str:
        """Declare ``net`` as a primary output (it may also feed logic)."""
        if net in self._outputs:
            raise NetlistError(f"duplicate primary output {net!r}")
        self._outputs.append(net)
        self._invalidate()
        return net

    def add_gate(
        self,
        kind: GateType,
        inputs: Sequence[str],
        output: str,
        name: Optional[str] = None,
    ) -> Gate:
        """Add a gate driving ``output`` from ``inputs``.

        Gate names default to the output net name, which matches the
        bench-format convention where a line reads ``out = AND(a, b)``.
        """
        gate_name = name if name is not None else output
        if gate_name in self._gates:
            raise NetlistError(f"duplicate gate name {gate_name!r}")
        if output in self._driver:
            raise NetlistError(f"net {output!r} already has a driver")
        if output in self._input_set:
            raise NetlistError(f"net {output!r} is a primary input")
        gate = Gate(gate_name, kind, tuple(inputs), output)
        self._gates[gate_name] = gate
        self._driver[output] = gate
        self._invalidate()
        return gate

    # Convenience wrappers keep example/circuit-generator code readable.
    def and_(self, inputs: Sequence[str], output: str, name: Optional[str] = None) -> Gate:
        """And ."""
        return self.add_gate(GateType.AND, inputs, output, name)

    def nand(self, inputs: Sequence[str], output: str, name: Optional[str] = None) -> Gate:
        """Add a NAND gate."""
        return self.add_gate(GateType.NAND, inputs, output, name)

    def or_(self, inputs: Sequence[str], output: str, name: Optional[str] = None) -> Gate:
        """Or ."""
        return self.add_gate(GateType.OR, inputs, output, name)

    def nor(self, inputs: Sequence[str], output: str, name: Optional[str] = None) -> Gate:
        """Add a NOR gate."""
        return self.add_gate(GateType.NOR, inputs, output, name)

    def xor(self, inputs: Sequence[str], output: str, name: Optional[str] = None) -> Gate:
        """Add an XOR gate."""
        return self.add_gate(GateType.XOR, inputs, output, name)

    def xnor(self, inputs: Sequence[str], output: str, name: Optional[str] = None) -> Gate:
        """Add an XNOR gate."""
        return self.add_gate(GateType.XNOR, inputs, output, name)

    def not_(self, input_net: str, output: str, name: Optional[str] = None) -> Gate:
        """Not ."""
        return self.add_gate(GateType.NOT, [input_net], output, name)

    def buf(self, input_net: str, output: str, name: Optional[str] = None) -> Gate:
        """Add a buffer."""
        return self.add_gate(GateType.BUF, [input_net], output, name)

    def dff(self, data: str, output: str, name: Optional[str] = None) -> Gate:
        """Add a D flip-flop (implicit global clock)."""
        return self.add_gate(GateType.DFF, [data], output, name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary input nets, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary output nets, in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """All gates, in insertion order."""
        return tuple(self._gates.values())

    def gate(self, name: str) -> Gate:
        """Look up a gate by name."""
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"no gate named {name!r}") from None

    def has_gate(self, name: str) -> bool:
        """Has gate."""
        return name in self._gates

    def driver_of(self, net: str) -> Optional[Gate]:
        """Gate driving ``net``, or None when it is a primary input."""
        return self._driver.get(net)

    def is_input(self, net: str) -> bool:
        """Is input."""
        return net in self._input_set

    def nets(self) -> List[str]:
        """All net names: primary inputs first, then gate outputs."""
        return list(self._inputs) + [g.output for g in self._gates.values()]

    @property
    def flip_flops(self) -> List[Gate]:
        """Flip flops."""
        return [g for g in self._gates.values() if g.kind is GateType.DFF]

    @property
    def combinational_gates(self) -> List[Gate]:
        """Combinational gates."""
        return [g for g in self._gates.values() if g.kind is not GateType.DFF]

    @property
    def is_combinational(self) -> bool:
        """Is combinational."""
        return not any(g.kind is GateType.DFF for g in self._gates.values())

    def __len__(self) -> int:
        return len(self._gates)

    def __contains__(self, net: str) -> bool:
        return net in self._input_set or net in self._driver

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, gates={len(self._gates)}, "
            f"inputs={len(self._inputs)}, outputs={len(self._outputs)})"
        )

    # ------------------------------------------------------------------
    # Structural analysis
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._caches_valid = False
        self._version += 1

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Incremented on every netlist mutation (gate/input/output added).
        The in-process structure cache keys on
        :func:`repro.netlist.hashing.ordered_hash`, memoized per version,
        so a mutated netlist is re-keyed and never served stale state.
        """
        return self._version

    def _ensure_analyzed(self) -> None:
        if not self._caches_valid:
            self._analyze()

    def _analyze(self) -> None:
        self.validate()
        fanout: Dict[str, List[Gate]] = {net: [] for net in self.nets()}
        for gate in self._gates.values():
            for net in gate.inputs:
                fanout[net].append(gate)
        self._fanout = fanout

        # Levelize the combinational core; DFF outputs are level-0 sources
        # alongside primary inputs, DFFs themselves consume their D input
        # but do not propagate level (they cut the graph).
        levels: Dict[str, int] = {}
        for net in self._inputs:
            levels[net] = 0
        for gate in self._gates.values():
            if gate.kind is GateType.DFF:
                levels[gate.output] = 0

        in_degree: Dict[str, int] = {}
        ready: deque = deque()
        for gate in self._gates.values():
            if gate.kind is GateType.DFF:
                continue
            missing = sum(1 for net in gate.inputs if net not in levels)
            in_degree[gate.name] = missing
            if missing == 0:
                ready.append(gate)

        order: List[Gate] = []
        while ready:
            gate = ready.popleft()
            order.append(gate)
            level = 1 + max((levels[n] for n in gate.inputs), default=0)
            levels[gate.output] = level
            for successor in fanout.get(gate.output, ()):
                if successor.kind is GateType.DFF:
                    continue
                in_degree[successor.name] -= 1
                if in_degree[successor.name] == 0:
                    ready.append(successor)

        # Gates left unplaced sit on combinational cycles (cross-coupled
        # latch structures are legitimate at the event-simulation level;
        # the levelized engines refuse them via topological_order()).
        self._cyclic_gates = sorted(
            name for name, deg in in_degree.items() if deg > 0
        )
        self._topo_order = order
        self._levels = levels
        self._caches_valid = True

    def validate(self) -> None:
        """Raise :class:`NetlistError` on dangling input nets."""
        known = set(self._input_set)
        known.update(self._driver)
        for gate in self._gates.values():
            for net in gate.inputs:
                if net not in known:
                    raise NetlistError(
                        f"gate {gate.name!r} reads undriven net {net!r}"
                    )
        for net in self._outputs:
            if net not in known:
                raise NetlistError(f"primary output {net!r} is undriven")

    @property
    def cyclic_gates(self) -> List[str]:
        """Gates on combinational feedback loops (latch structures)."""
        self._ensure_analyzed()
        return list(self._cyclic_gates)

    @property
    def has_combinational_cycles(self) -> bool:
        """Has combinational cycles."""
        self._ensure_analyzed()
        return bool(self._cyclic_gates)

    def topological_order(self) -> List[Gate]:
        """Combinational gates in evaluation order (DFFs excluded).

        Raises for circuits with combinational feedback — those can only
        be handled by the event-driven simulator.
        """
        self._ensure_analyzed()
        if self._cyclic_gates:
            raise NetlistError(
                "combinational cycle involving gates: "
                + ", ".join(self._cyclic_gates[:10])
            )
        return list(self._topo_order)

    def level_of(self, net: str) -> int:
        """Logic depth of a net (0 for PIs and flip-flop outputs)."""
        self._ensure_analyzed()
        try:
            return self._levels[net]
        except KeyError:
            raise NetlistError(f"unknown net {net!r}") from None

    def depth(self) -> int:
        """Maximum combinational logic depth in the circuit."""
        self._ensure_analyzed()
        return max(self._levels.values(), default=0)

    def fanout_of(self, net: str) -> List[Gate]:
        """Gates reading ``net``."""
        self._ensure_analyzed()
        return list(self._fanout.get(net, ()))

    def fanout_count(self, net: str) -> int:
        """Fanout count."""
        self._ensure_analyzed()
        count = len(self._fanout.get(net, ()))
        if net in self._outputs:
            count += 1
        return count

    def is_fanout_stem(self, net: str) -> bool:
        """True when a net feeds more than one sink (fanout point)."""
        return self.fanout_count(net) > 1

    # ------------------------------------------------------------------
    # Cones and cuts
    # ------------------------------------------------------------------
    def input_cone(self, net: str) -> Set[str]:
        """All nets in the transitive fanin of ``net`` (inclusive).

        The backtrace stops at primary inputs and flip-flop outputs —
        the same rule NEC's Scan Path partitioner uses to carve the
        combinational logic into per-flip-flop partitions (Section IV-B).
        """
        self._ensure_analyzed()
        seen: Set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            driver = self._driver.get(current)
            if driver is None or driver.kind is GateType.DFF:
                continue
            stack.extend(driver.inputs)
        return seen

    def cone_inputs(self, net: str) -> List[str]:
        """Primary-input / FF-output sources feeding ``net``'s cone."""
        cone = self.input_cone(net)
        sources = []
        for candidate in cone:
            driver = self._driver.get(candidate)
            if driver is None or driver.kind is GateType.DFF:
                sources.append(candidate)
        return sorted(sources)

    def output_cone(self, net: str) -> Set[str]:
        """All nets in the transitive fanout of ``net`` (inclusive)."""
        self._ensure_analyzed()
        seen: Set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for gate in self._fanout.get(current, ()):
                if gate.kind is GateType.DFF:
                    continue
                stack.append(gate.output)
        return seen

    def extract_cone(self, net: str, name: Optional[str] = None) -> "Circuit":
        """Build a standalone circuit computing ``net`` from its cone."""
        cone = self.input_cone(net)
        sub = Circuit(name or f"{self.name}_cone_{net}")
        for source in self.cone_inputs(net):
            sub.add_input(source)
        for gate in self.topological_order():
            if gate.output in cone:
                sub.add_gate(gate.kind, gate.inputs, gate.output, gate.name)
        sub.add_output(net)
        return sub

    # ------------------------------------------------------------------
    # Combinational view of a sequential circuit
    # ------------------------------------------------------------------
    def combinational_core(self, name: Optional[str] = None) -> "Circuit":
        """Cut every flip-flop, exposing PPIs and PPOs.

        Returns a purely combinational circuit in which each flip-flop
        ``f`` contributes a pseudo-primary-input named after its output
        net and a pseudo-primary-output named after its data net.  This
        is the network a scan-based ATPG targets (the reward of LSSD /
        Scan Path per Section IV: "the network can now be thought of as
        purely combinational").
        """
        core = Circuit(name or f"{self.name}_core")
        for net in self._inputs:
            core.add_input(net)
        for flop in self.flip_flops:
            core.add_input(flop.output)
        for gate in self.topological_order():
            core.add_gate(gate.kind, gate.inputs, gate.output, gate.name)
        for net in self._outputs:
            core.add_output(net)
        for flop in self.flip_flops:
            data_net = flop.inputs[0]
            if data_net not in core._outputs:
                core.add_output(data_net)
        return core

    def pseudo_inputs(self) -> List[str]:
        """Flip-flop output nets (PPIs of the combinational core)."""
        return [flop.output for flop in self.flip_flops]

    def pseudo_outputs(self) -> List[str]:
        """Flip-flop data nets (PPOs of the combinational core)."""
        return [flop.inputs[0] for flop in self.flip_flops]

    # ------------------------------------------------------------------
    # Copying / renaming
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Structural copy (same nets and gate names)."""
        dup = Circuit(name or self.name)
        for net in self._inputs:
            dup.add_input(net)
        for gate in self._gates.values():
            dup.add_gate(gate.kind, gate.inputs, gate.output, gate.name)
        for net in self._outputs:
            dup.add_output(net)
        return dup

    def renamed(self, prefix: str, name: Optional[str] = None) -> "Circuit":
        """Copy with every net/gate name prefixed (for stitching boards)."""
        dup = Circuit(name or f"{prefix}{self.name}")
        mapping = {net: prefix + net for net in self.nets()}
        for net in self._inputs:
            dup.add_input(mapping[net])
        for gate in self._gates.values():
            dup.add_gate(
                gate.kind,
                [mapping[n] for n in gate.inputs],
                mapping[gate.output],
                prefix + gate.name,
            )
        for net in self._outputs:
            dup.add_output(mapping[net])
        return dup

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> CircuitStats:
        """Size/shape summary of the netlist."""
        self._ensure_analyzed()
        fanouts = [self.fanout_count(net) for net in self.nets()]
        fanins = [gate.fanin for gate in self._gates.values()]
        return CircuitStats(
            name=self.name,
            num_gates=len(self._gates),
            num_combinational=len(self.combinational_gates),
            num_flip_flops=len(self.flip_flops),
            num_inputs=len(self._inputs),
            num_outputs=len(self._outputs),
            num_nets=len(self.nets()),
            max_level=self.depth(),
            max_fanin=max(fanins, default=0),
            max_fanout=max(fanouts, default=0),
        )
