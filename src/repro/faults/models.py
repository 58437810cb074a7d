"""Unified fault-model abstraction: one grading path for every model.

The paper's §I-A is explicit that the single stuck-at model "does not,
in general, cover" bridges, delay defects, or the CMOS stuck-open
faults that turn combinational logic sequential.  This module makes the
other models first-class citizens of every fault-simulation entry point
without touching a single engine: each non-stuck-at model **reduces to
circuit rewrite + stuck-at grading**.

The reduction is the *enable-input* construction.  For every model
fault an activation net ``en`` is driven by a CONST0 gate and a small
gadget is spliced into the circuit such that

* with ``en = 0`` (the good machine) the gadget is the identity — the
  composite computes exactly the original function;
* with ``en`` stuck at 1 the gadget realizes the model fault's faulty
  behaviour.

Grading the ordinary stem fault ``en/SA1`` on the composite is then
*equivalent* to grading the model fault on the original circuit — so
every engine (serial, deductive, parallel-fault, parallel-pattern,
WIDE), the sharded executor's bit-identical fault-axis merge, PODEM /
D-algorithm targeting, compaction and the content-addressed store all
work unchanged, because the graded objects are plain
:class:`~repro.faults.stuck_at.Fault` instances.  Because ``en`` hangs
off a CONST0 gate rather than a primary input, random patterns and
ATPG need no constraint machinery: the fault site auto-activates under
stuck-at-1 injection.

Per model:

* **bridging** — per bridge ``(a, b)`` a wired-AND/OR gate ``w`` reads
  both nets and a per-net multiplexer ``sel = en ? w : net`` replaces
  every reader (the single-bridge case is exactly
  :func:`~repro.faults.bridging.apply_bridging_fault`, which the
  differential tests hold it to).  Two individually feedback-free
  bridges can *jointly* close a combinational cycle, so the universe is
  vetted by contracting each bridged pair (union-find) and checking
  the quotient structural graph stays acyclic — sampled universes drop
  offenders (counted), explicit fault lists raise.
* **transition** — the composite is a two-frame unroll: each primary
  input ``n`` becomes ``n@1``/``n@2`` and one shipped pattern is one
  launch pair (V1, V2).  The gadget forces the frame-2 site to the
  fault's frozen value exactly when V1 establishes the initial value
  and V2 launches the transition — the
  :class:`~repro.atpg.delay.TransitionFaultSimulator` pair semantics,
  gate for gate.
* **cmos_stuck_open** — also two-frame.  The gadget replays the
  charge-retention defect: when the faulted gate's output floats under
  V2 (and was *driven* under V1 — a float under both frames is
  conservatively undetected), the frame-2 output is replaced by the
  retained frame-1 value.  Float conditions come from the switch-level
  realization in :mod:`repro.faults.cmos`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType
from .stuck_at import Fault, all_faults
from .bridging import BridgeKind, BridgingFault, random_bridges
from .cmos import (
    CMOS_SUPPORTED_KINDS,
    CmosStuckOpenFault,
    all_cmos_stuck_open_faults,
)

__all__ = [
    "FaultModel",
    "UnsupportedFaultModelError",
    "FaultModelPlan",
    "plan_fault_model",
    "DEFAULT_BRIDGE_COUNT",
]

#: Default sample size for the bridging model's seeded fault universe.
DEFAULT_BRIDGE_COUNT = 32


class FaultModel(enum.Enum):
    """The fault models every fault-sim entry point accepts."""

    STUCK_AT = "stuck_at"
    BRIDGING = "bridging"
    CMOS_STUCK_OPEN = "cmos_stuck_open"
    TRANSITION = "transition"

    @classmethod
    def coerce(cls, value: Union[str, "FaultModel"]) -> "FaultModel":
        """Accept an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise UnsupportedFaultModelError(
                f"unknown fault model {value!r}; "
                f"available: {[m.value for m in cls]}"
            ) from None


class UnsupportedFaultModelError(ValueError):
    """A fault model was asked of a flow/engine that cannot honor it."""


@dataclass
class FaultModelPlan:
    """One model's reduction: composite circuit + gradeable fault list.

    ``circuit`` is what the engines simulate (the source itself for
    stuck-at); ``faults`` are the ordinary stuck-at faults to grade on
    it, one per entry of ``model_faults``; ``fault_names`` maps each
    graded fault back to its model fault's name.  ``two_pattern`` marks
    the two-frame models whose composite patterns are (V1, V2) pairs —
    each composite input is ``"{net}@1"`` or ``"{net}@2"``.
    """

    model: FaultModel
    source: Circuit
    circuit: Circuit
    faults: List[Fault]
    model_faults: List[Any]
    fault_names: Dict[Fault, str]
    two_pattern: bool = False
    reduction: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_reduction(self) -> bool:
        """Did this plan rewrite the circuit (non-stuck-at models)?"""
        return self.model is not FaultModel.STUCK_AT

    def model_fault_name(self, fault: Fault) -> str:
        """The model fault a graded stuck-at fault stands for."""
        return self.fault_names.get(fault, fault.name)

    def section(self) -> Dict[str, Any]:
        """The manifest's validated ``fault_model`` section."""
        data: Dict[str, Any] = {
            "model": self.model.value,
            "faults": len(self.faults),
            "reduction": None,
        }
        if self.is_reduction:
            data["reduction"] = dict(
                self.reduction,
                composite_gates=len(self.circuit.gates),
                source_gates=len(self.source.gates),
                two_pattern=self.two_pattern,
            )
        return data


# ----------------------------------------------------------------------
# Shared construction helpers
# ----------------------------------------------------------------------
class _Builder:
    """Fresh-name bookkeeping over a composite under construction."""

    def __init__(self, circuit: Circuit, used: set) -> None:
        self.circuit = circuit
        self.used = used

    def fresh(self, base: str) -> str:
        name = base
        while name in self.used:
            name += "_"
        self.used.add(name)
        return name

    def gate(self, kind: GateType, inputs: Sequence[str], base: str) -> str:
        """Add one gate on a fresh output net; returns the net name."""
        out = self.fresh(base)
        self.circuit.add_gate(kind, list(inputs), out, out)
        return out

    def reduce(self, kind: GateType, inputs: Sequence[str], base: str) -> str:
        """AND/OR of possibly one net: aliases instead of 1-input gates."""
        if len(inputs) == 1 and kind in (GateType.AND, GateType.OR):
            return inputs[0]
        return self.gate(kind, inputs, base)


def _collect_names(circuit: Circuit) -> set:
    return set(circuit.nets()) | {gate.name for gate in circuit.gates}


def _quotient_cyclic(circuit: Circuit, pairs: Sequence[Tuple[str, str]]) -> bool:
    """Would contracting each bridged pair close a combinational cycle?

    Conservative (a cyclic quotient may overapproximate), but exact for
    the gadget's dependency pattern: a bridge makes every reader of
    either net depend on the drivers of both.
    """
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        parent[find(a)] = find(b)

    adjacency: Dict[str, set] = {}
    indegree: Dict[str, int] = {}
    for gate in circuit.gates:
        out = find(gate.output)
        indegree.setdefault(out, 0)
        for net in gate.inputs:
            source = find(net)
            indegree.setdefault(source, 0)
            if source == out:
                return True  # a gate inside one merged class
            if out not in adjacency.setdefault(source, set()):
                adjacency[source].add(out)
                indegree[out] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for succ in adjacency.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return seen != len(indegree)


# ----------------------------------------------------------------------
# Bridging
# ----------------------------------------------------------------------
def _vet_bridges(
    circuit: Circuit, bridges: Sequence[BridgingFault], sampled: bool
) -> Tuple[List[BridgingFault], int]:
    """Cycle-safe subset of a bridge universe (see module docstring).

    Sampled universes drop offenders greedily (deterministic order,
    count returned); an explicit list with an offender raises.
    """
    accepted: List[BridgingFault] = []
    pairs: List[Tuple[str, str]] = []
    dropped = 0
    for bridge in bridges:
        candidate = pairs + [(bridge.net_a, bridge.net_b)]
        if _quotient_cyclic(circuit, candidate):
            if not sampled:
                raise UnsupportedFaultModelError(
                    f"bridge {bridge.name} would close a combinational "
                    f"cycle in the composite (jointly with the other "
                    f"bridges in the list)"
                )
            dropped += 1
            continue
        pairs = candidate
        accepted.append(bridge)
    return accepted, dropped


def _build_bridging(
    circuit: Circuit, bridges: Sequence[BridgingFault], dropped: int
) -> FaultModelPlan:
    composite = Circuit(f"{circuit.name}@bridging")
    for net in circuit.inputs:
        composite.add_input(net)
    build = _Builder(composite, _collect_names(circuit))

    remap: Dict[str, str] = {}
    faults: List[Fault] = []
    fault_names: Dict[Fault, str] = {}
    for index, bridge in enumerate(bridges):
        prefix = f"__fm{index}"
        kind = (
            GateType.AND if bridge.kind is BridgeKind.WIRED_AND else GateType.OR
        )
        read_a = remap.get(bridge.net_a, bridge.net_a)
        read_b = remap.get(bridge.net_b, bridge.net_b)
        wired = build.gate(kind, [read_a, read_b], f"{prefix}_w")
        enable = build.gate(GateType.CONST0, [], f"{prefix}_en")
        disable = build.gate(GateType.NOT, [enable], f"{prefix}_nen")
        for net in (bridge.net_a, bridge.net_b):
            keep = build.gate(
                GateType.AND, [remap.get(net, net), disable], f"{prefix}_keep"
            )
            take = build.gate(GateType.AND, [wired, enable], f"{prefix}_take")
            remap[net] = build.gate(GateType.OR, [keep, take], f"{prefix}_sel")
        graded = Fault(enable, 1)
        faults.append(graded)
        fault_names[graded] = bridge.name

    for gate in circuit.gates:
        composite.add_gate(
            gate.kind,
            [remap.get(net, net) for net in gate.inputs],
            gate.output,
            gate.name,
        )
    for net in circuit.outputs:
        composite.add_output(remap.get(net, net))
    composite.validate()
    return FaultModelPlan(
        model=FaultModel.BRIDGING,
        source=circuit,
        circuit=composite,
        faults=faults,
        model_faults=list(bridges),
        fault_names=fault_names,
        two_pattern=False,
        reduction={"bridges": len(bridges), "cycle_dropped": dropped},
    )


# ----------------------------------------------------------------------
# Two-frame unroll (shared by transition and cmos_stuck_open)
# ----------------------------------------------------------------------
def _unroll_two_frames(circuit: Circuit, name: str) -> Circuit:
    """Two independent frame copies; nets suffixed ``@1`` / ``@2``.

    Frame 2's gate *inputs* are left un-suffixed-remapped by the
    caller's gadget pass — this helper only lays down both fault-free
    frames; gadget selection nets are spliced in afterwards by
    rebuilding frame 2 (see the builders).
    """
    composite = Circuit(name)
    for net in circuit.inputs:
        composite.add_input(f"{net}@1")
        composite.add_input(f"{net}@2")
    for gate in circuit.gates:
        composite.add_gate(
            gate.kind,
            [f"{net}@1" for net in gate.inputs],
            f"{gate.output}@1",
            f"{gate.name}@1",
        )
    return composite


def _build_transition(circuit: Circuit, tfaults: Sequence[Any]) -> FaultModelPlan:
    from ..atpg.delay import Edge, TransitionFault

    composite = _unroll_two_frames(circuit, f"{circuit.name}@transition")
    build = _Builder(
        composite,
        {f"{n}@{f}" for n in circuit.nets() for f in (1, 2)}
        | {f"{g.name}@{f}" for g in circuit.gates for f in (1, 2)},
    )

    remap: Dict[str, str] = {}  # frame-2 net -> gadget-selected net
    faults: List[Fault] = []
    fault_names: Dict[Fault, str] = {}
    for index, tfault in enumerate(tfaults):
        prefix = f"__fm{index}"
        site1 = f"{tfault.net}@1"
        site2 = f"{tfault.net}@2"
        cur = remap.get(site2, site2)
        enable = build.gate(GateType.CONST0, [], f"{prefix}_en")
        if tfault.edge is Edge.RISE:
            # Activate when V1 holds 0 and V2 launches 1; the frozen
            # frame-2 value is 0, so selection is an AND mask.
            init_ok = build.gate(GateType.NOT, [site1], f"{prefix}_i")
            cond = build.gate(GateType.AND, [init_ok, cur], f"{prefix}_c")
            active = build.gate(GateType.AND, [enable, cond], f"{prefix}_act")
            off = build.gate(GateType.NOT, [active], f"{prefix}_nact")
            sel = build.gate(GateType.AND, [cur, off], f"{prefix}_sel")
        else:
            # Slow-to-fall: V1 holds 1, V2 launches 0, frozen value 1.
            launch_ok = build.gate(GateType.NOT, [cur], f"{prefix}_l")
            cond = build.gate(GateType.AND, [site1, launch_ok], f"{prefix}_c")
            active = build.gate(GateType.AND, [enable, cond], f"{prefix}_act")
            sel = build.gate(GateType.OR, [cur, active], f"{prefix}_sel")
        remap[site2] = sel
        graded = Fault(enable, 1)
        faults.append(graded)
        fault_names[graded] = tfault.name

    for gate in circuit.gates:
        composite.add_gate(
            gate.kind,
            [remap.get(f"{net}@2", f"{net}@2") for net in gate.inputs],
            f"{gate.output}@2",
            f"{gate.name}@2",
        )
    for net in circuit.outputs:
        frame2 = f"{net}@2"
        composite.add_output(remap.get(frame2, frame2))
    composite.validate()
    return FaultModelPlan(
        model=FaultModel.TRANSITION,
        source=circuit,
        circuit=composite,
        faults=faults,
        model_faults=list(tfaults),
        fault_names=fault_names,
        two_pattern=True,
        reduction={"transition_faults": len(tfaults)},
    )


# ----------------------------------------------------------------------
# CMOS stuck-open
# ----------------------------------------------------------------------
def _float_net(
    build: _Builder,
    kind: str,
    pins: List[str],
    fault: CmosStuckOpenFault,
    base: str,
) -> str:
    """Structural float condition (mirrors cmos.stuck_open_floats)."""
    if kind == "NOT":
        (pin,) = pins
        if fault.network == "N":
            return pin
        return build.gate(GateType.NOT, [pin], base)
    if kind == "NAND":
        if fault.network == "N":
            return build.reduce(GateType.AND, pins, base)
        conducts_down = build.reduce(GateType.AND, pins, f"{base}_d")
        others = [p for i, p in enumerate(pins) if i != fault.pin]
        inverted = [
            build.gate(GateType.NOT, [p], f"{base}_n{i}")
            for i, p in enumerate(others)
        ]
        conducts_up = build.reduce(GateType.OR, inverted, f"{base}_u")
        return build.gate(GateType.NOR, [conducts_down, conducts_up], base)
    if kind == "NOR":
        if fault.network == "P":
            return build.gate(GateType.NOR, pins, base)
        conducts_up = build.gate(GateType.NOR, pins, f"{base}_u")
        others = [p for i, p in enumerate(pins) if i != fault.pin]
        conducts_down = build.reduce(GateType.OR, others, f"{base}_d")
        return build.gate(GateType.NOR, [conducts_down, conducts_up], base)
    raise UnsupportedFaultModelError(
        f"no CMOS stuck-open realization for gate kind {kind!r}"
    )


def _build_cmos(
    circuit: Circuit, cfaults: Sequence[CmosStuckOpenFault]
) -> FaultModelPlan:
    gate_by_name = {gate.name: gate for gate in circuit.gates}
    for fault in cfaults:
        gate = gate_by_name.get(fault.gate)
        if gate is None:
            raise UnsupportedFaultModelError(
                f"{fault.name}: no gate named {fault.gate!r} in "
                f"{circuit.name!r}"
            )
        if gate.kind.value not in CMOS_SUPPORTED_KINDS:
            raise UnsupportedFaultModelError(
                f"{fault.name}: gate kind {gate.kind.value} has no "
                f"single-stage CMOS realization "
                f"(supported: {CMOS_SUPPORTED_KINDS})"
            )

    composite = _unroll_two_frames(circuit, f"{circuit.name}@cmos_stuck_open")
    build = _Builder(
        composite,
        {f"{n}@{f}" for n in circuit.nets() for f in (1, 2)}
        | {f"{g.name}@{f}" for g in circuit.gates for f in (1, 2)},
    )

    remap: Dict[str, str] = {}
    faults: List[Fault] = []
    fault_names: Dict[Fault, str] = {}
    for index, cfault in enumerate(cfaults):
        prefix = f"__fm{index}"
        gate = gate_by_name[cfault.gate]
        kind = gate.kind.value
        pins1 = [f"{net}@1" for net in gate.inputs]
        pins2 = [remap.get(f"{net}@2", f"{net}@2") for net in gate.inputs]
        float1 = _float_net(build, kind, pins1, cfault, f"{prefix}_f1")
        float2 = _float_net(build, kind, pins2, cfault, f"{prefix}_f2")
        enable = build.gate(GateType.CONST0, [], f"{prefix}_en")
        # Retained value is trustworthy only when V1 *drove* the node:
        # a float under both frames is conservatively undetected.
        driven1 = build.gate(GateType.NOT, [float1], f"{prefix}_d1")
        active = build.gate(
            GateType.AND, [enable, float2, driven1], f"{prefix}_act"
        )
        out1 = f"{gate.output}@1"
        out2 = remap.get(f"{gate.output}@2", f"{gate.output}@2")
        retain = build.gate(GateType.AND, [out1, active], f"{prefix}_ret")
        off = build.gate(GateType.NOT, [active], f"{prefix}_nact")
        keep = build.gate(GateType.AND, [out2, off], f"{prefix}_keep")
        sel = build.gate(GateType.OR, [retain, keep], f"{prefix}_sel")
        remap[f"{gate.output}@2"] = sel
        graded = Fault(enable, 1)
        faults.append(graded)
        fault_names[graded] = cfault.name

    for gate in circuit.gates:
        composite.add_gate(
            gate.kind,
            [remap.get(f"{net}@2", f"{net}@2") for net in gate.inputs],
            f"{gate.output}@2",
            f"{gate.name}@2",
        )
    for net in circuit.outputs:
        frame2 = f"{net}@2"
        composite.add_output(remap.get(frame2, frame2))
    composite.validate()
    return FaultModelPlan(
        model=FaultModel.CMOS_STUCK_OPEN,
        source=circuit,
        circuit=composite,
        faults=faults,
        model_faults=list(cfaults),
        fault_names=fault_names,
        two_pattern=True,
        reduction={"stuck_open_faults": len(cfaults)},
    )


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
def plan_fault_model(
    circuit: Circuit,
    fault_model: Union[str, FaultModel] = FaultModel.STUCK_AT,
    faults: Optional[Sequence[Any]] = None,
    collapse: bool = True,
    seed: int = 0,
    bridge_count: int = DEFAULT_BRIDGE_COUNT,
) -> FaultModelPlan:
    """Resolve a fault model to a gradeable (circuit, fault list) pair.

    ``faults`` is a model-typed fault list — ``Fault`` for stuck-at,
    ``BridgingFault``, ``TransitionFault`` or ``CmosStuckOpenFault``
    for the others; ``None`` takes each model's default universe
    (collapsed stuck-at list, ``bridge_count`` seeded bridges, two
    transition faults per net, the collapsed stuck-open universe).
    ``seed`` only affects the sampled bridging default.  Non-stuck-at
    models require a combinational circuit (scan flows pass the
    extracted core).
    """
    model = FaultModel.coerce(fault_model)
    if model is FaultModel.STUCK_AT:
        if faults is None:
            from ..faultsim.expand import netlist_structure

            faults = netlist_structure(circuit).collapsed(circuit) if collapse else all_faults(circuit)
        fault_list = list(faults)
        return FaultModelPlan(
            model=model,
            source=circuit,
            circuit=circuit,
            faults=fault_list,
            model_faults=list(fault_list),
            fault_names={fault: fault.name for fault in fault_list},
        )
    if not circuit.is_combinational:
        raise UnsupportedFaultModelError(
            f"fault model {model.value!r} needs a combinational circuit; "
            f"{circuit.name!r} is sequential (scan flows grade the "
            f"extracted combinational core)"
        )
    if model is FaultModel.BRIDGING:
        sampled = faults is None
        if sampled:
            bridges: Sequence[BridgingFault] = random_bridges(
                circuit, bridge_count, seed=seed, allow_fewer=True
            )
        else:
            bridges = list(faults)
            for bridge in bridges:
                if not isinstance(bridge, BridgingFault):
                    raise UnsupportedFaultModelError(
                        f"bridging fault list entries must be "
                        f"BridgingFault, got {type(bridge).__name__}"
                    )
        vetted, dropped = _vet_bridges(circuit, bridges, sampled)
        return _build_bridging(circuit, vetted, dropped)
    if model is FaultModel.TRANSITION:
        from ..atpg.delay import TransitionFault, all_transition_faults

        if faults is None:
            tfaults: Sequence[Any] = all_transition_faults(circuit)
        else:
            tfaults = list(faults)
            for tfault in tfaults:
                if not isinstance(tfault, TransitionFault):
                    raise UnsupportedFaultModelError(
                        f"transition fault list entries must be "
                        f"TransitionFault, got {type(tfault).__name__}"
                    )
        return _build_transition(circuit, tfaults)
    cfaults = (
        all_cmos_stuck_open_faults(circuit) if faults is None else list(faults)
    )
    for cfault in cfaults:
        if not isinstance(cfault, CmosStuckOpenFault):
            raise UnsupportedFaultModelError(
                f"cmos_stuck_open fault list entries must be "
                f"CmosStuckOpenFault, got {type(cfault).__name__}"
            )
    return _build_cmos(circuit, cfaults)
