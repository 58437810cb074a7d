"""Bridging faults (§I-A, Mei [43]).

A bridging fault shorts two nets; in the wired-logic abstraction the
short behaves as a wired-AND or wired-OR of the two signals.  The paper
notes the single stuck-at model "does not, in general, cover" bridges,
but that historically a test set with stuck-at coverage in the high 90s
also detects most of them — the benchmark regenerates that observation
by Monte-Carlo sampling bridges and fault-simulating the stuck-at set.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType


class BridgeKind(enum.Enum):
    """BridgeKind: see the module docstring for context."""
    WIRED_AND = "AND"
    WIRED_OR = "OR"


@dataclass(frozen=True)
class BridgingFault:
    """A short between two distinct nets with wired-AND/OR semantics."""

    net_a: str
    net_b: str
    kind: BridgeKind

    def __post_init__(self) -> None:
        if self.net_a == self.net_b:
            raise ValueError("a bridge needs two distinct nets")
        # A short is an unordered pair: canonicalize so (a, b) and
        # (b, a) are the *same* fault — same name, same hash — and
        # dedup/cache keys can never split one defect into two.
        if self.net_a > self.net_b:
            low, high = self.net_b, self.net_a
            object.__setattr__(self, "net_a", low)
            object.__setattr__(self, "net_b", high)

    @property
    def name(self) -> str:
        """Stable human-readable identifier."""
        return f"BRIDGE-{self.kind.value}({self.net_a},{self.net_b})"


def apply_bridging_fault(circuit: Circuit, fault: BridgingFault) -> Circuit:
    """Build the faulty circuit for a bridge.

    Every reader of either bridged net is rewired to read the wired
    function of both.  Feedback bridges (one net in the other's cone)
    would create a cycle — they are rejected, mirroring the industry
    habit of excluding feedback bridges from combinational analysis.
    """
    cone_a = circuit.input_cone(fault.net_a)
    cone_b = circuit.input_cone(fault.net_b)
    if fault.net_a in cone_b or fault.net_b in cone_a:
        raise ValueError(f"{fault.name} is a feedback bridge")

    wired = fresh_net_name(circuit, f"__bridge_{fault.net_a}_{fault.net_b}")
    gate_kind = GateType.AND if fault.kind is BridgeKind.WIRED_AND else GateType.OR

    faulty = Circuit(f"{circuit.name}+{fault.name}")
    for net in circuit.inputs:
        faulty.add_input(net)
    bridged = {fault.net_a, fault.net_b}

    def remap(net: str) -> str:
        """Route reads of a bridged net to the wired gate."""
        return wired if net in bridged else net

    for gate in circuit.gates:
        faulty.add_gate(
            gate.kind, [remap(n) for n in gate.inputs], gate.output, gate.name
        )
    faulty.add_gate(gate_kind, [fault.net_a, fault.net_b], wired, wired)
    emitted = set()
    for net in circuit.outputs:
        target = remap(net)
        if target in emitted:
            # Both bridged nets are primary outputs: alias the second
            # through a BUF so the output list stays duplicate-free.
            alias = fresh_net_name(faulty, f"{wired}_{net}")
            faulty.buf(target, alias, name=alias)
            target = alias
        emitted.add(target)
        faulty.add_output(target)
    faulty.validate()
    return faulty


def fresh_net_name(circuit: Circuit, base: str) -> str:
    """A name guaranteed to collide with no net or gate in ``circuit``."""
    used = set(circuit.nets()) | {gate.name for gate in circuit.gates}
    name = base
    while name in used:
        name += "_"
    return name


def random_bridges(
    circuit: Circuit, count: int, seed: int = 0, allow_fewer: bool = False
) -> List[BridgingFault]:
    """Sample distinct non-feedback bridges uniformly from the nets.

    The returned list never contains duplicates (bridges are unordered
    pairs, so ``(a, b)`` and ``(b, a)`` count as one).  When the
    attempt budget runs out before ``count`` distinct bridges are found
    the undercount is counted (``faults.bridges.undercount``) and, by
    default, raised — a silently short sample would bias every
    Monte-Carlo estimate built on it.  ``allow_fewer=True`` opts into
    the short list (the telemetry counter still fires).
    """
    from .. import telemetry

    rng = random.Random(seed)
    nets = circuit.nets()
    bridges: List[BridgingFault] = []
    # Every drawn candidate, feedback ones included: once all unordered
    # pairs in both wired kinds are seen, no draw can add a bridge.
    seen: set = set()
    candidates = len(nets) * (len(nets) - 1)
    attempts = 0
    while (
        len(bridges) < count
        and attempts < count * 100
        and len(seen) < candidates
    ):
        attempts += 1
        net_a, net_b = rng.sample(nets, 2)
        kind = rng.choice((BridgeKind.WIRED_AND, BridgeKind.WIRED_OR))
        fault = BridgingFault(net_a, net_b, kind)
        if fault in seen:
            continue
        seen.add(fault)
        cone_a = circuit.input_cone(net_a)
        cone_b = circuit.input_cone(net_b)
        if net_a in cone_b or net_b in cone_a:
            continue
        bridges.append(fault)
    if len(bridges) < count:
        telemetry.incr("faults.bridges.undercount", count - len(bridges))
        if not allow_fewer:
            raise ValueError(
                f"random_bridges found only {len(bridges)} of {count} "
                f"requested distinct non-feedback bridges on "
                f"{circuit.name!r}; pass allow_fewer=True to accept a "
                f"short sample"
            )
    return bridges
