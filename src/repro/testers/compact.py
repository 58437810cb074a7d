"""Compact testing: transition counting and ones counting (refs [58],
[60], [65]).

Parker's "Compact testing: testing with compressed data" [65] frames
the family: instead of storing every expected response, store one
small statistic per output.  The survey's Syndrome tester (ones count)
and Signature Analysis (LFSR residue) are members; Hayes' **transition
counting** [58], [60] is the third classic — count output *changes*
over the (ordered!) pattern sequence.

Transition counts, unlike syndromes, depend on pattern order, which
both helps (order can be chosen to maximize fault sensitivity) and
hurts (a fixed order can mask faults a count would catch in another
order) — the comparison benchmark quantifies the trade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..sim.packed import PackedPatternSet, PackedSimulator
from .ate import TestOutcome

Pattern = Mapping[str, int]


def transition_count(bits: Sequence[int]) -> int:
    """Number of value changes in an output stream."""
    return sum(1 for a, b in zip(bits, bits[1:]) if a != b)


class TransitionCountTester:
    """Hayes' transition-count tester over a fixed ordered pattern set."""

    def __init__(self, patterns: Sequence[Pattern]) -> None:
        self.patterns = [dict(p) for p in patterns]
        self.reference: Dict[str, int] = {}

    def _counts(self, device: Circuit) -> Dict[str, int]:
        sim = PackedSimulator(device)
        packed = PackedPatternSet.from_patterns(
            list(device.inputs), self.patterns
        )
        words = sim.run(packed)
        counts = {}
        for net in device.outputs:
            word = words[net]
            stream = [(word >> i) & 1 for i in range(len(self.patterns))]
            counts[net] = transition_count(stream)
        return counts

    def characterize(self, good_device: Circuit) -> Dict[str, int]:
        """Record the good device's transition counts."""
        self.reference = self._counts(good_device)
        return dict(self.reference)

    def test(self, device: Circuit) -> TestOutcome:
        """Compare a device's counts against the reference."""
        if not self.reference:
            raise RuntimeError("characterize a good device first")
        counts = self._counts(device)
        bad = [
            net
            for net, want in self.reference.items()
            if counts.get(net) != want
        ]
        return TestOutcome(
            passed=not bad,
            patterns_applied=len(self.patterns),
            failing_outputs=bad,
            first_failure=None if not bad else 0,
        )


def compact_method_comparison(
    circuit: Circuit,
    patterns: Sequence[Pattern],
    faults,
) -> Dict[str, float]:
    """Fraction of faults each compact method exposes on one circuit.

    Methods: full response storage (the upper bound), ones counting
    (syndrome over the given set), transition counting, and a 16-bit
    signature.  All share the same ordered pattern list.
    """
    from ..faultsim.expand import fault_site_net, netlist_structure
    from ..lfsr.signature import SignatureRegister

    faults = list(faults)
    structure = netlist_structure(circuit)
    sim = PackedSimulator(structure.expanded)
    packed = PackedPatternSet.from_patterns(list(circuit.inputs), patterns)
    good = sim.run(packed)
    count = len(patterns)

    def streams(words) -> Dict[str, List[int]]:
        """Unpack per-output bit streams from packed words."""
        return {
            net: [(words[net] >> i) & 1 for i in range(count)]
            for net in circuit.outputs
        }

    good_streams = streams(good)
    register = SignatureRegister(bits=16)
    good_stats = {
        net: (
            sum(stream),
            transition_count(stream),
            register.signature_of(stream),
        )
        for net, stream in good_streams.items()
    }

    exposed = {"full": 0, "ones": 0, "transitions": 0, "signature": 0}
    for fault in faults:
        site = fault_site_net(fault, structure.branch_map)
        forced = packed.mask if fault.value else 0
        faulty = sim.run(packed, force={site: forced})
        faulty_streams = streams(faulty)
        full = any(
            faulty_streams[net] != good_streams[net]
            for net in circuit.outputs
        )
        ones = any(
            sum(faulty_streams[net]) != good_stats[net][0]
            for net in circuit.outputs
        )
        transitions = any(
            transition_count(faulty_streams[net]) != good_stats[net][1]
            for net in circuit.outputs
        )
        signature = any(
            register.signature_of(faulty_streams[net]) != good_stats[net][2]
            for net in circuit.outputs
        )
        exposed["full"] += full
        exposed["ones"] += ones
        exposed["transitions"] += transitions
        exposed["signature"] += signature
    total = max(1, len(faults))
    return {name: value / total for name, value in exposed.items()}
