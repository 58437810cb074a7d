"""Transition-fault (gross delay) test generation — refs [81], [108].

The survey's reference list includes delay test generation (Hsieh et
al. [81]) and delay test simulation (Storey & Barry [108]): the era's
first recognition that stuck-at tests miss slow gates.  The **gross
delay / transition fault** model makes it tractable:

* a *slow-to-rise* fault on net n behaves, for one cycle, like n
  stuck-at-0 — provided the test first sets n to 0, then launches a
  rising transition;
* dually for *slow-to-fall*.

A transition test is therefore a **pattern pair** (V1, V2): V1 sets
the initial value, V2 is an ordinary stuck-at test for the frozen
value.  On a scan design the pair is applied launch-on-capture style.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.circuit import Circuit, NetlistError
from ..faults.stuck_at import Fault
from ..faultsim.expand import netlist_structure
from ..faultsim.coverage import CoverageReport
from ..sim.packed import PackedPatternSet, PackedSimulator
from .podem import PodemGenerator
from .random_gen import fill_dont_cares

Pattern = Dict[str, int]


class Edge(enum.Enum):
    """Which transition is slow: rising or falling."""
    RISE = "slow-to-rise"
    FALL = "slow-to-fall"


@dataclass(frozen=True)
class TransitionFault:
    """A gross-delay fault: one net too slow on one edge."""

    net: str
    edge: Edge

    @property
    def name(self) -> str:
        """Stable human-readable identifier."""
        return f"{self.net}/{self.edge.value}"

    @property
    def initial_value(self) -> int:
        """Value V1 must establish at the site."""
        return 0 if self.edge is Edge.RISE else 1

    @property
    def frozen_value(self) -> int:
        """The stuck-at value the site exhibits during V2."""
        return 0 if self.edge is Edge.RISE else 1


def all_transition_faults(circuit: Circuit) -> List[TransitionFault]:
    """Two transition faults per net (stem-level)."""
    faults = []
    for net in circuit.nets():
        faults.append(TransitionFault(net, Edge.RISE))
        faults.append(TransitionFault(net, Edge.FALL))
    return faults


@dataclass
class TransitionTest:
    """A two-pattern test for one transition fault."""

    fault: TransitionFault
    v1: Pattern
    v2: Pattern


class TransitionTestGenerator:
    """Pattern-pair generation: V2 by PODEM, V1 by justification.

    V2 must detect the site stuck at the frozen value (classic PODEM
    call); V1 must set the site to the initial value (a second PODEM
    objective with no propagation requirement, realized by targeting
    the site as if it were an output).
    """

    def __init__(self, circuit: Circuit, backtrack_limit: int = 10000) -> None:
        if not circuit.is_combinational:
            raise NetlistError("transition ATPG targets the scan core")
        self.circuit = circuit
        self._podem = PodemGenerator(circuit, backtrack_limit)
        self._sim = PackedSimulator(self._podem.expanded)

    def _justify_value(self, net: str, value: int, seed: int) -> Optional[Pattern]:
        """Find any input pattern putting ``value`` on ``net``.

        Random search first (cheap), falling back to a PODEM run on a
        cone-extracted view with the net exposed as an output.
        """
        rng = random.Random(seed)
        for _ in range(64):
            pattern = {n: rng.randint(0, 1) for n in self.circuit.inputs}
            packed = PackedPatternSet.from_patterns(
                list(self.circuit.inputs), [pattern]
            )
            words = self._sim.run(packed)
            if (words[net] & 1) == value:
                return pattern
        # Deterministic fallback: PODEM for "net stuck at (1-value)" in
        # a view where the net is observable; its pattern sets net=value.
        view = self.circuit.copy(f"{self.circuit.name}__justify")
        if net not in view.outputs:
            view.add_output(net)
        engine = PodemGenerator(view)
        result = engine.generate(Fault(net, 1 - value))
        if result.pattern is None:
            return None
        return fill_dont_cares(result.pattern, self.circuit.inputs, rng)

    def generate(self, fault: TransitionFault, seed: int = 0) -> Optional[TransitionTest]:
        """Build a (V1, V2) pair, or None if untestable."""
        stuck = Fault(fault.net, fault.frozen_value)
        v2_result = self._podem.generate(stuck)
        if v2_result.pattern is None:
            return None
        rng = random.Random(seed)
        v2 = fill_dont_cares(v2_result.pattern, self.circuit.inputs, rng)
        v1 = self._justify_value(fault.net, fault.initial_value, seed)
        if v1 is None:
            return None
        return TransitionTest(fault, v1, v2)


class TransitionFaultSimulator:
    """Two-pattern transition fault simulation.

    A pair (V1, V2) detects a transition fault iff V1 establishes the
    initial value at the site AND V2 detects the corresponding stuck-at
    (the frozen value) at an output.
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Sequence[TransitionFault]] = None,
    ) -> None:
        if not circuit.is_combinational:
            raise NetlistError("transition fault simulation is combinational")
        self.circuit = circuit
        self.faults = list(faults) if faults is not None else all_transition_faults(circuit)
        self._sim = PackedSimulator(netlist_structure(circuit).expanded)

    def detects(self, v1: Pattern, v2: Pattern, fault: TransitionFault) -> bool:
        """Does the (v1, v2) pair detect the transition fault?"""
        packed = PackedPatternSet.from_patterns(
            list(self.circuit.inputs), [v1, v2]
        )
        good = self._sim.run(packed)
        site_word = good[fault.net]
        if (site_word & 1) != fault.initial_value:
            return False  # V1 fails to initialize
        if ((site_word >> 1) & 1) != (1 - fault.frozen_value):
            return False  # V2 launches no transition
        forced = packed.mask if fault.frozen_value else 0
        faulty = self._sim.run(packed, force={fault.net: forced})
        for net in self.circuit.outputs:
            if ((good[net] ^ faulty[net]) >> 1) & 1:
                return True
        return False

    def run(self, pairs: Sequence[Tuple[Pattern, Pattern]]) -> CoverageReport:
        """Coverage of a pair sequence over the transition fault list."""
        stuck_view = [Fault(f.net, f.frozen_value) for f in self.faults]
        report = CoverageReport(
            self.circuit.name, len(pairs), stuck_view
        )
        for index, (v1, v2) in enumerate(pairs):
            for fault, stuck in zip(self.faults, stuck_view):
                if stuck in report.first_detection:
                    continue
                if self.detects(v1, v2, fault):
                    report.first_detection[stuck] = index
        return report


def generate_transition_tests(
    circuit: Circuit,
    faults: Optional[Sequence[TransitionFault]] = None,
    seed: int = 0,
) -> Tuple[List[TransitionTest], List[TransitionFault]]:
    """Pair generation over a fault list; returns (tests, untestable)."""
    generator = TransitionTestGenerator(circuit)
    if faults is None:
        faults = all_transition_faults(circuit)
    tests: List[TransitionTest] = []
    untestable: List[TransitionFault] = []
    for fault in faults:
        test = generator.generate(fault, seed=seed)
        if test is None:
            untestable.append(fault)
        else:
            tests.append(test)
    return tests, untestable
