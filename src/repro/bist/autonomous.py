"""Autonomous testing (§V-D; McCluskey & Bozorgui-Nesbat [118]).

Autonomous testing applies *all* input patterns to (sub)networks and
compares every output against the good machine, so it detects any fault
that leaves the network combinational — no fault model needed.  The
enablers:

* a **reconfigurable LFSR module** (Figs. 26-29) that is a normal
  register, an input generator (PRPG), or a signature analyzer;
* **partitioning**, because 2**100 patterns is not a plan:

  - *multiplexer partitioning* (Figs. 30-32): muxes route a chosen
    subnetwork's inputs to the generator and its outputs to the
    analyzer, so each subnetwork is verified exhaustively;
  - *sensitized partitioning* (Figs. 33-34): no muxes — hold select
    lines so existing paths sensitize a subnetwork's outputs through
    the rest of the logic; the 74181 splits into four N1 slices and
    one N2 combine network this way.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..netlist.circuit import Circuit, NetlistError
from ..faults.stuck_at import Fault
from ..faultsim.parallel_pattern import FaultSimulator
from ..faultsim.coverage import CoverageReport
from ..lfsr.lfsr import Lfsr
from ..lfsr.signature import Misr


class LfsrModuleMode(enum.Enum):
    """LfsrModuleMode: see the module docstring for context."""
    NORMAL = "normal"            # N = 1 (Fig. 27)
    SIGNATURE = "signature"      # N = 0, S = 1 (Fig. 28)
    GENERATOR = "generator"      # N = 0, S = 0 (Fig. 29)


class ReconfigurableLfsrModule:
    """The Figs. 26-29 building block: register / PRPG / signature analyzer."""

    def __init__(self, width: int = 3) -> None:
        self.width = width
        self.mode = LfsrModuleMode.NORMAL
        self._lfsr = Lfsr.maximal(width, state=1)
        self._misr = Misr(width)
        self.state = 0

    def set_mode(self, mode: LfsrModuleMode) -> None:
        """Switch the operating mode."""
        self.mode = mode
        if mode is LfsrModuleMode.GENERATOR:
            self._lfsr.state = self.state if self.state else 1
        elif mode is LfsrModuleMode.SIGNATURE:
            self._misr.state = self.state

    def clock(self, data_word: int = 0) -> int:
        """One clock; returns the module's parallel output word."""
        if self.mode is LfsrModuleMode.NORMAL:
            self.state = data_word & ((1 << self.width) - 1)
        elif self.mode is LfsrModuleMode.GENERATOR:
            self._lfsr.step()
            self.state = self._lfsr.state
        else:  # SIGNATURE
            self._misr.clock(data_word)
            self.state = self._misr.state
        return self.state

    def output_bits(self) -> List[int]:
        """Output bits."""
        return [(self.state >> i) & 1 for i in range(self.width)]


@dataclass
class SubnetworkPartition:
    """One autonomously-tested subnetwork: its support and observation."""

    name: str
    support: List[str]        # primary inputs exercised exhaustively
    held: Dict[str, int]      # primary inputs held constant (sensitization)
    observed: List[str]       # outputs carrying the subnetwork's responses

    @property
    def pattern_count(self) -> int:
        """Number of patterns this object implies."""
        return 1 << len(self.support)

    def patterns(self) -> List[Dict[str, int]]:
        """The expanded pattern list."""
        result = []
        for bits in itertools.product((0, 1), repeat=len(self.support)):
            pattern = dict(self.held)
            pattern.update(dict(zip(self.support, bits)))
            result.append(pattern)
        return result


@dataclass
class AutonomousTestResult:
    """Outcome of an autonomous test plan."""

    circuit_name: str
    partitions: List[SubnetworkPartition]
    total_patterns: int
    exhaustive_patterns: int
    coverage: CoverageReport

    @property
    def pattern_reduction(self) -> float:
        """Pattern reduction."""
        return self.exhaustive_patterns / self.total_patterns

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.circuit_name}: {len(self.partitions)} partitions, "
            f"{self.total_patterns} patterns vs {self.exhaustive_patterns} "
            f"exhaustive ({self.pattern_reduction:.1f}x fewer), "
            f"coverage {self.coverage.coverage:.1%}"
        )


def run_autonomous_test(
    circuit: Circuit,
    partitions: Sequence[SubnetworkPartition],
    faults: Optional[Sequence[Fault]] = None,
) -> AutonomousTestResult:
    """Apply every partition's exhaustive pattern set; fault-simulate.

    Coverage is measured over the whole circuit's collapsed stuck-at
    list (autonomous testing claims more — any non-sequentializing
    fault — but stuck-at coverage is the comparable yardstick).
    """
    all_patterns: List[Dict[str, int]] = []
    for partition in partitions:
        all_patterns.extend(partition.patterns())
    simulator = FaultSimulator(circuit, faults=faults)
    coverage = simulator.run(all_patterns)
    return AutonomousTestResult(
        circuit_name=circuit.name,
        partitions=list(partitions),
        total_patterns=len(all_patterns),
        exhaustive_patterns=1 << len(circuit.inputs),
        coverage=coverage,
    )


def multiplexer_partition(
    circuit: Circuit, groups: Sequence[Sequence[str]]
) -> Tuple[Circuit, List[SubnetworkPartition]]:
    """Fig. 30 style: physically multiplex input groups.

    ``groups`` lists primary-input subsets; the returned circuit has a
    test-select input per group routing a shared generator bus ``GEN*``
    onto that group's inputs.  Each group becomes a partition tested
    from the (narrow) generator bus while other groups hold 0 —
    demonstrating the paper's gate-overhead warning along the way.
    """
    widths = [len(g) for g in groups]
    bus_width = max(widths) if widths else 0
    modified = Circuit(f"{circuit.name}_muxpart")
    for pi in circuit.inputs:
        modified.add_input(pi)
    selects = []
    for index in range(len(groups)):
        selects.append(modified.add_input(f"TSEL{index}"))
    gen_bus = [modified.add_input(f"GEN{i}") for i in range(bus_width)]
    replaced: Dict[str, str] = {}
    for index, group in enumerate(groups):
        sel = selects[index]
        sel_b = f"__tselb{index}"
        modified.not_(sel, sel_b)
        for position, net in enumerate(group):
            new_net = f"__{net}_mux"
            modified.and_([net, sel_b], f"__{net}_sys")
            modified.and_([gen_bus[position], sel], f"__{net}_gen")
            modified.or_([f"__{net}_sys", f"__{net}_gen"], new_net)
            replaced[net] = new_net
    for gate in circuit.gates:
        inputs = [replaced.get(n, n) for n in gate.inputs]
        modified.add_gate(gate.kind, inputs, gate.output, gate.name)
    for po in circuit.outputs:
        modified.add_output(replaced.get(po, po))
    modified.validate()

    partitions = []
    for index, group in enumerate(groups):
        held = {f"TSEL{i}": 1 if i == index else 0 for i in range(len(groups))}
        held.update({net: 0 for net in circuit.inputs})
        support = [f"GEN{i}" for i in range(len(group))]
        partitions.append(
            SubnetworkPartition(
                name=f"group{index}",
                support=support,
                held=held,
                observed=list(circuit.outputs),
            )
        )
    return modified, partitions


def sensitized_partitions_74181() -> List[SubnetworkPartition]:
    """The paper's Figs. 33-34 plan for the SN74181.

    * All ``L_i`` slice outputs: hold S2 = S3 = 0 (every ``H_i`` pins
      to 1, a non-controlling value), logic mode M = 1 so
      ``F_i = L_i`` — sweep S0, S1 and all A/B bits.
    * All ``H_i`` slice outputs: hold S0 = S1 = 1 (every ``L_i`` pins
      to 0), M = 1 so ``F_i = NOT(H_i)`` — sweep S2, S3 and A/B.
    * The N2 carry/combine network: arithmetic mode sweeps that drive
      the g/p rails through their combinations (S = 1001 add and
      S = 0110 subtract with both carries and boundary operands).

    Total patterns: far under the 2**14 exhaustive count.
    """
    ab_nets = [f"A{i}" for i in range(4)] + [f"B{i}" for i in range(4)]
    partitions = [
        SubnetworkPartition(
            name="N1-L-outputs",
            support=["S0", "S1"] + ab_nets,
            held={"S2": 0, "S3": 0, "M": 1, "CN": 1},
            observed=["F0", "F1", "F2", "F3"],
        ),
        SubnetworkPartition(
            name="N1-H-outputs",
            support=["S2", "S3"] + ab_nets,
            held={"S0": 1, "S1": 1, "M": 1, "CN": 1},
            observed=["F0", "F1", "F2", "F3"],
        ),
        SubnetworkPartition(
            name="N2-carry-add",
            support=ab_nets + ["CN"],
            held={"S0": 1, "S1": 0, "S2": 0, "S3": 1, "M": 0},
            observed=["F0", "F1", "F2", "F3", "CN4", "PBAR", "GBAR", "AEQB"],
        ),
    ]
    return partitions


def sensitized_partitions_74181_compact() -> List[SubnetworkPartition]:
    """A pattern-lean variant: the slice sweeps exploit the four
    identical N1 slices being exercised *in parallel* (each L_i/H_i
    depends only on its own A_i, B_i and the shared selects), so the
    A/B space is swept with matched bits instead of independently."""
    partitions = []
    # L outputs: S0,S1 x per-slice (A,B) — drive all slices with the
    # same (A,B) pair: 4 selects x 4 operand combos = 16 patterns.
    for s01 in range(4):
        for ab in range(4):
            held = {
                "S0": s01 & 1,
                "S1": (s01 >> 1) & 1,
                "S2": 0,
                "S3": 0,
                "M": 1,
                "CN": 1,
            }
            for i in range(4):
                held[f"A{i}"] = ab & 1
                held[f"B{i}"] = (ab >> 1) & 1
            partitions.append(
                SubnetworkPartition(
                    name=f"L-s{s01}-ab{ab}",
                    support=[],
                    held=held,
                    observed=["F0", "F1", "F2", "F3"],
                )
            )
    for s23 in range(4):
        for ab in range(4):
            held = {
                "S0": 1,
                "S1": 1,
                "S2": s23 & 1,
                "S3": (s23 >> 1) & 1,
                "M": 1,
                "CN": 1,
            }
            for i in range(4):
                held[f"A{i}"] = ab & 1
                held[f"B{i}"] = (ab >> 1) & 1
            partitions.append(
                SubnetworkPartition(
                    name=f"H-s{s23}-ab{ab}",
                    support=[],
                    held=held,
                    observed=["F0", "F1", "F2", "F3"],
                )
            )
    return partitions
