"""Syndrome testing (§V-B; Savir [115], [116]).

Definition 1 of the paper: the syndrome of a Boolean function is
``S = K / 2**n`` with ``K`` the number of minterms.  Testing applies
all ``2**n`` patterns and *counts the ones* on each output; a fault is
syndrome-testable when the faulty count differs from the good count.
The appeal is the vanishing test-data volume: one count per output.

Not every fault is syndrome-testable in every network; Savir's fix
adds a control input (holding it 1 in one pass, 0 in another, or
simply widening a gate) to split the offending symmetry.  The paper
reports "real networks" like the SN74181 need at most one extra input
(<= 5 %) and two gates (<= 4 %) — the benchmark reproduces that
experiment with :func:`make_syndrome_testable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gates import GateType
from ..faults.stuck_at import Fault, all_faults
from ..faultsim.expand import netlist_structure
from ..sim.packed import PackedPatternSet, PackedSimulator

MAX_SYNDROME_INPUTS = 20


def _popcount(word: int) -> int:
    return bin(word).count("1")


class SyndromeAnalyzer:
    """Exhaustive syndrome computation for a combinational circuit."""

    def __init__(self, circuit: Circuit) -> None:
        if not circuit.is_combinational:
            raise NetlistError("syndrome testing is combinational")
        if len(circuit.inputs) > MAX_SYNDROME_INPUTS:
            raise NetlistError(
                f"{len(circuit.inputs)} inputs exceed the exhaustive limit"
            )
        self.circuit = circuit
        with telemetry.span(
            "bist.syndrome.analyze", circuit=circuit.name
        ):
            structure = netlist_structure(circuit)
            self._structure = structure
            self._packed = PackedPatternSet.exhaustive(list(circuit.inputs))
            # One good-machine pass on the compiled core; every faulty
            # machine afterwards re-evaluates only the fault's cached cone.
            self._injector = PackedSimulator(structure.expanded).injector(self._packed)
            self._good = self._injector.program.words_to_dict(self._injector.good)
            telemetry.incr("bist.syndrome.patterns", self._packed.count)

    @property
    def pattern_count(self) -> int:
        """Number of patterns this object implies."""
        return self._packed.count

    def syndrome(self, output: Optional[str] = None) -> Fraction:
        """Good-machine syndrome of one output (default: the first)."""
        net = output if output is not None else self.circuit.outputs[0]
        return Fraction(_popcount(self._good[net]), self.pattern_count)

    def syndromes(self) -> Dict[str, Fraction]:
        """Good-machine syndrome for every primary output."""
        return {
            net: Fraction(_popcount(self._good[net]), self.pattern_count)
            for net in self.circuit.outputs
        }

    def _faulty_outputs(self, fault: Fault) -> Dict[str, int]:
        telemetry.incr("bist.syndrome.fault_evals")
        (site,) = self._structure.sites([fault])
        forced = self._packed.mask if fault.value else 0
        return self._injector.faulty_output_words(site, forced)

    def faulty_counts(self, fault: Fault) -> Dict[str, int]:
        """Per-output ones-counts of the faulty machine."""
        faulty = self._faulty_outputs(fault)
        return {net: _popcount(faulty[net]) for net in self.circuit.outputs}

    def is_syndrome_testable(self, fault: Fault) -> bool:
        """Does the 1s-count differ on at least one output?"""
        good_counts = {
            net: _popcount(self._good[net]) for net in self.circuit.outputs
        }
        return self.faulty_counts(fault) != good_counts

    def untestable_faults(
        self, faults: Optional[Sequence[Fault]] = None
    ) -> List[Fault]:
        """Faults whose counts match the good machine on every output."""
        if faults is None:
            faults = self._structure.collapsed(self.circuit)
        return [f for f in faults if not self.is_syndrome_testable(f)]

    # -- multi-pass (constrained) syndrome testing, Savir [116] ---------
    def constrained_counts(
        self, held: Dict[str, int], fault: Optional[Fault] = None
    ) -> Dict[str, int]:
        """Ones-counts with some primary inputs held constant.

        The [116] extension: hold inputs, apply all ``2**k`` patterns to
        the rest, count.  Patterns with held inputs at other values are
        masked out of the count (equivalent to sweeping only the free
        inputs).
        """
        select = self._packed.mask
        for net, value in held.items():
            word = self._packed.words[net]
            select &= word if value else (~word & self._packed.mask)
        if fault is None:
            words = self._good
        else:
            words = self._faulty_outputs(fault)
        return {
            net: _popcount(words[net] & select)
            for net in self.circuit.outputs
        }

    def testable_with_passes(
        self, fault: Fault, passes: Sequence[Dict[str, int]]
    ) -> bool:
        """Does any pass (a held-input assignment) expose the fault?"""
        for held in passes:
            if self.constrained_counts(held, fault) != self.constrained_counts(held):
                return True
        return False

    def plan_multipass(
        self,
        faults: Optional[Sequence[Fault]] = None,
        max_extra_passes: int = 8,
    ) -> Tuple[List[Dict[str, int]], List[Fault]]:
        """Greedy pass selection (Savir [116]).

        Starts with the unconstrained pass; while untestable faults
        remain, adds the single-held-input pass covering the most of
        them.  Returns (passes, still-untestable faults).
        """
        if faults is None:
            faults = self._structure.collapsed(self.circuit)
        passes: List[Dict[str, int]] = [{}]
        remaining = [
            f for f in faults if not self.testable_with_passes(f, passes)
        ]
        candidates = [
            {net: value}
            for net in self.circuit.inputs
            for value in (0, 1)
        ]
        for _ in range(max_extra_passes):
            if not remaining:
                break
            best_pass = None
            best_covered: List[Fault] = []
            for held in candidates:
                covered = [
                    f
                    for f in remaining
                    if self.testable_with_passes(f, [held])
                ]
                if len(covered) > len(best_covered):
                    best_covered = covered
                    best_pass = held
            if best_pass is None:
                break
            passes.append(best_pass)
            remaining = [f for f in remaining if f not in best_covered]
        return passes, remaining


@dataclass
class SyndromeFixReport:
    """Outcome of the make-testable procedure."""

    circuit: Circuit
    extra_inputs: List[str]
    extra_gates: int
    remaining_untestable: List[Fault]

    @property
    def input_overhead(self) -> float:
        """Extra inputs as a fraction of the original input count."""
        base = len(self.circuit.inputs) - len(self.extra_inputs)
        return len(self.extra_inputs) / base if base else 0.0

    @property
    def gate_overhead(self) -> float:
        """Extra gates as a fraction of the original gate count."""
        base = len(self.circuit) - self.extra_gates
        return self.extra_gates / base if base else 0.0


def make_syndrome_testable(
    circuit: Circuit,
    faults: Optional[Sequence[Fault]] = None,
    max_extra_inputs: int = 2,
) -> SyndromeFixReport:
    """Savir-style modification: add control inputs until testable.

    Greedy search: for each candidate internal net, trial-insert an OR
    (or AND) gate with a fresh control input held at the non-dominant
    value during normal operation, and keep the modification that
    clears the most untestable faults.  Matches the paper's reported
    overheads on the 74181-class networks (<= 1 input, <= 2 gates).
    """
    current = circuit
    extra_inputs: List[str] = []
    extra_gates = 0
    for round_index in range(max_extra_inputs):
        analyzer = SyndromeAnalyzer(current)
        untestable = analyzer.untestable_faults(faults if current is circuit else None)
        if not untestable:
            break
        best: Optional[Tuple[int, Circuit, str]] = None
        candidates = _candidate_nets(current, untestable)
        for net, mode in candidates:
            control = f"SYN{round_index}"
            try:
                trial = _insert_control(current, net, control, mode)
            except NetlistError:
                continue
            trial_analyzer = SyndromeAnalyzer(trial)
            remaining = trial_analyzer.untestable_faults()
            score = len(remaining)
            if best is None or score < best[0]:
                best = (score, trial, control)
            if score == 0:
                break
        if best is None:
            break
        current = best[1]
        extra_inputs.append(best[2])
    final_analyzer = SyndromeAnalyzer(current)
    return SyndromeFixReport(
        circuit=current,
        extra_inputs=extra_inputs,
        extra_gates=len(current) - len(circuit),
        remaining_untestable=final_analyzer.untestable_faults(),
    )


def _candidate_nets(
    circuit: Circuit, untestable: Sequence[Fault]
) -> List[Tuple[str, str]]:
    """Nets worth trying: fault sites and their immediate fanin/fanout."""
    nets: List[Tuple[str, str]] = []
    seen = set()
    for fault in untestable:
        for net in _neighborhood(circuit, fault.net):
            for mode in ("or", "and"):
                key = (net, mode)
                if key not in seen:
                    seen.add(key)
                    nets.append(key)
    return nets


def _neighborhood(circuit: Circuit, net: str) -> List[str]:
    result = [net]
    driver = circuit.driver_of(net)
    if driver is not None:
        result.extend(driver.inputs)
    for gate in circuit.fanout_of(net):
        result.append(gate.output)
    return [n for n in result if not circuit.is_input(n)]


def _insert_control(
    circuit: Circuit, net: str, control: str, mode: str
) -> Circuit:
    """Rewire readers of ``net`` through OR(net, ctrl) / AND(net, ~ctrl).

    With the control held 0 the function is unchanged; exhaustive
    syndrome testing sweeps it like any other input, splitting the
    symmetry that hid the fault.
    """
    if circuit.is_input(net) or net not in circuit:
        raise NetlistError(f"cannot instrument {net!r}")
    modified = Circuit(f"{circuit.name}+{control}")
    for pi in circuit.inputs:
        modified.add_input(pi)
    modified.add_input(control)
    replaced = f"__{net}_{control}"
    for gate in circuit.gates:
        inputs = [replaced if n == net else n for n in gate.inputs]
        modified.add_gate(gate.kind, inputs, gate.output, gate.name)
    if mode == "or":
        modified.or_([net, control], replaced)
    else:
        modified.not_(control, f"__{control}_b")
        modified.and_([net, f"__{control}_b"], replaced)
    for po in circuit.outputs:
        modified.add_output(replaced if po == net else po)
    modified.validate()
    return modified
