"""Sequential fault simulation: every faulty machine in one pass per clock.

For an *unscanned* sequential machine, a fault's effect can lodge in the
state and surface many cycles later — the very difficulty (§I-B, §IV)
that motivates scan design.  This engine simulates the good machine and
all faulty machines together, one bit lane per machine — the
parallel-fault method behind the paper's fault-simulation cost argument
(§I-B, refs [100]–[114]) — over the compiled program of the
branch-expanded circuit (:mod:`repro.sim.compiled`):

* lane 0 is the good machine and lane *i* carries fault *i*;
* every net is two words, "may be 0" and "may be 1", so X sets both and
  flip-flops start at X unless ``initial_state`` names them;
* each clock loads the vector (a missing input reads X) and every
  lane's flip-flop state, forces each fault's lane at its site as the
  net settles, evaluates the program once, and clocks every D net's
  rails into the state;
* a lane is detected at the first clock where some primary output is
  known in both lane 0 and that lane and the two differ (no X
  involved); it is then retired, and the run ends once every lane is.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..netlist import values as V
from ..netlist.circuit import Circuit
from ..faults.stuck_at import Fault, all_faults
from .expand import netlist_structure
from .coverage import CoverageReport

Pattern = Mapping[str, int]


def _rails(value: int, mask: int) -> Tuple[int, int]:
    """``(may be 0, may be 1)`` words of one value in every lane."""
    if value == V.ZERO:
        return mask, 0
    if value == V.ONE:
        return 0, mask
    return mask, mask


class SequentialFaultSimulator:
    """Fault simulator for DFF-based sequential circuits."""

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Sequence[Fault]] = None,
        collapse: bool = True,
    ) -> None:
        self.circuit = circuit
        self.structure = netlist_structure(circuit)
        if faults is None:
            faults = self.structure.collapsed(circuit) if collapse else all_faults(circuit)
        self.faults = list(faults)

    def run(
        self,
        sequence: Sequence[Pattern],
        initial_state: Optional[Mapping[str, int]] = None,
    ) -> CoverageReport:
        """Run and collect the results."""
        with telemetry.span(
            "faultsim.run", engine="sequential", circuit=self.circuit.name
        ):
            telemetry.incr("faultsim.patterns_simulated", len(sequence))
            telemetry.incr("faultsim.faults_graded", len(self.faults))
            report = CoverageReport(
                self.circuit.name, len(sequence), list(self.faults)
            )
            found = self._first_cycles(sequence, initial_state or {})
            for lane, fault in enumerate(self.faults, 1):
                if lane in found:
                    report.first_detection[fault] = found[lane]
            if found:
                telemetry.incr("faultsim.seq.faults_detected", len(found))
            return report

    def _first_cycles(
        self, sequence: Sequence[Pattern], initial_state: Mapping[str, int]
    ) -> Dict[int, int]:
        """``{lane: first detecting cycle}`` over the detected lanes."""
        program = self.structure.program
        mask = (2 << len(self.faults)) - 1
        stuck: Dict[int, Tuple[int, int]] = {}
        sites = self.structure.sites(self.faults)
        for lane, (fault, site) in enumerate(zip(self.faults, sites), 1):
            if site is not None:
                stuck0, stuck1 = stuck.get(site, (0, 0))
                if fault.value:
                    stuck1 |= 1 << lane
                else:
                    stuck0 |= 1 << lane
                stuck[site] = (stuck0, stuck1)
        inputs = self.structure.expanded.inputs
        flops = self.structure.expanded.flip_flops
        data = [program.index[flop.inputs[0]] for flop in flops]
        state = [
            _rails(initial_state.get(flop.output, V.X), mask) for flop in flops
        ]
        zeros = [0] * program.num_nets
        ones = [0] * program.num_nets
        live = mask ^ 1
        found: Dict[int, int] = {}
        for cycle, vector in enumerate(sequence):
            for i, net in enumerate(inputs):
                zeros[i], ones[i] = _rails(vector.get(net, V.X), mask)
            for i, (z, o) in enumerate(state, len(inputs)):
                zeros[i], ones[i] = z, o
            program.eval_two_rail(zeros, ones, mask, stuck)
            detected = 0
            for out in program.output_indices:
                z, o = zeros[out], ones[out]
                if z & 1 != o & 1:  # known in the good machine
                    detected |= (o & ~z) if z & 1 else (z & ~o)
            detected &= live
            if detected:
                live ^= detected
                while detected:
                    low = detected & -detected
                    found[low.bit_length() - 1] = cycle
                    detected ^= low
                if not live:
                    break
            state = [(zeros[d], ones[d]) for d in data]
        return found
