"""Sequential ATPG by time-frame expansion (§I-B's hard problem).

The paper's Eq. (1) discussion notes its cost model "does not take into
account the falloff in automatic test generation capability due to
sequential complexity of the network" — sequential ATPG is the problem
structured DFT exists to *remove*.  This module implements the
classical attack so the removal can be measured:

* :func:`unroll` replicates the combinational logic ``k`` times,
  wiring frame ``t``'s flip-flop data into frame ``t+1``'s state
  inputs; frame 0's state inputs are **frozen** (the power-up state is
  unknowable), so any test found is valid from any initial state;
* :class:`TimeFrameAtpg` replicates the target fault into every frame
  (one physical defect exists in all of them) and runs the multi-site
  PODEM over the unrolled array, returning an input *sequence*;
* every sequence is verified by the sequential fault simulator before
  being reported.

The expected phenomenology — exploding effort, aborts, and faults that
need many frames — is exactly what the benchmarks show, and what scan
design makes disappear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.circuit import Circuit, NetlistError
from ..faults.stuck_at import Fault
from ..faultsim.expand import netlist_structure
from ..faultsim.sequential import SequentialFaultSimulator
from ..faultsim.coverage import CoverageReport
from .podem import PodemGenerator

Pattern = Dict[str, int]


def frame_net(net: str, frame: int) -> str:
    """Name of a circuit net's copy in time frame ``frame``."""
    return f"{net}@{frame}"


def unroll(circuit: Circuit, frames: int) -> Tuple[Circuit, List[str]]:
    """Unroll a sequential circuit into ``frames`` combinational copies.

    Returns ``(unrolled, frozen_inputs)``: the unrolled netlist has
    primary inputs ``<pi>@t`` for every frame, plus the frame-0 state
    inputs ``<q>@0`` listed in ``frozen_inputs`` (unknowable power-up
    values).  Primary outputs are every frame's POs.
    """
    if frames < 1:
        raise ValueError("need at least one time frame")
    if circuit.is_combinational:
        raise NetlistError("unrolling is for sequential circuits")
    flops = circuit.flip_flops
    unrolled = Circuit(f"{circuit.name}_x{frames}")
    frozen: List[str] = []
    for flop in flops:
        net = frame_net(flop.output, 0)
        unrolled.add_input(net)
        frozen.append(net)
    for frame in range(frames):
        for pi in circuit.inputs:
            unrolled.add_input(frame_net(pi, frame))
    for frame in range(frames):
        for gate in circuit.topological_order():
            unrolled.add_gate(
                gate.kind,
                [frame_net(n, frame) for n in gate.inputs],
                frame_net(gate.output, frame),
                frame_net(gate.name, frame),
            )
        if frame + 1 < frames:
            # Next frame's state is this frame's flip-flop data.
            for flop in flops:
                unrolled.buf(
                    frame_net(flop.inputs[0], frame),
                    frame_net(flop.output, frame + 1),
                    name=frame_net(flop.name, frame),
                )
    for frame in range(frames):
        for po in circuit.outputs:
            unrolled.add_output(frame_net(po, frame))
    unrolled.validate()
    return unrolled, frozen


@dataclass
class SequentialTest:
    """A verified input sequence detecting one fault."""

    fault: Fault
    sequence: List[Pattern]
    frames_used: int


@dataclass
class SequentialAtpgResult:
    """Outcome over a fault list."""

    circuit_name: str
    tests: List[SequentialTest]
    not_found: List[Fault]  # search exhausted within the frame budget
    aborted: List[Fault]    # backtrack budget hit or unsound cube
    max_frames: int
    total_backtracks: int = 0

    @property
    def coverage(self) -> float:
        """Detected fraction of the fault list."""
        total = len(self.tests) + len(self.not_found) + len(self.aborted)
        return len(self.tests) / total if total else 1.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.circuit_name} [time-frame <= {self.max_frames}]: "
            f"{len(self.tests)} tested, {len(self.not_found)} not found, "
            f"{len(self.aborted)} aborted "
            f"({self.coverage:.1%}), {self.total_backtracks} backtracks"
        )


class TimeFrameAtpg:
    """Sequential test generator over iteratively deepened unrollings."""

    def __init__(
        self,
        circuit: Circuit,
        max_frames: int = 6,
        backtrack_limit: int = 4000,
    ) -> None:
        self.circuit = circuit
        self.max_frames = max_frames
        self.backtrack_limit = backtrack_limit
        self._engines: Dict[int, Tuple[PodemGenerator, List[str]]] = {}

    def _engine(self, frames: int) -> Tuple[PodemGenerator, List[str]]:
        cached = self._engines.get(frames)
        if cached is None:
            unrolled, frozen = unroll(self.circuit, frames)
            cached = (
                PodemGenerator(unrolled, backtrack_limit=self.backtrack_limit),
                frozen,
            )
            self._engines[frames] = cached
        return cached

    def _frame_fault(self, fault: Fault, frames: int) -> Tuple[Fault, List[str]]:
        """The fault's frame-0 copy plus its replicas in later frames."""
        if fault.gate is None:
            primary = Fault(frame_net(fault.net, 0), fault.value)
        else:
            primary = Fault(
                frame_net(fault.net, 0),
                fault.value,
                gate=frame_net(fault.gate, 0),
                pin=fault.pin,
            )
        # Extra sites: the same stem/branch in frames 1..k-1 (use the
        # expanded-circuit naming via the engine's branch map; stem
        # replicas suffice because branch expansion renames uniformly).
        extras = []
        for frame in range(1, frames):
            if fault.gate is None:
                extras.append(frame_net(fault.net, frame))
            else:
                extras.append(f"{frame_net(fault.gate, frame)}__in{fault.pin}")
        return primary, extras

    def generate(self, fault: Fault, seed: int = 0) -> Optional[SequentialTest]:
        """Iterative deepening: try 1, 2, ... max_frames frames."""
        import random

        rng = random.Random(seed)
        self.last_backtracks = 0
        self.last_aborted = False
        for frames in range(1, self.max_frames + 1):
            engine, frozen = self._engine(frames)
            primary, extras = self._frame_fault(fault, frames)
            # A branch replica only exists if that net fans out in the
            # unrolled netlist; otherwise branch ≡ stem, so the stem
            # copy keeps the replication sound.
            resolved = []
            for frame, site in enumerate(extras, start=1):
                if site in engine.expanded:
                    resolved.append(site)
                else:
                    resolved.append(frame_net(fault.net, frame))
            extras = resolved
            result = engine.generate(
                primary, extra_sites=extras, frozen_inputs=frozen
            )
            self.last_backtracks += result.backtracks
            if result.aborted:
                self.last_aborted = True
            if result.pattern is None:
                continue
            sequence = []
            for frame in range(frames):
                vector = {}
                for pi in self.circuit.inputs:
                    value = result.pattern.get(frame_net(pi, frame))
                    vector[pi] = value if value is not None else rng.randint(0, 1)
                sequence.append(vector)
            if self._verify(fault, sequence):
                return SequentialTest(fault, sequence, frames)
            self.last_aborted = True  # unsound cube: count as abort
        return None

    def _verify(self, fault: Fault, sequence: Sequence[Pattern]) -> bool:
        simulator = SequentialFaultSimulator(self.circuit, faults=[fault])
        report = simulator.run(list(sequence))
        return fault in report.first_detection

    def run(
        self, faults: Optional[Sequence[Fault]] = None, seed: int = 0
    ) -> SequentialAtpgResult:
        """Run and collect the results."""
        if faults is None:
            faults = netlist_structure(self.circuit).collapsed(self.circuit)
        tests: List[SequentialTest] = []
        not_found: List[Fault] = []
        aborted: List[Fault] = []
        total_backtracks = 0
        for fault in faults:
            test = self.generate(fault, seed=seed)
            total_backtracks += self.last_backtracks
            if test is not None:
                tests.append(test)
            elif self.last_aborted:
                aborted.append(fault)
            else:
                not_found.append(fault)
        return SequentialAtpgResult(
            self.circuit.name,
            tests,
            not_found,
            aborted,
            self.max_frames,
            total_backtracks,
        )
