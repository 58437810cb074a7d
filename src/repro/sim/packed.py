"""Pattern-packed (bit-parallel) two-valued simulation.

The classic "parallel simulation" trick (refs [102], [104]): a machine
word carries one bit per *pattern*, so a single pass of bitwise gate
operations simulates the whole pattern set at once.  Python ints are
arbitrary-precision, so the word width is the pattern count — hundreds
of patterns per pass — which is what makes the fault simulators and the
syndrome/Walsh exhaustive engines tractable in pure Python.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit, NetlistError
from ..telemetry import incr as _incr
from .compiled import FaultInjector, compile_circuit


class PackedPatternSet:
    """A set of input patterns packed net-wise into integers.

    ``words[net]`` has bit ``i`` equal to pattern ``i``'s value on that
    net.  ``count`` is the number of patterns (the active word width).
    """

    def __init__(self, nets: Sequence[str], count: int = 0) -> None:
        self.nets = list(nets)
        self.count = count
        self.words: Dict[str, int] = {net: 0 for net in nets}

    @classmethod
    def from_patterns(
        cls, nets: Sequence[str], patterns: Sequence[Mapping[str, int]]
    ) -> "PackedPatternSet":
        """From patterns."""
        packed = cls(nets, len(patterns))
        if not patterns:
            return packed
        words = packed.words
        for net in nets:
            # Build the word as a binary literal: one C-level parse per
            # net instead of a Python-level bit-or per (pattern, net).
            bits = "".join("1" if p.get(net, 0) else "0" for p in patterns)
            words[net] = int(bits[::-1], 2)
        return packed

    @classmethod
    def exhaustive(cls, nets: Sequence[str]) -> "PackedPatternSet":
        """All ``2**len(nets)`` minterms; net ``i`` gets the canonical
        counting word so pattern ``m`` assigns bit ``(m >> i) & 1``."""
        n = len(nets)
        count = 1 << n
        packed = cls(nets, count)
        for position, net in enumerate(nets):
            # Canonical counting pattern: blocks of 2^position zeros then
            # 2^position ones, repeated.  Built with one bigint multiply:
            # repeat unit U across the word via (2^count-1)/(2^period-1).
            block = (1 << (1 << position)) - 1  # 2^position ones
            period = 1 << (position + 1)
            unit = block << (1 << position)
            repetitions = ((1 << count) - 1) // ((1 << period) - 1)
            packed.words[net] = unit * repetitions
        return packed

    def add_pattern(self, pattern: Mapping[str, int]) -> int:
        """Append a pattern; returns its index."""
        index = self.count
        bit = 1 << index
        for net in self.nets:
            if pattern.get(net, 0):
                self.words[net] |= bit
        self.count += 1
        return index

    def pattern(self, index: int) -> Dict[str, int]:
        """Recover pattern ``index`` as a net -> bit mapping."""
        return {net: (self.words[net] >> index) & 1 for net in self.nets}

    @property
    def mask(self) -> int:
        """Bit mask covering the register width."""
        return (1 << self.count) - 1


class PackedSimulator:
    """Bit-parallel two-valued simulator over a combinational circuit.

    The workhorse of the fault simulators: :meth:`run` evaluates every
    net for every packed pattern in one topological pass, optionally
    with one stuck-at fault injected (a net forced to all-0s/all-1s
    *after* its driver evaluates — gate-input faults are handled by the
    fault simulator via fanout-branch modeling).

    Evaluation routes through the compiled core
    (:mod:`repro.sim.compiled`): the netlist is levelized once into a
    flat program, cached per netlist and re-keyed by any mutation.
    """

    def __init__(self, circuit: Circuit) -> None:
        if not circuit.is_combinational:
            raise NetlistError(
                "PackedSimulator needs a combinational circuit; "
                "use Circuit.combinational_core() or a sequential simulator"
            )
        self.circuit = circuit

    def run(
        self,
        packed: PackedPatternSet,
        force: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Evaluate all nets for all patterns.

        ``force`` maps net names to full-word override values (applied
        after the net is computed) — the mechanism used for stuck-at
        injection: ``{net: 0}`` for S-A-0, ``{net: mask}`` for S-A-1.
        Names outside the circuit are ignored.
        """
        _incr("sim.packed.runs")
        _incr("sim.packed.patterns", packed.count)
        program = compile_circuit(self.circuit)
        mask = packed.mask
        source_words = [
            packed.words.get(net, 0) for net in program.source_names
        ]
        if force:
            force_by_index = {
                program.index[net]: value
                for net, value in force.items()
                if net in program.index
            }
            words = program.eval_forced(source_words, mask, force_by_index)
        else:
            words = program.eval_words(source_words, mask)
        return program.words_to_dict(words)

    def injector(self, packed: PackedPatternSet) -> FaultInjector:
        """Good machine + cone-cached fault injection for one batch.

        The fast path for callers that inject many single faults against
        the same pattern set (fault simulators, syndrome/Walsh BIST):
        each fault re-evaluates only its cached output cone.
        """
        return FaultInjector(self.circuit, packed)
