"""ATPG soundness and completeness against an exhaustive direct oracle.

The oracle below shares no code with the simulators or the ATPG: it
evaluates the *original* netlist (no branch expansion) gate by gate
over every input vector at once, one bit per vector in a Python int,
and injects a stuck-at fault at its stem or at its reader's pin.  It
imports nothing from ``repro.sim``, ``repro.faultsim`` or the
Boolean-difference helpers.

* Soundness: every PODEM cube detects its fault under every completion
  of its don't-cares.
* Completeness: every fault PODEM declares redundant has no detecting
  vector at all.
"""

import pytest

from repro.atpg import PodemGenerator
from repro.circuits import (
    alu74181,
    c17,
    carry_lookahead_adder,
    parity_tree,
    random_combinational,
)
from repro.faults import all_faults, collapse_faults
from repro.netlist.gates import GateType


class ExhaustiveOracle:
    """Bit-parallel evaluation of a combinational circuit over all 2**n vectors.

    Bit ``k`` of every word is the net's value under the input vector
    whose bit ``i`` sets primary input ``i``.
    """

    def __init__(self, circuit):
        self.circuit = circuit
        self.order = circuit.topological_order()
        count = len(circuit.inputs)
        assert count <= 16, "exhaustive oracle is for small circuits"
        self.width = 1 << count
        self.all_ones = (1 << self.width) - 1
        self.input_words = {}
        for i, net in enumerate(circuit.inputs):
            # Period 2**(i+1): 2**i zeros, then 2**i ones.
            block_bits = 1 << (i + 1)
            word = ((1 << (1 << i)) - 1) << (1 << i)
            while block_bits < self.width:
                word |= word << block_bits
                block_bits <<= 1
            self.input_words[net] = word & self.all_ones
        self.good = self._evaluate(None)

    def _gate(self, kind, words):
        ones = self.all_ones
        if kind in (GateType.AND, GateType.NAND):
            out = ones
            for word in words:
                out &= word
        elif kind in (GateType.OR, GateType.NOR):
            out = 0
            for word in words:
                out |= word
        elif kind in (GateType.XOR, GateType.XNOR):
            out = 0
            for word in words:
                out ^= word
        elif kind in (GateType.BUF, GateType.NOT):
            out = words[0]
        elif kind is GateType.CONST0:
            out = 0
        elif kind is GateType.CONST1:
            out = ones
        else:
            raise ValueError(f"oracle cannot evaluate {kind}")
        if kind in (GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT):
            out ^= ones
        return out

    def _evaluate(self, fault):
        stuck = None if fault is None else (self.all_ones if fault.value else 0)
        stem = fault is not None and fault.gate is None
        words = dict(self.input_words)
        if stem and fault.net in words:
            words[fault.net] = stuck
        for gate in self.order:
            inputs = [words[net] for net in gate.inputs]
            if fault is not None and fault.gate == gate.name:
                inputs[fault.pin] = stuck
            out = self._gate(gate.kind, inputs)
            if stem and gate.output == fault.net:
                out = stuck
            words[gate.output] = out
        return words

    def detecting_vectors(self, fault):
        """Word with bit k set when vector k shows the fault at some output."""
        faulty = self._evaluate(fault)
        detect = 0
        for net in self.circuit.outputs:
            detect |= self.good[net] ^ faulty[net]
        return detect

    def cube_vectors(self, cube):
        """Word with bit k set when vector k is a completion of ``cube``."""
        word = self.all_ones
        for net, value in cube.items():
            if value is not None:
                word &= self.input_words[net] if value else ~self.input_words[net]
        return word & self.all_ones


def test_oracle_matches_hand_truth_table():
    """The oracle itself: c17's output G22 = NAND(G10, G16)."""
    oracle = ExhaustiveOracle(c17())
    good = oracle.good
    for k in range(oracle.width):
        bit = {net: (oracle.input_words[net] >> k) & 1 for net in oracle.circuit.inputs}
        g10 = 1 - (bit["G1"] & bit["G3"])
        g11 = 1 - (bit["G3"] & bit["G6"])
        g16 = 1 - (bit["G2"] & g11)
        assert (good["G22"] >> k) & 1 == 1 - (g10 & g16)


def _check_podem_against_oracle(circuit, faults):
    oracle = ExhaustiveOracle(circuit)
    engine = PodemGenerator(circuit)
    redundant = 0
    for fault in faults:
        result = engine.generate(fault)
        detect = oracle.detecting_vectors(fault)
        assert not result.aborted, f"{fault}: aborted at the default limit"
        if result.found:
            covered = oracle.cube_vectors(result.pattern)
            assert covered & ~detect == 0, (
                f"{fault}: cube {result.pattern} has a completion that misses it"
            )
        else:
            assert result.redundant
            assert detect == 0, f"{fault}: declared redundant but detectable"
            redundant += 1
    return redundant


@pytest.mark.parametrize(
    "factory",
    [c17, alu74181, lambda: carry_lookahead_adder(4), lambda: parity_tree(8)],
    ids=["c17", "alu74181", "cla4", "parity8"],
)
def test_podem_sound_and_complete_on_zoo(factory):
    circuit = factory()
    assert _check_podem_against_oracle(circuit, all_faults(circuit)) == 0


@pytest.mark.parametrize("seed", range(12))
def test_podem_sound_and_complete_on_random_logic(seed):
    """Random netlists carry many redundant faults (972 collapsed ones
    over these twelve seeds): each proof is checked."""
    circuit = random_combinational(10, 80, seed=seed)
    assert _check_podem_against_oracle(circuit, collapse_faults(circuit)) > 0
