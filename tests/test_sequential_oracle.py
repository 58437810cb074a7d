"""Sequential fault simulation against a cycle-by-cycle direct oracle.

``SequentialOracle`` (``tests/oracle.py``) clocks the original netlist
in three-valued logic from an all-X state and injects each stuck-at
fault at its stem or reader pin, flip-flop data pins included.  It
shares no code with :class:`SequentialFaultSimulator`, which expands
fanout branches, tracks divergence from the good machine and re-merges
converged faulty machines.  Both must report the same first detecting
cycle for every fault, and so must the sharded verifier.
"""

import random

import pytest

from repro.circuits import binary_counter, registered_alu74181, shift_register
from repro.faults import Fault, all_faults, collapse_faults
from repro.faultsim import SequentialFaultSimulator, ShardedFaultSimulator
from repro.netlist import Circuit
from repro.scan import insert_scan, schedule_scan_tests

from oracle import X, SequentialOracle


def _random_vectors(nets, count, seed):
    rng = random.Random(seed)
    return [{net: rng.randint(0, 1) for net in nets} for _ in range(count)]


def _shift_register():
    circuit = shift_register(4)
    return circuit, all_faults(circuit), _random_vectors(circuit.inputs, 24, seed=4)


def _scanned_counter():
    design = insert_scan(binary_counter(4))
    core = design.circuit.combinational_core()
    patterns = _random_vectors(core.inputs, 6, seed=6)
    schedule = schedule_scan_tests(design, patterns)
    return design.circuit, all_faults(design.circuit), schedule


def _registered_alu():
    circuit = registered_alu74181()
    vectors = _random_vectors(circuit.inputs, 8, seed=8)
    return circuit, collapse_faults(circuit), vectors


#: Case builder and the oracle's detected count (of 18, 144 and 224).
CASES = {
    "shift_register4": (_shift_register, 18),
    "scanned_counter4": (_scanned_counter, 137),
    "registered_alu74181": (_registered_alu, 169),
}


def test_oracle_three_valued_start():
    """Nothing is known before the first clock fills a flip-flop."""
    circuit = Circuit("dff_and")
    circuit.add_inputs(["a", "b"])
    circuit.dff("a", "q", name="FF")
    circuit.and_(["q", "b"], "y")
    circuit.add_output("y")
    trace = SequentialOracle(circuit).trace(
        [{"a": 1, "b": 1}, {"a": 0, "b": 1}, {"a": 0, "b": 0}]
    )
    assert trace == [[X], [1], [0]]


def test_oracle_data_pin_fault_reaches_the_state():
    circuit = Circuit("dff_pin")
    circuit.add_input("a")
    circuit.buf("a", "y")
    circuit.dff("a", "q", name="FF")
    circuit.add_output("y")
    circuit.add_output("q")
    oracle = SequentialOracle(circuit)
    sequence = [{"a": 1}, {"a": 1}]
    # The stuck D pin leaves the other reader of ``a`` healthy.
    pin_fault = Fault("a", 0, gate="FF", pin=0)
    assert oracle.trace(sequence, pin_fault) == [[1, X], [1, 0]]
    assert oracle.first_detections([pin_fault], sequence) == {pin_fault: 1}


def _expected(name):
    build, detected = CASES[name]
    circuit, faults, sequence = build()
    expected = SequentialOracle(circuit).first_detections(faults, sequence)
    assert len(expected) == detected
    return circuit, faults, sequence, expected


@pytest.mark.parametrize("name", list(CASES))
def test_sequential_simulator_matches_oracle(name):
    circuit, faults, sequence, expected = _expected(name)
    report = SequentialFaultSimulator(circuit, faults=faults).run(sequence)
    assert report.first_detection == expected


@pytest.mark.parametrize("name", list(CASES))
def test_sharded_sequential_matches_oracle(name):
    circuit, faults, sequence, expected = _expected(name)
    sharded = ShardedFaultSimulator(
        circuit, "sequential", faults=faults, workers=2, shards=3
    )
    assert sharded.run(sequence).first_detection == expected
