"""Sequential fault simulation against a cycle-by-cycle direct oracle.

``SequentialOracle`` (``tests/oracle.py``) clocks the original netlist
in three-valued logic from an all-X state and injects each stuck-at
fault at its stem or reader pin, flip-flop data pins included.  It
shares no code with :class:`SequentialFaultSimulator`, which expands
fanout branches and runs every faulty machine in its own bit lane of a
two-rail compiled pass.  Both must report the same first detecting
cycle for every fault, and so must the sharded verifier.
"""

import hashlib
import random

import pytest

from repro.circuits import (
    binary_counter,
    random_sequential,
    registered_alu74181,
    shift_register,
)
from repro.faults import Fault, all_faults, collapse_faults
from repro.faultsim import SequentialFaultSimulator, ShardedFaultSimulator
from repro.netlist import Circuit
from repro.netlist.values import X as SIM_X
from repro.scan import full_scan_flow, insert_scan, schedule_scan_tests

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


def _vectors_with_x(nets, count, seed):
    """Vectors in which about one input in ten is X and one is missing."""
    rng = random.Random(seed)
    vectors = []
    for _ in range(count):
        vector = {}
        for net in nets:
            roll = rng.random()
            if roll < 0.1:
                continue
            vector[net] = SIM_X if roll < 0.2 else rng.randint(0, 1)
        vectors.append(vector)
    return vectors


def _oracle_view(values):
    return {net: X if value == SIM_X else value for net, value in values.items()}


@pytest.mark.parametrize("seed", range(8))
def test_lanes_match_oracle_with_x_inputs(seed):
    """Explicit and missing X inputs on random Huffman machines, every
    uncollapsed fault (flip-flop data pins and outputs included)."""
    circuit = random_sequential(5, 40, 4, seed=seed)
    faults = all_faults(circuit)
    sequence = _vectors_with_x(circuit.inputs, 30, seed)
    expected = SequentialOracle(circuit).first_detections(
        faults, [_oracle_view(vector) for vector in sequence]
    )
    report = SequentialFaultSimulator(circuit, faults=faults).run(sequence)
    assert expected
    assert report.first_detection == expected
    # Detections are listed in fault order, whatever cycle found them.
    assert list(report.first_detection) == [
        fault for fault in faults if fault in expected
    ]


@pytest.mark.parametrize("seed", range(4))
def test_initial_state_matches_oracle(seed):
    circuit = random_sequential(5, 40, 4, seed=seed)
    faults = all_faults(circuit)
    sequence = _vectors_with_x(circuit.inputs, 12, seed)
    flops = [flop.output for flop in circuit.flip_flops]
    rng = random.Random(seed)
    full = {net: rng.randint(0, 1) for net in flops}
    states = [
        full,
        {net: full[net] for net in flops[:2]},
        {flops[0]: SIM_X, flops[1]: 1 - full[flops[1]], "not_a_flop": 1},
        {},
    ]
    oracle = SequentialOracle(circuit)
    oracle_sequence = [_oracle_view(vector) for vector in sequence]
    simulator = SequentialFaultSimulator(circuit, faults=faults)
    counts = []
    for state in states:
        expected = oracle.first_detections(
            faults, oracle_sequence, _oracle_view(state)
        )
        report = simulator.run(sequence, initial_state=state)
        assert report.first_detection == expected, state
        counts.append(len(expected))
    assert counts[0] > counts[-1]  # a known start detects more


#: sha256 of the sorted ``(fault, cycle)`` pairs that
#: ``full_scan_flow(registered_alu74181(), seed=s)`` verifies (316
#: faults, 300 detected each), as the one-fault-at-a-time engine found
#: them.
SCAN_FLOW_PINS = {
    1: "fbeb38d2db8e5c703095d708afc77936317df1de908d91f96ff3c20a0c12844e",
    2: "cbb05aed2cd034b58224641cc0e9dccf9bda58454c30aac65cb15c65410f1ab4",
    3: "a7fd0cc4d2f3b29f33c7333247c45536e78615fe66f7743d69620fc0047bcf2c",
}


@pytest.mark.parametrize("seed", sorted(SCAN_FLOW_PINS))
def test_scan_flow_first_detection_pinned(seed):
    flow = full_scan_flow(registered_alu74181(), seed=seed)
    detections = flow.scan_coverage.first_detection
    pairs = sorted((str(fault), cycle) for fault, cycle in detections.items())
    assert len(flow.scan_coverage.faults) == 316
    assert len(pairs) == 300
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == SCAN_FLOW_PINS[seed]
