"""Fault-simulator tests: the four engines must agree, and reports must
be internally consistent."""

import itertools
import random

import pytest

from repro.circuits import (
    c17,
    binary_counter,
    parity_tree,
    random_combinational,
    ripple_carry_adder,
    shift_register,
)
from repro.faults import Fault, all_faults, collapse_faults
from repro.faultsim import (
    CoverageReport,
    DeductiveFaultSimulator,
    FaultSimulator,
    ParallelFaultSimulator,
    SequentialFaultSimulator,
    SerialFaultSimulator,
    engine_coverage,
    expand_branches,
    fault_site_net,
    merge_reports,
)
from repro.netlist import NetlistError
from repro.sim import LogicSimulator


def exhaustive(circuit):
    return [
        dict(zip(circuit.inputs, bits))
        for bits in itertools.product((0, 1), repeat=len(circuit.inputs))
    ]


class TestExpansion:
    def test_expansion_preserves_function(self):
        circuit = c17()
        expanded, _ = expand_branches(circuit)
        sim_a = LogicSimulator(circuit)
        sim_b = LogicSimulator(expanded)
        for pattern in exhaustive(circuit):
            assert sim_a.outputs(pattern) == sim_b.outputs(pattern)

    def test_branch_map_covers_fanout_pins(self):
        circuit = c17()
        _, branch_map = expand_branches(circuit)
        # G11 feeds G16 and G19; G16 feeds G22 and G23; G3 feeds G10, G11.
        assert ("G16", 1) in branch_map  # G16 reads G11 on pin 1
        assert ("G19", 0) in branch_map
        assert ("G22", 1) in branch_map
        assert ("G10", 1) in branch_map  # G3 branch

    def test_single_fanout_not_expanded(self):
        circuit = c17()
        _, branch_map = expand_branches(circuit)
        assert ("G22", 0) not in branch_map  # G10 has single fanout

    def test_fault_site_net(self):
        circuit = c17()
        _, branch_map = expand_branches(circuit)
        stem = Fault("G11", 0)
        branch = Fault("G11", 0, gate="G16", pin=1)
        assert fault_site_net(stem, branch_map) == "G11"
        assert fault_site_net(branch, branch_map) == "G16__in1"


class TestEngineAgreement:
    """All four combinational engines must produce identical detection."""

    @pytest.mark.parametrize(
        "factory",
        [
            c17,
            lambda: ripple_carry_adder(3),
            lambda: parity_tree(5),
            lambda: random_combinational(6, 40, seed=11),
            lambda: random_combinational(7, 60, seed=12),
        ],
    )
    def test_cross_validation(self, factory):
        circuit = factory()
        faults = all_faults(circuit)
        rng = random.Random(0)
        patterns = [
            {net: rng.randint(0, 1) for net in circuit.inputs}
            for _ in range(48)
        ]
        ppsf = FaultSimulator(circuit, faults=faults).run(
            patterns, drop_detected=False
        )
        serial = SerialFaultSimulator(circuit, faults=faults)
        pfsp = ParallelFaultSimulator(circuit, faults=faults).run(patterns)
        deductive = DeductiveFaultSimulator(circuit, faults=faults).run(patterns)
        assert ppsf.first_detection == pfsp.first_detection
        assert ppsf.first_detection == deductive.first_detection
        # Serial drops faults, so compare detected sets and indices.
        serial_report = serial.run(patterns)
        assert serial_report.first_detection == ppsf.first_detection


class TestFaultDropping:
    def test_dropping_preserves_detected_set(self):
        circuit = ripple_carry_adder(4)
        faults = collapse_faults(circuit)
        rng = random.Random(5)
        patterns = [
            {net: rng.randint(0, 1) for net in circuit.inputs}
            for _ in range(64)
        ]
        sim = FaultSimulator(circuit, faults=faults)
        with_drop = sim.run(patterns, batch_size=16, drop_detected=True)
        without = sim.run(patterns, batch_size=64, drop_detected=False)
        assert set(with_drop.first_detection) == set(without.first_detection)

    def test_batching_does_not_change_first_detection(self):
        circuit = c17()
        faults = all_faults(circuit)
        patterns = exhaustive(circuit)
        sim = FaultSimulator(circuit, faults=faults)
        a = sim.run(patterns, batch_size=4)
        b = sim.run(patterns, batch_size=32)
        assert a.first_detection == b.first_detection


class TestDetects:
    def test_detects_is_consistent_with_run(self):
        circuit = c17()
        sim = FaultSimulator(circuit)
        pattern = {"G1": 0, "G2": 1, "G3": 1, "G6": 1, "G7": 0}
        detected = sim.detected_faults(pattern)
        for fault in sim.faults:
            assert sim.detects(pattern, fault) == (fault in detected)

    def test_sequential_circuit_rejected(self):
        with pytest.raises(NetlistError):
            FaultSimulator(binary_counter(2))


class TestCoverageReport:
    def test_coverage_curve_monotone(self):
        circuit = ripple_carry_adder(3)
        report = engine_coverage(circuit, exhaustive(circuit))
        curve = report.coverage_curve()
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[-1] == report.coverage == 1.0

    def test_patterns_to_reach(self):
        circuit = c17()
        report = engine_coverage(circuit, exhaustive(circuit))
        needed = report.patterns_to_reach(1.0)
        assert needed is not None
        assert needed <= 32
        assert report.patterns_to_reach(2.0) is None

    def test_summary_format(self):
        report = CoverageReport("x", 4, [Fault("n", 0)])
        assert "0/1" in report.summary()

    def test_merge_reports(self):
        fault = Fault("n", 0)
        first = CoverageReport("x", 3, [fault])
        second = CoverageReport("x", 2, [fault])
        second.first_detection[fault] = 1
        merged = merge_reports([first, second])
        assert merged.num_patterns == 5
        assert merged.first_detection[fault] == 4  # offset by first run

    def test_merge_keeps_earliest(self):
        fault = Fault("n", 0)
        first = CoverageReport("x", 3, [fault])
        first.first_detection[fault] = 2
        second = CoverageReport("x", 2, [fault])
        second.first_detection[fault] = 0
        merged = merge_reports([first, second])
        assert merged.first_detection[fault] == 2

    def test_empty_fault_list_full_coverage(self):
        report = CoverageReport("x", 1, [])
        assert report.coverage == 1.0


class TestSequentialFaultSim:
    def test_shift_register_fault_detected_after_latency(self):
        circuit = shift_register(3)
        faults = [Fault("Q0", 0)]  # first stage stuck 0
        sim = SequentialFaultSimulator(circuit, faults=faults)
        sequence = [{"SIN": 1}] * 6
        report = sim.run(sequence, initial_state={"Q0": 0, "Q1": 0, "Q2": 0})
        assert faults[0] in report.first_detection
        # POs are read pre-clock: the good machine first shows a 1 at Q2
        # on cycle 3, which is when the stuck-0 front stage differs.
        assert report.first_detection[faults[0]] == 3

    def test_unknown_initial_state_blocks_detection(self):
        """Three-valued honesty: X state -> no definite detection."""
        circuit = shift_register(3)
        faults = [Fault("Q2", 0)]
        sim = SequentialFaultSimulator(circuit, faults=faults)
        report = sim.run([{"SIN": 0}])  # all-X start, good output X
        assert faults[0] not in report.first_detection

    def test_matches_combinational_for_scan_view(self):
        """On the combinational core, sequential sim in 1-cycle mode must
        agree with the combinational engine."""
        circuit = binary_counter(3)
        core = circuit.combinational_core()
        faults = collapse_faults(core)
        rng = random.Random(7)
        patterns = [
            {net: rng.randint(0, 1) for net in core.inputs}
            for _ in range(32)
        ]
        comb = FaultSimulator(core, faults=faults).run(patterns)
        seq = SequentialFaultSimulator(core, faults=faults)
        detected_seq = set()
        for pattern in patterns:
            report = seq.run([pattern])
            detected_seq.update(report.first_detection)
        assert set(comb.first_detection) == detected_seq

    def test_counter_stuck_enable(self):
        circuit = binary_counter(3)
        fault = Fault("EN", 0)
        sim = SequentialFaultSimulator(circuit, faults=[fault])
        sequence = [{"EN": 1}] * 4
        report = sim.run(
            sequence, initial_state={"Q0": 0, "Q1": 0, "Q2": 0}
        )
        assert report.first_detection[fault] == 1  # visible once Q0 differs
