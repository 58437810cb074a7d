"""ATPG engine tests: PODEM and the D-algorithm against the exhaustive
Boolean-difference oracle, plus random generation and compaction."""

import itertools
import random

import pytest

from repro.atpg import (
    AdaptiveRandomGenerator,
    DAlgorithm,
    PodemGenerator,
    boolean_difference,
    detecting_minterms,
    exhaustive_patterns,
    fill_cubes,
    fill_dont_cares,
    generate_tests,
    is_redundant,
    merge_cubes,
    minterm_to_pattern,
    random_patterns,
    reverse_order_compaction,
    weighted_random_patterns,
)
from repro.circuits import (
    alu74181,
    binary_counter,
    c17,
    carry_lookahead_adder,
    majority3,
    parity_tree,
    random_combinational,
    ripple_carry_adder,
    wide_and_pla,
)
from repro.faults import Fault, all_faults, collapse_faults
from repro.faultsim import FaultSimulator
from repro.netlist import Circuit, NetlistError


def redundant_circuit():
    """z = (a AND b) OR (a AND NOT b) OR a — the last term is redundant
    in a way that makes some faults untestable."""
    c = Circuit("redundant")
    c.add_inputs(["a", "b"])
    c.not_("b", "nb")
    c.and_(["a", "b"], "t1")
    c.and_(["a", "nb"], "t2")
    c.or_(["t1", "t2"], "z")  # z == a
    c.add_output("z")
    return c


class TestOracle:
    def test_detecting_minterms_and_gate(self):
        from repro.circuits import and_gate

        c = and_gate(2)
        # A stuck-at-1: test requires A=0, B=1 (paper Fig. 1's pattern).
        minterms = detecting_minterms(c, Fault("A", 1))
        patterns = [minterm_to_pattern(c, m) for m in minterms]
        assert patterns == [{"A": 0, "B": 1}]

    def test_boolean_difference_xor_is_everywhere_sensitive(self):
        c = parity_tree(4)
        sensitive = boolean_difference(c, "PARITY", "I2")
        assert len(sensitive) == 16  # all patterns sensitize an XOR input

    def test_redundancy_identified(self):
        c = redundant_circuit()
        # t1 stuck-at-0: z still equals a (t2 covers it for b=0; for b=1,
        # a=1 forces t1=1 in good machine... check via oracle instead.
        redundant = [f for f in all_faults(c) if is_redundant(c, f)]
        assert redundant  # the circuit does contain untestable faults


class TestPodem:
    @pytest.mark.parametrize(
        "factory",
        [c17, majority3, lambda: ripple_carry_adder(3), lambda: parity_tree(5)],
    )
    def test_every_pattern_is_a_real_test(self, factory):
        circuit = factory()
        engine = PodemGenerator(circuit)
        simulator = FaultSimulator(circuit, faults=all_faults(circuit))
        rng = random.Random(1)
        for fault in simulator.faults:
            result = engine.generate(fault)
            assert result.found, f"PODEM failed on testable {fault}"
            filled = fill_dont_cares(result.pattern, circuit.inputs, rng)
            assert simulator.detects(filled, fault), fault

    def test_agrees_with_oracle_on_testability(self):
        circuit = redundant_circuit()
        engine = PodemGenerator(circuit)
        for fault in all_faults(circuit):
            oracle_says_testable = not is_redundant(circuit, fault)
            result = engine.generate(fault)
            assert result.found == oracle_says_testable, fault
            if not result.found:
                assert result.redundant and not result.aborted

    def test_pattern_within_oracle_set(self):
        circuit = c17()
        engine = PodemGenerator(circuit)
        rng = random.Random(3)
        for fault in collapse_faults(circuit):
            result = engine.generate(fault)
            minterms = set(detecting_minterms(circuit, fault))
            filled = fill_dont_cares(result.pattern, circuit.inputs, rng)
            minterm = sum(
                filled[net] << i for i, net in enumerate(circuit.inputs)
            )
            assert minterm in minterms

    def test_sequential_circuit_rejected(self):
        with pytest.raises(NetlistError):
            PodemGenerator(binary_counter(3))

    def test_backtrack_limit_reported(self):
        circuit = carry_lookahead_adder(4)
        engine = PodemGenerator(circuit, backtrack_limit=0)
        fault = Fault("COUT", 0)
        result = engine.generate(fault)
        # With zero budget the engine can still succeed on first descent,
        # but it must never claim redundancy.
        if not result.found:
            assert result.aborted


class TestDAlgorithm:
    @pytest.mark.parametrize(
        "factory",
        [c17, majority3, lambda: ripple_carry_adder(3), lambda: parity_tree(4)],
    )
    def test_every_pattern_is_a_real_test(self, factory):
        circuit = factory()
        engine = DAlgorithm(circuit)
        simulator = FaultSimulator(circuit, faults=all_faults(circuit))
        rng = random.Random(2)
        for fault in simulator.faults:
            result = engine.generate(fault)
            assert result.found, f"D-alg failed on testable {fault}"
            filled = fill_dont_cares(result.pattern, circuit.inputs, rng)
            assert simulator.detects(filled, fault), fault

    def test_redundancy_on_redundant_circuit(self):
        circuit = redundant_circuit()
        engine = DAlgorithm(circuit)
        for fault in all_faults(circuit):
            result = engine.generate(fault)
            assert result.found == (not is_redundant(circuit, fault)), fault


class TestRandomGeneration:
    def test_deterministic_by_seed(self):
        c = c17()
        assert random_patterns(c, 10, seed=4) == random_patterns(c, 10, seed=4)
        assert random_patterns(c, 10, seed=4) != random_patterns(c, 10, seed=5)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**31 - 1])
    def test_bulk_draw_matches_per_bit_randint(self, seed):
        """The bulk draw reproduces ``rng.randint(0, 1)`` per bit, which
        the pinned PODEM digests also depend on, on this Python."""
        for circuit in (c17(), alu74181(), Circuit("no_inputs")):
            for count in (0, 1, 7, 300):
                rng = random.Random(seed)
                per_bit = [
                    {net: rng.randint(0, 1) for net in circuit.inputs}
                    for _ in range(count)
                ]
                assert random_patterns(circuit, count, seed=seed) == per_bit

    def test_weighted_bias(self):
        c = wide_and_pla(8).to_circuit()
        heavy = weighted_random_patterns(
            c, 400, {net: 0.9 for net in c.inputs}, seed=1
        )
        ones = sum(p[c.inputs[0]] for p in heavy)
        assert ones > 300

    def test_weighting_rescues_wide_and(self):
        """§V-A: weighted random catches the high-fanin faults uniform
        random misses."""
        circuit = wide_and_pla(10).to_circuit()
        faults = collapse_faults(circuit)
        simulator = FaultSimulator(circuit, faults=faults)
        uniform = simulator.run(random_patterns(circuit, 120, seed=0))
        weighted = simulator.run(
            weighted_random_patterns(
                circuit, 120, {net: 0.95 for net in circuit.inputs}, seed=0
            )
        )
        assert weighted.coverage > uniform.coverage

    def test_adaptive_spreads_patterns(self):
        c = parity_tree(8)
        gen = AdaptiveRandomGenerator(c, seed=0, candidates=16)
        patterns = gen.generate(12)
        blind = random_patterns(c, 12, seed=0)

        def min_distance(patterns_):
            dists = []
            for i, a in enumerate(patterns_):
                for b in patterns_[i + 1 :]:
                    dists.append(sum(1 for n in c.inputs if a[n] != b[n]))
            return min(dists)

        assert min_distance(patterns) >= min_distance(blind)

    def test_exhaustive_patterns_limit(self):
        with pytest.raises(ValueError):
            exhaustive_patterns(random_combinational(25, 30, seed=0))

    def test_exhaustive_count(self):
        assert len(exhaustive_patterns(majority3())) == 8


class TestCompaction:
    def test_merge_compatible(self):
        inputs = ["a", "b", "c"]
        cubes = [
            {"a": 1, "b": None, "c": None},
            {"a": None, "b": 0, "c": None},
            {"a": 0, "b": None, "c": 1},
        ]
        merged = merge_cubes(cubes, inputs)
        assert len(merged) == 2  # first two merge; third conflicts on a

    def test_fill_respects_assignments(self):
        filled = fill_cubes([{"a": 1, "b": None}], ["a", "b"], seed=0)
        assert filled[0]["a"] == 1
        assert filled[0]["b"] in (0, 1)

    def test_reverse_order_compaction_preserves_coverage(self):
        circuit = ripple_carry_adder(3)
        patterns = random_patterns(circuit, 60, seed=9)
        faults = collapse_faults(circuit)
        simulator = FaultSimulator(circuit, faults=faults)
        before = simulator.run(patterns)
        compacted = reverse_order_compaction(circuit, patterns, faults=faults)
        after = simulator.run(compacted)
        assert len(compacted) < len(patterns)
        assert set(after.first_detection) == set(before.first_detection)


class TestTopLevelFlow:
    @pytest.mark.parametrize("method", ["podem", "dalg"])
    def test_full_coverage_on_irredundant_circuits(self, method):
        for factory in (c17, lambda: ripple_carry_adder(4)):
            circuit = factory()
            result = generate_tests(circuit, method=method, seed=1)
            assert result.coverage == 1.0
            assert not result.aborted

    def test_alu_coverage(self):
        result = generate_tests(alu74181(), random_phase=32, seed=0)
        assert result.coverage == 1.0
        assert result.redundant == []

    def test_redundant_faults_reported_not_covered(self):
        circuit = redundant_circuit()
        result = generate_tests(circuit, random_phase=4, seed=0)
        assert result.redundant
        assert result.testable_coverage == 1.0
        assert result.coverage < 1.0

    def test_compaction_reduces_patterns(self):
        circuit = ripple_carry_adder(4)
        compact = generate_tests(circuit, compact=True, random_phase=0, seed=2)
        loose = generate_tests(circuit, compact=False, random_phase=0, seed=2)
        assert len(compact.patterns) <= len(loose.patterns)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            generate_tests(c17(), method="magic")

    def test_report_is_verified_by_independent_sim(self):
        circuit = c17()
        result = generate_tests(circuit, seed=3)
        independent = FaultSimulator(circuit, faults=list(result.report.faults))
        check = independent.run(result.patterns)
        assert set(check.first_detection) == set(result.report.first_detection)


class TestFillConsistency:
    """Regression tests for the verify-vs-ship fill divergence.

    ``generate_tests`` used to random-fill each deterministic cube twice
    from different RNG streams: once (from ``rng``) to fault-simulate and
    drop faults, and again (via ``fill_cubes(seed + 1)``) to build the
    shipped test set.  Drops were therefore made against patterns that
    never shipped, and repair rounds papered over the gap with extra
    patterns.  Now one fill is used for verification, dropping, and the
    emitted tests.
    """

    @staticmethod
    def _two_wires():
        circuit = Circuit("two_wires")
        circuit.add_input("A")
        circuit.add_input("B")
        circuit.buf("A", "O1")
        circuit.buf("B", "O2")
        circuit.add_output("O1")
        circuit.add_output("O2")
        circuit.validate()
        return circuit

    def test_verified_fill_is_the_shipped_pattern(self):
        # Targeting A/0 leaves B a don't-care.  With seed=4 the verify
        # fill sets B=0 (detecting B/1, which gets dropped) while the old
        # ship-side refill under seed+1 set B=1 — so the dropped fault
        # went undetected by the shipped set and a repair pattern was
        # needed.  One pattern must now suffice.
        assert random.Random(4).randint(0, 1) == 0  # seed guard
        assert random.Random(5).randint(0, 1) == 1
        faults = [Fault("A", 0), Fault("B", 1)]
        result = generate_tests(
            self._two_wires(),
            faults=faults,
            random_phase=0,
            compact=False,
            seed=4,
        )
        assert result.coverage == 1.0
        assert len(result.patterns) == 1
        assert result.patterns[0] == {"A": 1, "B": 0}

    @pytest.mark.parametrize("compact", [True, False])
    def test_patterns_fully_specified_over_inputs(self, compact):
        circuit = ripple_carry_adder(3)
        result = generate_tests(circuit, random_phase=4, compact=compact, seed=7)
        inputs = set(circuit.inputs)
        for pattern in result.patterns:
            assert set(pattern) == inputs
            assert all(value in (0, 1) for value in pattern.values())

    def test_reported_coverage_matches_independent_resim(self):
        circuit = carry_lookahead_adder(4)
        result = generate_tests(circuit, random_phase=0, compact=False, seed=4)
        independent = FaultSimulator(circuit, faults=list(result.report.faults))
        check = independent.run(result.patterns)
        assert check.coverage == result.coverage


class TestReverseCompactOption:
    def test_reverse_compact_preserves_coverage(self):
        circuit = ripple_carry_adder(4)
        base = generate_tests(circuit, random_phase=16, seed=2)
        reverse = generate_tests(
            circuit, random_phase=16, seed=2, reverse_compact=True
        )
        assert reverse.coverage == base.coverage
        assert len(reverse.patterns) <= len(base.patterns)

    def test_reverse_order_compaction_engine_selector(self):
        circuit = c17()
        result = generate_tests(circuit, random_phase=16, compact=False, seed=0)
        faults = list(result.report.faults)
        default = reverse_order_compaction(circuit, result.patterns, faults=faults)
        serial = reverse_order_compaction(
            circuit, result.patterns, faults=faults, engine="serial"
        )
        assert serial == default
        check = FaultSimulator(circuit, faults=faults).run(serial)
        assert check.coverage == result.coverage
