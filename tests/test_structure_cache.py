"""The process-wide structure cache: its key, its bound, its sharing.

Every fault simulator, test generator and BIST analyzer takes one
:class:`~repro.faultsim.expand.NetlistStructure` per netlist from the
LRU in :mod:`repro.sim.compiled`.  These tests pin what makes sharing
it safe: the key keeps declaration order (results depend on it), a
mutated circuit is re-keyed, no consumer mutates a shared structure,
the LRU and each program's union-cone cache stay bounded, and threads
that share an entry get the reports one thread gets alone.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro import telemetry
from repro.adhoc.bed_of_nails import _ForcedNetFaultSimulator
from repro.atpg import generate_tests, random_patterns
from repro.atpg.boolean_difference import boolean_difference, detecting_minterms
from repro.atpg.d_algorithm import DAlgorithm
from repro.atpg.delay import (
    TransitionFaultSimulator,
    TransitionTestGenerator,
    all_transition_faults,
)
from repro.atpg.podem import PodemGenerator
from repro.bist.syndrome import SyndromeAnalyzer
from repro.bist.walsh import WalshAnalyzer
from repro.circuits import alu74181
from repro.circuits.random_logic import random_combinational
from repro.faults import collapse_faults, plan_fault_model
from repro.faultsim import (
    FaultDictionary,
    FaultSimulator,
    ParallelFaultSimulator,
    SequentialFaultSimulator,
    SerialFaultSimulator,
    WideFaultSimulator,
    engine_coverage,
)
from repro.faultsim.expand import netlist_structure
from repro.netlist import Circuit, GateType
from repro.netlist.hashing import ordered_hash, structural_hash
from repro.sim import compiled
from repro.testers.compact import compact_method_comparison


@pytest.fixture(autouse=True)
def empty_cache():
    """Each test starts, as a fresh process does, with nothing cached."""
    compiled._CACHE.clear()
    yield
    compiled._CACHE.clear()


def _reversed_copy(circuit: Circuit) -> Circuit:
    """The same netlist with inputs and gates declared in reverse order."""
    dup = Circuit(circuit.name)
    for net in reversed(circuit.inputs):
        dup.add_input(net)
    for gate in reversed(circuit.gates):
        dup.add_gate(gate.kind, gate.inputs, gate.output, gate.name)
    for net in circuit.outputs:
        dup.add_output(net)
    return dup


def _atpg_results(circuit: Circuit):
    """Collapse order and every collapsed fault's PODEM outcome."""
    faults = plan_fault_model(circuit).faults
    podem = PodemGenerator(circuit)
    outcomes = []
    for fault in faults:
        result = podem.generate(fault)
        outcomes.append(
            (result.pattern, result.redundant, result.aborted,
             result.decisions, result.backtracks)
        )
    return faults, outcomes


class TestKeyKeepsOrder:
    def test_reversed_copy_is_structurally_equal_but_collapses_differently(self):
        alu = alu74181()
        rev = _reversed_copy(alu)
        assert structural_hash(alu) == structural_hash(rev)
        assert ordered_hash(alu) != ordered_hash(rev)
        assert collapse_faults(alu) != collapse_faults(rev)
        assert sorted(collapse_faults(alu), key=str) == sorted(
            collapse_faults(rev), key=str
        )

    @pytest.mark.parametrize("first", ["alu", "reversed"])
    def test_each_order_gets_its_fresh_process_results(self, first):
        builders = {"alu": alu74181, "reversed": lambda: _reversed_copy(alu74181())}
        fresh = {}
        for name, build in builders.items():
            compiled._CACHE.clear()
            fresh[name] = _atpg_results(build())
        faults_alu, outcomes_alu = fresh["alu"]
        faults_rev, outcomes_rev = fresh["reversed"]
        by_fault = dict(zip(faults_rev, outcomes_rev))
        # The premise: order alone changes PODEM's answers.
        assert any(by_fault[f] != o for f, o in zip(faults_alu, outcomes_alu))

        compiled._CACHE.clear()
        order = [first] + [name for name in builders if name != first]
        circuits = {name: builders[name]() for name in order}
        for name in order:
            assert _atpg_results(circuits[name]) == fresh[name]
        # Both stay cached and keep their own answers on reuse.
        for name in reversed(order):
            assert _atpg_results(circuits[name]) == fresh[name]


class TestMutationAndSharing:
    def test_mutated_circuit_gets_a_new_structure_and_a_fresh_report(self):
        def build(extra: bool) -> Circuit:
            circuit = random_combinational(8, 40, seed=5)
            if extra:
                circuit.add_gate(GateType.XOR, list(circuit.inputs[:2]), "extra")
                circuit.add_output("extra")
            return circuit

        circuit = build(extra=False)
        patterns = random_patterns(circuit, 64, seed=3)
        before = netlist_structure(circuit)
        engine_coverage(circuit, patterns)
        circuit.add_gate(GateType.XOR, list(circuit.inputs[:2]), "extra")
        circuit.add_output("extra")
        after = netlist_structure(circuit)
        assert after is not before
        assert "extra" in after.program.index
        assert "extra" not in before.program.index
        patterns = random_patterns(circuit, 64, seed=3)
        report = engine_coverage(circuit, patterns)

        compiled._CACHE.clear()
        fresh = engine_coverage(build(extra=True), patterns)
        assert report.faults == fresh.faults
        assert report.first_detection == fresh.first_detection

    def test_no_consumer_mutates_the_shared_expansion(self):
        circuit = random_combinational(6, 30, seed=2)
        structure = netlist_structure(circuit)
        version = structure.expanded.version
        digest = ordered_hash(structure.expanded)
        patterns = random_patterns(circuit, 32, seed=1)
        faults = list(structure.collapsed(circuit))
        output = circuit.outputs[0]

        for engine in (FaultSimulator, SerialFaultSimulator,
                       ParallelFaultSimulator, WideFaultSimulator,
                       SequentialFaultSimulator):
            engine(circuit).run(patterns)
        FaultDictionary(circuit, patterns[:4])
        podem = PodemGenerator(circuit)
        dalg = DAlgorithm(circuit)
        for fault in faults[:8]:
            podem.generate(fault)
            dalg.generate(fault)
        transition_faults = all_transition_faults(circuit)[:4]
        generator = TransitionTestGenerator(circuit)
        for tfault in transition_faults:
            generator.generate(tfault)
        TransitionFaultSimulator(circuit, transition_faults).detects(
            patterns[0], patterns[1], transition_faults[0]
        )
        detecting_minterms(circuit, faults[0])
        boolean_difference(circuit, output, circuit.inputs[0])
        SyndromeAnalyzer(circuit).faulty_counts(faults[0])
        WalshAnalyzer(circuit).faulty_coefficients(faults[0])
        _ForcedNetFaultSimulator(
            circuit, circuit.inputs[:2], [output], faults
        ).run(patterns[:8])
        compact_method_comparison(circuit, patterns[:16], faults)
        plan_fault_model(circuit)

        assert netlist_structure(circuit) is structure
        assert structure.expanded.version == version
        assert ordered_hash(structure.expanded) == digest

    def test_threads_sharing_an_entry_grade_identically(self):
        circuit = random_combinational(10, 120, seed=9)
        patterns = random_patterns(circuit, 300, seed=4)
        expected = [
            engine_coverage(circuit, patterns),
            engine_coverage(circuit, patterns, engine="wide"),
        ]
        compiled._CACHE.clear()
        workers = 4  # more threads than cores, all racing to build
        start = threading.Barrier(workers)
        results = {}

        def grade(name: int) -> None:
            start.wait(timeout=60)
            results[name] = [
                engine_coverage(circuit, patterns),
                engine_coverage(circuit, patterns, engine="wide"),
            ]

        threads = [threading.Thread(target=grade, args=(n,)) for n in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(workers))
        for reports in results.values():
            for report, reference in zip(reports, expected):
                assert report.faults == reference.faults
                assert report.first_detection == reference.first_detection
        # One structure and one program for the netlist, however many
        # threads built them at once.
        assert len(compiled._CACHE) == 2

    def test_bridging_composite_is_never_collapsed(self):
        circuit = alu74181()
        result = generate_tests(circuit, fault_model="bridging", seed=3)
        composite = plan_fault_model(circuit, "bridging", seed=3).circuit
        assert result.coverage > 0
        entries = len(compiled._CACHE)
        structure = netlist_structure(composite)
        assert len(compiled._CACHE) == entries  # the ATPG run built it
        # Each composite is built per cell and graded on its own fault
        # list, so its stuck-at collapse would be paid for nothing.
        assert structure._collapsed is None
        assert netlist_structure(circuit).collapsed(circuit) == tuple(
            collapse_faults(circuit)
        )


class TestBounds:
    def test_lru_holds_its_entry_count_and_no_circuit(self):
        size = compiled.CACHE_ENTRIES
        circuits = [random_combinational(4, 6 + i, seed=i) for i in range(size + 2)]
        programs = [compiled.compile_circuit(c) for c in circuits]
        assert len(compiled._CACHE) == size
        # The two least recently used entries were evicted.
        assert compiled.compile_circuit(circuits[-1]) is programs[-1]
        assert compiled.compile_circuit(circuits[0]) is not programs[0]

        refs = [weakref.ref(c) for c in circuits]
        for circuit in circuits[:4]:
            netlist_structure(circuit)
        del circuits, programs, circuit
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(compiled._CACHE) == size

    def test_union_cones_stay_at_their_cap_and_still_hit(self, monkeypatch):
        cap = 10
        monkeypatch.setattr(compiled, "UNION_CONES", cap)
        circuit = random_combinational(8, 60, seed=11)
        structure = netlist_structure(circuit)
        # Four full-list fault batches recur on every grading; the
        # batches of faults left after dropping differ per block.
        fault_batch = -(-len(structure.collapsed(circuit)) // 4)
        union_cones = structure.program.union_cones
        hits = []
        for block in range(8):
            patterns = random_patterns(circuit, 24, seed=100 + block)
            simulator = WideFaultSimulator(circuit, fault_batch=fault_batch)
            with telemetry.capture() as session:
                simulator.run(patterns, batch_size=8)
            hits.append(session.counters.get("sim.wide.union_cache_hits", 0))
            assert len(union_cones) <= cap
        assert len(union_cones) == cap
        assert hits[0] == 0
        assert all(count >= 4 for count in hits[1:])
