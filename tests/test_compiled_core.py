"""Compiled-core unit tests and the cache-staleness regression class.

The latent bug class: engines that snapshot a circuit's levelization at
construction keep simulating the *old* netlist after a mutation.  The
compiled core keys its per-circuit program cache on
:attr:`Circuit.version` (bumped by every mutation), so these tests
mutate circuits *after* simulating and assert fresh — never stale —
results.
"""

import gc
import weakref

import pytest

from repro.circuits import c17
from repro.netlist import Circuit, GateType, NetlistError
from repro.sim import (
    LogicSimulator,
    PackedPatternSet,
    PackedSimulator,
    compile_circuit,
)


def _xor_pair():
    c = Circuit("xor_pair")
    c.add_inputs(["a", "b"])
    c.xor(["a", "b"], "y")
    c.add_output("y")
    return c


class TestVersionCounter:
    def test_version_bumps_on_every_mutation(self):
        c = Circuit("v")
        v0 = c.version
        c.add_input("a")
        assert c.version > v0
        v1 = c.version
        c.add_input("b")
        c.and_(["a", "b"], "y")
        assert c.version > v1
        v2 = c.version
        c.add_output("y")
        assert c.version > v2

    def test_analysis_does_not_bump_version(self):
        c = _xor_pair()
        v = c.version
        c.topological_order()
        c.depth()
        c.stats()
        assert c.version == v


class TestProgramCache:
    def test_program_is_cached_until_mutation(self):
        c = _xor_pair()
        first = compile_circuit(c)
        assert compile_circuit(c) is first
        c.not_("y", "z")
        c.add_output("z")
        second = compile_circuit(c)
        assert second is not first
        assert "z" in second.index
        assert "z" not in first.index

    def test_program_matches_circuit_structure(self):
        c = c17()
        program = compile_circuit(c)
        assert program.num_sources == len(c.inputs)
        assert program.num_nets == len(c.nets())
        assert len(program.ops) == len(c.gates)
        assert [program.net_names[i] for i in program.output_indices] == list(
            c.outputs
        )

    def test_cache_entry_dies_with_its_circuit(self):
        # Regression: a program holding its own circuit kept the
        # weak-keyed cache entry alive forever, so every simulator
        # construction leaked a compiled program.
        c = _xor_pair()
        program = compile_circuit(c)
        circuit_ref, program_ref = weakref.ref(c), weakref.ref(program)
        del c, program
        gc.collect()
        assert circuit_ref() is None
        assert program_ref() is None

    def test_cyclic_circuit_rejected(self):
        c = Circuit("latch")
        c.add_input("a")
        c.nand(["a", "q2"], "q1")
        c.nand(["a", "q1"], "q2")
        c.add_output("q1")
        with pytest.raises(NetlistError):
            compile_circuit(c)


class TestStalenessRegression:
    def test_packed_simulator_sees_added_gate(self):
        """Mutating after a run must invalidate the compiled program."""
        c = _xor_pair()
        sim = PackedSimulator(c)
        packed = PackedPatternSet.from_patterns(
            c.inputs, [{"a": 0, "b": 1}, {"a": 1, "b": 1}]
        )
        before = sim.run(packed)
        assert before["y"] == 0b01

        # Mutate: new inverter off the old output, plus a new output.
        c.not_("y", "yn")
        c.add_output("yn")
        after = sim.run(packed)
        assert after["y"] == 0b01
        assert after["yn"] == 0b10  # fresh program, not a stale one

    def test_packed_simulator_sees_new_input(self):
        c = _xor_pair()
        sim = PackedSimulator(c)
        packed = PackedPatternSet.from_patterns(c.inputs, [{"a": 1, "b": 0}])
        assert sim.run(packed)["y"] == 1

        # Reroute the output through a new masking input: y AND mask.
        c.add_input("mask")
        c.and_(["y", "mask"], "ym")
        c.add_output("ym")
        packed2 = PackedPatternSet.from_patterns(
            c.inputs, [{"a": 1, "b": 0, "mask": 0}, {"a": 1, "b": 0, "mask": 1}]
        )
        words = sim.run(packed2)
        assert words["ym"] == 0b10

    def test_levelization_cache_invalidates(self):
        c = _xor_pair()
        assert c.depth() == 1
        c.not_("y", "yn")
        c.add_output("yn")
        assert c.depth() == 2
        assert c.level_of("yn") == 2
        assert any(g.output == "yn" for g in c.topological_order())

    def test_mutation_between_runs_matches_fresh_build(self):
        """A mutated circuit must simulate exactly like a from-scratch
        twin — the strongest form of the no-staleness guarantee."""
        c = _xor_pair()
        sim = PackedSimulator(c)
        packed = PackedPatternSet.from_patterns(c.inputs, [{"a": 1, "b": 1}])
        sim.run(packed)  # prime the cache

        c.nor(["a", "y"], "w")
        c.add_output("w")

        twin = Circuit("twin")
        twin.add_inputs(["a", "b"])
        twin.xor(["a", "b"], "y")
        twin.add_output("y")
        twin.nor(["a", "y"], "w")
        twin.add_output("w")

        for a in (0, 1):
            for b in (0, 1):
                p = PackedPatternSet.from_patterns(c.inputs, [{"a": a, "b": b}])
                assert sim.run(p) == PackedSimulator(twin).run(p)

    def test_reference_path_also_tracks_mutation(self):
        """The pre-compiled dict walk fetches topo order per run too."""
        c = _xor_pair()
        sim = PackedSimulator(c, compiled=False)
        packed = PackedPatternSet.from_patterns(c.inputs, [{"a": 0, "b": 1}])
        sim.run(packed)
        c.not_("y", "yn")
        c.add_output("yn")
        assert sim.run(packed)["yn"] == 0


class TestCompiledEvaluation:
    def test_all_gate_types_match_logic_simulator(self):
        c = Circuit("kinds")
        c.add_inputs(["a", "b", "d"])
        c.and_(["a", "b"], "g_and")
        c.nand(["a", "b"], "g_nand")
        c.or_(["a", "b"], "g_or")
        c.nor(["a", "b"], "g_nor")
        c.xor(["a", "b"], "g_xor")
        c.xnor(["a", "b"], "g_xnor")
        c.not_("a", "g_not")
        c.buf("b", "g_buf")
        c.add_gate(GateType.CONST0, [], "g_c0")
        c.add_gate(GateType.CONST1, [], "g_c1")
        c.add_gate(GateType.AND, ["a", "b", "d"], "g_and3")
        c.add_gate(GateType.XNOR, ["a", "b", "d"], "g_xnor3")
        for net in [g.output for g in c.gates]:
            c.add_output(net)

        sim = PackedSimulator(c)
        reference = LogicSimulator(c)
        patterns = [
            {"a": (m >> 0) & 1, "b": (m >> 1) & 1, "d": (m >> 2) & 1}
            for m in range(8)
        ]
        packed = PackedPatternSet.from_patterns(c.inputs, patterns)
        words = sim.run(packed)
        for index, pattern in enumerate(patterns):
            expected = reference.run(pattern)
            for net in c.outputs:
                assert (words[net] >> index) & 1 == expected[net]

    def test_forced_run_matches_reference_path(self):
        c = c17()
        packed = PackedPatternSet.exhaustive(list(c.inputs))
        fast = PackedSimulator(c)
        slow = PackedSimulator(c, compiled=False)
        some_internal = c.gates[0].output
        for force in (
            None,
            {some_internal: 0},
            {some_internal: packed.mask},
            {c.inputs[0]: 0b1010},
            {"not_a_net": 7},
        ):
            assert fast.run(packed, force=force) == slow.run(packed, force=force)

    def test_cone_of_primary_output_detects_site_itself(self):
        """A fault on a PO net must be observable even with empty fanout."""
        c = _xor_pair()
        program = compile_circuit(c)
        cone = program.cone(program.index["y"])
        assert program.index["y"] in cone.po_indices
        assert cone.ops == []


class TestScratchAliasing:
    """Regressions for the shared-scratch fast path in FaultInjector.

    ``detect_word`` evaluates each fault cone in a reusable scratch
    list instead of copying the whole good machine per call; these
    tests pin the invariants that make that safe: the scratch is
    restored to the good machine between injections, it never aliases
    the good list itself, and the results are bit-identical to the
    fresh-copy ``eval_cone`` path in any call order.
    """

    def _injector(self, circuit, count=24, seed=3):
        import random

        from repro.faultsim import expand_branches, fault_site_net
        from repro.sim import FaultInjector

        rng = random.Random(seed)
        patterns = [
            {net: rng.randint(0, 1) for net in circuit.inputs}
            for _ in range(count)
        ]
        packed = PackedPatternSet.from_patterns(circuit.inputs, patterns)
        expanded, branch_map = expand_branches(circuit)
        injector = FaultInjector(expanded, packed)
        from repro.faults import collapse_faults

        sites = []
        for fault in collapse_faults(circuit):
            site = injector.site_index(fault_site_net(fault, branch_map))
            if site is not None:
                sites.append((site, packed.mask if fault.value else 0))
        return injector, packed, sites

    def test_scratch_restored_between_injections(self):
        injector, _, sites = self._injector(c17())
        for site, forced in sites:
            injector.detect_word(site, forced)
            assert injector._scratch == injector.good

    def test_scratch_never_aliases_good(self):
        injector, _, sites = self._injector(c17())
        injector.detect_word(*sites[0])
        assert injector._scratch is not injector.good

    def test_repeated_calls_match_fresh_copy_eval(self):
        """Any interleaving of detect_word calls equals eval_cone on a
        fresh good-machine copy, bit for bit."""
        import random

        from repro.circuits import random_combinational

        circuit = random_combinational(8, 60, seed=21)
        injector, packed, sites = self._injector(circuit, count=40, seed=21)
        program = injector.program
        expected = {}
        for site, forced in sites:
            cone = program.cone(site)
            words = program.eval_cone(
                cone, injector.good, forced, packed.mask
            )
            detected = 0
            for out in cone.po_indices:
                detected |= injector.good[out] ^ words[out]
            # eval_cone skips the activation pre-filter; apply it here.
            if not (injector.good[site] ^ forced) & packed.mask:
                detected = 0
            expected[(site, forced)] = detected & packed.mask
        order = list(sites) * 2  # repeats exercise scratch reuse
        random.Random(0).shuffle(order)
        for site, forced in order:
            assert injector.detect_word(site, forced) == expected[(site, forced)]

    def test_eval_words_out_buffer_reuse(self):
        """eval_words(out=...) overwrites every entry — no stale leaks —
        and returns the same list object it was handed."""
        c = c17()
        program = compile_circuit(c)
        packed = PackedPatternSet.exhaustive(list(c.inputs))
        source_words = [
            packed.words.get(net, 0) for net in program.source_names
        ]
        fresh = program.eval_words(source_words, packed.mask)
        poisoned = [0xDEADBEEF] * program.num_nets
        result = program.eval_words(source_words, packed.mask, out=poisoned)
        assert result is poisoned
        assert result == fresh
        # A second reuse with different sources must not leak the first.
        zero_sources = [0] * len(source_words)
        zero_fresh = program.eval_words(zero_sources, packed.mask)
        assert program.eval_words(zero_sources, packed.mask, out=poisoned) == zero_fresh
