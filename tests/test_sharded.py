"""Cross-process determinism suite for sharded fault simulation.

The contract under test (DESIGN.md, "Sharded execution"): for every
engine — the four combinational ones and the sequential scan-flow
verifier — a sharded run over any ``workers``/``shards`` combination
produces the **bit-identical** ``CoverageReport`` (same fault order,
same first-detection indices, same coverage) as the single-process
run, including shard counts that don't divide the fault list evenly
and degenerate 0- and 1-fault lists.
"""

import random

import pytest

from repro import telemetry
from repro.circuits import (
    alu74181,
    binary_counter,
    c17,
    iscas85_like,
    registered_alu74181,
    sequence_detector,
)
from repro.faults import collapse_faults
from repro.faultsim import (
    Engine,
    SequentialFaultSimulator,
    ShardedFaultSimulator,
    create_simulator,
    merge_reports,
    sample_fault_list,
    shard_faults,
    sharded_coverage,
)
from repro.faultsim.coverage import CoverageReport
from repro.exec import ForkBackend
from repro.atpg import generate_tests
from repro.scan import full_scan_flow, insert_scan, schedule_scan_tests

WORKER_COUNTS = (1, 2, 4)


def random_patterns(circuit, count, seed):
    rng = random.Random(seed)
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs}
        for _ in range(count)
    ]


class TestShardFaults:
    def test_concatenation_preserves_order(self):
        faults = collapse_faults(c17())
        for shards in (1, 2, 3, 5, 7, len(faults), len(faults) + 9):
            pieces = shard_faults(faults, shards)
            assert [f for piece in pieces for f in piece] == faults

    def test_sizes_differ_by_at_most_one(self):
        faults = collapse_faults(alu74181())
        pieces = shard_faults(faults, 7)  # 7 never divides evenly here
        sizes = [len(p) for p in pieces]
        assert max(sizes) - min(sizes) <= 1
        assert all(sizes)

    def test_deterministic(self):
        faults = collapse_faults(c17())
        assert shard_faults(faults, 4) == shard_faults(faults, 4)

    def test_empty_and_tiny_lists(self):
        assert shard_faults([], 4) == []
        one = collapse_faults(c17())[:1]
        assert shard_faults(one, 4) == [one]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_faults([], 0)


class TestFaultAxisMerge:
    def setup_method(self):
        self.circuit = c17()
        self.faults = collapse_faults(self.circuit)
        self.patterns = random_patterns(self.circuit, 8, seed=3)
        self.single = create_simulator(
            self.circuit, Engine.SERIAL, faults=self.faults
        ).run(self.patterns)

    def _shard_reports(self, shards):
        return [
            create_simulator(self.circuit, Engine.SERIAL, faults=piece).run(
                self.patterns
            )
            for piece in shard_faults(self.faults, shards)
        ]

    def test_merge_reproduces_single_process_report(self):
        merged = merge_reports(self._shard_reports(3), axis="faults")
        assert merged == self.single

    def test_overlapping_shards_rejected(self):
        reports = self._shard_reports(2)
        reports.append(reports[0])
        with pytest.raises(ValueError, match="disjoint"):
            merge_reports(reports, axis="faults")

    def test_circuit_mismatch_rejected(self):
        reports = self._shard_reports(2)
        other = CoverageReport("other_circuit", len(self.patterns), [])
        with pytest.raises(ValueError, match="different circuits"):
            merge_reports(reports + [other], axis="faults")

    def test_pattern_count_mismatch_rejected(self):
        reports = self._shard_reports(2)
        odd = CoverageReport(self.circuit.name, 99, [])
        with pytest.raises(ValueError, match="pattern sets"):
            merge_reports(reports + [odd], axis="faults")

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="nothing"):
            merge_reports([], axis="faults")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            merge_reports([self.single], axis="sideways")


class TestCombinationalDeterminism:
    """Sharded == single-process for every combinational engine."""

    @pytest.mark.parametrize("engine", list(Engine))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_c17_uneven_shards(self, engine, workers):
        circuit = c17()
        faults = collapse_faults(circuit)
        patterns = random_patterns(circuit, 12, seed=1)
        single = create_simulator(circuit, engine, faults=faults).run(patterns)
        merged = sharded_coverage(
            circuit,
            patterns,
            engine=engine,
            faults=faults,
            workers=workers,
            shards=5,  # does not divide c17's fault list evenly
        )
        assert merged == single

    @pytest.mark.parametrize("engine", list(Engine))
    @pytest.mark.parametrize("fault_count", (0, 1))
    def test_degenerate_fault_lists(self, engine, fault_count):
        circuit = c17()
        faults = collapse_faults(circuit)[:fault_count]
        patterns = random_patterns(circuit, 6, seed=2)
        single = create_simulator(circuit, engine, faults=faults).run(patterns)
        merged = sharded_coverage(
            circuit, patterns, engine=engine, faults=faults, workers=2, shards=4
        )
        assert merged == single

    def test_alu_parallel_pattern_sharded(self):
        circuit = alu74181()
        faults = collapse_faults(circuit)
        patterns = random_patterns(circuit, 16, seed=4)
        single = create_simulator(
            circuit, Engine.PARALLEL_PATTERN, faults=faults
        ).run(patterns)
        merged = sharded_coverage(
            circuit,
            patterns,
            engine=Engine.PARALLEL_PATTERN,
            faults=faults,
            workers=4,
            shards=7,
        )
        assert merged == single

    def test_inprocess_fallback_matches(self, monkeypatch):
        """Pinned fork backend, no fork support => in-process, same result."""
        monkeypatch.setattr(
            ForkBackend, "available", classmethod(lambda cls: False)
        )
        circuit = c17()
        faults = collapse_faults(circuit)
        patterns = random_patterns(circuit, 8, seed=5)
        single = create_simulator(
            circuit, Engine.PARALLEL_PATTERN, faults=faults
        ).run(patterns)
        simulator = ShardedFaultSimulator(
            circuit, Engine.PARALLEL_PATTERN, faults=faults, workers=4,
            shards=3, backend="fork",
        )
        assert simulator.run(patterns) == single
        assert simulator.stats["mode"] == "inprocess"

    def test_auto_backend_uses_spawn_when_fork_unavailable(self, monkeypatch):
        """Spawn-only platforms get a real pool, not silent degradation."""
        monkeypatch.setattr(
            ForkBackend, "available", classmethod(lambda cls: False)
        )
        circuit = c17()
        faults = collapse_faults(circuit)
        patterns = random_patterns(circuit, 8, seed=5)
        single = create_simulator(
            circuit, Engine.PARALLEL_PATTERN, faults=faults
        ).run(patterns)
        simulator = ShardedFaultSimulator(
            circuit, Engine.PARALLEL_PATTERN, faults=faults, workers=2,
            shards=2,
        )
        assert simulator.run(patterns) == single
        assert simulator.stats["mode"] == "spawn"
        assert simulator.workers_section()["backend"] == "spawn"
        assert simulator.workers_section()["reason"] is None

    def test_detects_and_detected_faults_delegate(self):
        circuit = c17()
        faults = collapse_faults(circuit)
        patterns = random_patterns(circuit, 4, seed=6)
        local = create_simulator(
            circuit, Engine.PARALLEL_PATTERN, faults=faults
        )
        sharded = ShardedFaultSimulator(
            circuit, Engine.PARALLEL_PATTERN, faults=faults, workers=2
        )
        for pattern in patterns:
            assert sharded.detected_faults(pattern) == local.detected_faults(
                pattern
            )
            for fault in faults[:4]:
                assert sharded.detects(pattern, fault) == local.detects(
                    pattern, fault
                )


class TestWorkloadMatrix:
    """Engines x workers {1,2,4} x {74181, registered 74181, ISCAS-scale}.

    Every cell must merge to the bit-identical single-process report,
    including the 0- and 1-fault corners.  Fault lists are sampled
    (deterministically) to keep the slow engines inside test budget —
    exactness, not throughput, is what this matrix pins.
    """

    @pytest.mark.parametrize("engine", list(Engine))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_alu74181_all_engines(self, engine, workers):
        circuit = alu74181()
        faults = sample_fault_list(collapse_faults(circuit), 48, seed=1)
        patterns = random_patterns(circuit, 12, seed=1)
        single = create_simulator(circuit, engine, faults=faults).run(patterns)
        merged = sharded_coverage(
            circuit,
            patterns,
            engine=engine,
            faults=faults,
            workers=workers,
            shards=3,
        )
        assert merged == single

    @pytest.mark.parametrize(
        "engine", [Engine.PARALLEL_PATTERN, Engine.WIDE]
    )
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_iscas_scale_fast_engines(self, engine, workers):
        circuit = iscas85_like("r432")
        faults = sample_fault_list(collapse_faults(circuit), 60, seed=2)
        patterns = random_patterns(circuit, 16, seed=2)
        single = create_simulator(circuit, engine, faults=faults).run(patterns)
        merged = sharded_coverage(
            circuit,
            patterns,
            engine=engine,
            faults=faults,
            workers=workers,
            shards=5,
        )
        assert merged == single

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_registered_alu74181_sequential(self, workers):
        design = insert_scan(registered_alu74181())
        core = generate_tests(
            design.circuit.combinational_core(), random_phase=2, seed=9
        )
        schedule = schedule_scan_tests(design, core.patterns[:3])
        faults = sample_fault_list(collapse_faults(design.circuit), 10, seed=9)
        single = SequentialFaultSimulator(
            design.circuit, faults=faults
        ).run(schedule)
        merged = sharded_coverage(
            design.circuit,
            schedule,
            engine="sequential",
            faults=faults,
            workers=workers,
            shards=3,
        )
        assert merged == single

    @pytest.mark.parametrize("fault_count", (0, 1))
    @pytest.mark.parametrize(
        "make",
        [alu74181, lambda: iscas85_like("r432")],
        ids=["alu74181", "r432"],
    )
    def test_degenerate_fault_lists_wide(self, make, fault_count):
        circuit = make()
        faults = collapse_faults(circuit)[:fault_count]
        patterns = random_patterns(circuit, 8, seed=3)
        single = create_simulator(
            circuit, Engine.WIDE, faults=faults
        ).run(patterns)
        merged = sharded_coverage(
            circuit,
            patterns,
            engine=Engine.WIDE,
            faults=faults,
            workers=4,
            shards=4,
        )
        assert merged == single

    @pytest.mark.parametrize("fault_count", (0, 1))
    def test_degenerate_fault_lists_sequential(self, fault_count):
        design = insert_scan(registered_alu74181())
        schedule = schedule_scan_tests(design, [{"CLK": 0}])
        faults = collapse_faults(design.circuit)[:fault_count]
        single = SequentialFaultSimulator(
            design.circuit, faults=faults
        ).run(schedule)
        merged = sharded_coverage(
            design.circuit,
            schedule,
            engine="sequential",
            faults=faults,
            workers=2,
            shards=4,
        )
        assert merged == single


class TestSequentialDeterminism:
    """Sharded == single-process for the scan-schedule verifier."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_scan_schedule_verification(self, workers):
        design = insert_scan(sequence_detector())
        schedule = schedule_scan_tests(
            design, [{"X": 1}, {"X": 0, "Q0": 1}, {"Q1": 1}]
        )
        faults = collapse_faults(design.circuit)
        single = SequentialFaultSimulator(
            design.circuit, faults=faults
        ).run(schedule)
        merged = sharded_coverage(
            design.circuit,
            schedule,
            engine="sequential",
            faults=faults,
            workers=workers,
            shards=3,
        )
        assert merged == single

    @pytest.mark.parametrize("fault_count", (0, 1))
    def test_degenerate_fault_lists(self, fault_count):
        design = insert_scan(binary_counter(3))
        schedule = schedule_scan_tests(design, [{"EN": 1}])
        faults = collapse_faults(design.circuit)[:fault_count]
        single = SequentialFaultSimulator(
            design.circuit, faults=faults
        ).run(schedule)
        merged = sharded_coverage(
            design.circuit,
            schedule,
            engine="sequential",
            faults=faults,
            workers=2,
            shards=4,
        )
        assert merged == single


class TestFlowDeterminism:
    """generate_tests and full_scan_flow are workers-invariant."""

    def test_generate_tests_workers_invariant(self):
        circuit = c17()
        reference = generate_tests(circuit, random_phase=8, seed=3)
        for workers in (2, 4):
            result = generate_tests(
                circuit, random_phase=8, seed=3, workers=workers
            )
            assert result.patterns == reference.patterns
            assert result.report == reference.report
            # Headline stats agree; only the sharded run carries workers.
            assert result.manifest.stats == reference.manifest.stats
            assert result.manifest.workers is not None
            assert result.manifest.workers["requested"] == workers
            result.manifest.validate()
        assert reference.manifest.workers is None

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_full_scan_flow_workers_invariant(self, workers):
        reference = full_scan_flow(binary_counter(4), random_phase=16, seed=1)
        result = full_scan_flow(
            binary_counter(4), random_phase=16, seed=1, workers=workers
        )
        assert result.scan_coverage == reference.scan_coverage
        assert result.core_tests.patterns == reference.core_tests.patterns
        assert result.schedule == reference.schedule
        assert result.manifest.stats == reference.manifest.stats
        result.manifest.validate()
        if workers > 1:
            assert result.manifest.workers["requested"] == workers
            assert result.manifest.workers["shards"]

    def test_worker_telemetry_aggregates_into_parent_sink(self):
        circuit = c17()
        faults = collapse_faults(circuit)
        patterns = random_patterns(circuit, 8, seed=7)
        sink = telemetry.enable()
        try:
            simulator = ShardedFaultSimulator(
                circuit,
                Engine.PARALLEL_PATTERN,
                faults=faults,
                workers=2,
                shards=2,
            )
            simulator.run(patterns)
        finally:
            telemetry.disable()
        # Each shard simulates the full pattern set; the parent sink
        # aggregates the per-worker counters.
        assert sink.counters["faultsim.patterns_simulated"] == 2 * len(patterns)
        assert sink.counters["faultsim.faults_graded"] == len(faults)
        section = simulator.workers_section()
        assert section["requested"] == 2
        assert [row["shard"] for row in section["shards"]] == [0, 1]
        assert all(row["counters"] for row in section["shards"])


class TestFallbackObservability:
    """Satellite: degrading to in-process execution is never silent."""

    def setup_method(self):
        self.circuit = c17()
        self.patterns = random_patterns(self.circuit, 8, seed=3)
        self.baseline = sharded_coverage(self.circuit, self.patterns, workers=1)

    def test_fork_unavailable_fallback_is_counted_with_reason(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            ForkBackend, "available", classmethod(lambda cls: False)
        )
        simulator = ShardedFaultSimulator(
            self.circuit, workers=2, backend="fork"
        )
        with telemetry.capture() as session:
            report = simulator.run(self.patterns)
        assert report == self.baseline  # degraded, not different
        assert session.counters["faultsim.sharded.fallback"] == 1
        section = simulator.workers_section()
        assert section["mode"] == "inprocess"
        assert section["reason"] == "fork_unavailable"
        assert section["backend"] is None
        assert section["fallbacks"] == [
            {"reason": "fork_unavailable", "shard": None}
        ]

    def test_single_shard_fallback_is_counted_with_reason(self):
        faults = collapse_faults(self.circuit)[:1]
        simulator = ShardedFaultSimulator(
            self.circuit, faults=faults, workers=2
        )
        with telemetry.capture() as session:
            simulator.run(self.patterns)
        assert session.counters["faultsim.sharded.fallback"] == 1
        assert simulator.workers_section()["reason"] == "single_shard"
        assert simulator.workers_section()["fallbacks"] == [
            {"reason": "single_shard", "shard": None}
        ]

    def test_no_fallback_rows_on_healthy_pool_or_workers_1(self):
        quiet = ShardedFaultSimulator(self.circuit, workers=1)
        with telemetry.capture() as session:
            quiet.run(self.patterns)
        assert "faultsim.sharded.fallback" not in session.counters
        assert quiet.workers_section()["fallbacks"] == []

    def test_fallbacks_reach_flow_manifests(self, monkeypatch):
        monkeypatch.setattr(
            ForkBackend, "available", classmethod(lambda cls: False)
        )
        result = generate_tests(
            self.circuit, random_phase=4, workers=2, backend="fork"
        )
        section = result.manifest.to_dict()["workers"]
        assert section["mode"] == "inprocess"
        # Satellite: the degradation reason is a first-class validated
        # manifest field now, not just a telemetry counter.
        assert section["reason"] == "fork_unavailable"
        assert {row["reason"] for row in section["fallbacks"]} == {
            "fork_unavailable"
        }


class TestBackendMatrix:
    """Tentpole acceptance: every backend is bit-identical to workers=1.

    engines x {inline, fork, spawn, thread-lane}: the execution
    backend is a pure transport — the merged CoverageReport must equal
    the single-process run exactly, including the 0- and 1-fault
    corners.  ``spawn`` additionally proves the pickled-state path
    (nothing inherited) produces the same bits as fork inheritance.
    """

    BACKENDS = ("inline", "fork", "spawn", "thread-lane")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", list(Engine))
    def test_combinational_engines_bit_identical(self, engine, backend):
        circuit = c17()
        faults = collapse_faults(circuit)
        patterns = random_patterns(circuit, 10, seed=11)
        single = create_simulator(circuit, engine, faults=faults).run(patterns)
        merged = sharded_coverage(
            circuit,
            patterns,
            engine=engine,
            faults=faults,
            workers=2,
            shards=3,
            backend=backend,
        )
        assert merged == single

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sequential_verifier_bit_identical(self, backend):
        design = insert_scan(sequence_detector())
        schedule = schedule_scan_tests(design, [{"X": 1}, {"Q1": 1}])
        faults = collapse_faults(design.circuit)
        single = SequentialFaultSimulator(
            design.circuit, faults=faults
        ).run(schedule)
        merged = sharded_coverage(
            design.circuit,
            schedule,
            engine="sequential",
            faults=faults,
            workers=2,
            shards=3,
            backend=backend,
        )
        assert merged == single

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault_count", (0, 1))
    def test_degenerate_fault_lists(self, backend, fault_count):
        circuit = c17()
        faults = collapse_faults(circuit)[:fault_count]
        patterns = random_patterns(circuit, 6, seed=12)
        single = create_simulator(
            circuit, Engine.WIDE, faults=faults
        ).run(patterns)
        merged = sharded_coverage(
            circuit,
            patterns,
            engine=Engine.WIDE,
            faults=faults,
            workers=2,
            shards=4,
            backend=backend,
        )
        assert merged == single

    def test_backend_recorded_in_workers_section(self):
        circuit = c17()
        patterns = random_patterns(circuit, 6, seed=13)
        simulator = ShardedFaultSimulator(
            circuit, workers=2, backend="thread-lane"
        )
        simulator.run(patterns)
        section = simulator.workers_section()
        assert section["mode"] == "thread-lane"
        assert section["backend"] == "thread-lane"
        assert section["reason"] is None

    def test_inline_backend_is_explicit_sequential_execution(self):
        # Inline is a real backend choice, not a fallback: no fallback
        # counter, effective workers pinned to 1.
        circuit = c17()
        patterns = random_patterns(circuit, 6, seed=14)
        simulator = ShardedFaultSimulator(circuit, workers=4, backend="inline")
        with telemetry.capture() as session:
            report = simulator.run(patterns)
        assert report == sharded_coverage(circuit, patterns, workers=1)
        assert "faultsim.sharded.fallback" not in session.counters
        section = simulator.workers_section()
        assert section["mode"] == "inline"
        assert section["effective"] == 1
