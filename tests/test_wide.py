"""Wide (lane-batched) engine: unit + cross-engine differential tests.

The wide engine's contract is bit-identity with the compiled
parallel-pattern engine — same detected-fault sets *and* same
first-detection indices — on any (circuit, fault list, pattern set)
input, for every lane backend, fault-batch size, and pattern-batch
size.  These tests pin that contract on the circuits zoo up to
ISCAS-85-scale random logic, plus the engine's own mechanics: backend
selection (including the ``REPRO_WIDE_BACKEND`` override), union-cone
compaction and its pattern-independent cache, and the activation
pre-filter corners (0 faults, 1 fault, absent-net faults).
"""

import random

import pytest

from repro.circuits import (
    alu74181,
    c17,
    iscas85_like,
    parity_tree,
    random_combinational,
    random_sequential,
)
from repro.faults import Fault, all_faults, collapse_faults
from repro.faultsim import (
    Engine,
    FaultSimulator,
    WideFaultSimulator,
    create_simulator,
    engine_coverage,
    sample_fault_list,
)
from repro.netlist.circuit import NetlistError
from repro.sim.compiled import OP_BUF, compile_circuit
from repro.sim.packed import PackedPatternSet
from repro.sim.wide import (
    BACKEND_ENV,
    LANE_BACKENDS,
    WideInjector,
    default_backend,
    numpy_available,
    resolve_backend,
)

BACKENDS = [b for b in LANE_BACKENDS if b != "numpy" or numpy_available()]


def _random_patterns(circuit, count, seed):
    rng = random.Random(seed)
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs}
        for _ in range(count)
    ]


class TestBackendSelection:
    def test_resolve_known_backends(self):
        assert resolve_backend("bigint") == "bigint"
        assert resolve_backend("auto") in LANE_BACKENDS

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_backend("simd")

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_auto_prefers_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert default_backend() == "numpy"

    def test_env_forces_bigint(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "bigint")
        assert default_backend() == "bigint"
        simulator = WideFaultSimulator(c17())
        assert simulator.backend == "bigint"

    def test_env_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "cuda")
        with pytest.raises(ValueError):
            default_backend()

    def test_rejects_sequential_circuit(self):
        with pytest.raises(NetlistError):
            WideFaultSimulator(random_sequential(4, 20, 2, seed=1))

    def test_rejects_bad_fault_batch(self):
        with pytest.raises(ValueError):
            WideFaultSimulator(c17(), fault_batch=0)

    def test_engine_registry(self):
        simulator = create_simulator(c17(), Engine.WIDE)
        assert isinstance(simulator, WideFaultSimulator)
        assert isinstance(
            create_simulator(c17(), "wide"), WideFaultSimulator
        )


class TestDifferential:
    """Bit-identity with the compiled parallel-pattern engine."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "factory",
        [c17, lambda: parity_tree(4), alu74181,
         lambda: random_combinational(10, 120, seed=5)],
        ids=["c17", "parity4", "alu74181", "rand120"],
    )
    def test_first_detection_identical(self, factory, backend):
        circuit = factory()
        patterns = _random_patterns(circuit, 48, seed=3)
        reference = FaultSimulator(circuit).run(patterns, drop_detected=False)
        wide = WideFaultSimulator(circuit, backend=backend)
        report = wide.run(patterns, drop_detected=False)
        assert report.first_detection == reference.first_detection

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault_batch", [1, 7, 64])
    def test_fault_batch_invariance(self, backend, fault_batch):
        circuit = alu74181()
        patterns = _random_patterns(circuit, 32, seed=11)
        reference = FaultSimulator(circuit).run(patterns, drop_detected=False)
        wide = WideFaultSimulator(
            circuit, backend=backend, fault_batch=fault_batch
        )
        report = wide.run(patterns, drop_detected=False)
        assert report.first_detection == reference.first_detection

    @pytest.mark.parametrize("batch_size", [1, 16, 33, 64, 1024])
    def test_pattern_batch_invariance(self, batch_size):
        """The report is identical for any pattern batch size."""
        circuit = random_combinational(8, 80, seed=2)
        patterns = _random_patterns(circuit, 70, seed=2)
        reference = FaultSimulator(circuit).run(patterns, drop_detected=False)
        for backend in BACKENDS:
            wide = WideFaultSimulator(circuit, backend=backend)
            report = wide.run(
                patterns, batch_size=batch_size, drop_detected=False
            )
            assert report.first_detection == reference.first_detection

    @pytest.mark.parametrize("drop_detected", [True, False])
    def test_fault_dropping_semantics(self, drop_detected):
        circuit = alu74181()
        patterns = _random_patterns(circuit, 64, seed=7)
        reference = FaultSimulator(circuit).run(
            patterns, batch_size=16, drop_detected=drop_detected
        )
        for backend in BACKENDS:
            wide = WideFaultSimulator(circuit, backend=backend)
            report = wide.run(
                patterns, batch_size=16, drop_detected=drop_detected
            )
            assert report.first_detection == reference.first_detection

    def test_uncollapsed_fault_list(self):
        circuit = c17()
        faults = all_faults(circuit)
        patterns = _random_patterns(circuit, 24, seed=9)
        reference = FaultSimulator(circuit, faults=faults).run(patterns)
        for backend in BACKENDS:
            report = WideFaultSimulator(
                circuit, faults=faults, backend=backend
            ).run(patterns)
            assert report.first_detection == reference.first_detection

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_iscas_scale_sampled(self, backend):
        """ISCAS-85-scale circuit, sampled faults, both backends."""
        circuit = iscas85_like("r432")
        faults = sample_fault_list(collapse_faults(circuit), 120, seed=4)
        patterns = _random_patterns(circuit, 96, seed=4)
        reference = FaultSimulator(circuit, faults=faults).run(
            patterns, drop_detected=False
        )
        report = WideFaultSimulator(
            circuit, faults=faults, backend=backend
        ).run(patterns, drop_detected=False)
        assert report.first_detection == reference.first_detection

    def test_detects_and_detected_faults(self):
        circuit = alu74181()
        patterns = _random_patterns(circuit, 6, seed=13)
        reference = FaultSimulator(circuit)
        for backend in BACKENDS:
            wide = WideFaultSimulator(circuit, backend=backend)
            for pattern in patterns:
                assert set(wide.detected_faults(pattern)) == set(
                    reference.detected_faults(pattern)
                )
                for fault in wide.faults[::17]:
                    assert wide.detects(pattern, fault) == reference.detects(
                        pattern, fault
                    )

    def test_wide_coverage_wrapper(self):
        circuit = c17()
        patterns = _random_patterns(circuit, 16, seed=1)
        report = engine_coverage(circuit, patterns, engine=Engine.WIDE)
        reference = FaultSimulator(circuit).run(patterns)
        assert report.first_detection == reference.first_detection


class TestCorners:
    def test_zero_faults(self):
        circuit = c17()
        patterns = _random_patterns(circuit, 8, seed=0)
        for backend in BACKENDS:
            report = WideFaultSimulator(
                circuit, faults=[], backend=backend
            ).run(patterns)
            assert report.first_detection == {}
            assert report.faults == []

    def test_single_fault(self):
        circuit = c17()
        fault = collapse_faults(circuit)[0]
        patterns = _random_patterns(circuit, 8, seed=0)
        reference = FaultSimulator(circuit, faults=[fault]).run(patterns)
        for backend in BACKENDS:
            report = WideFaultSimulator(
                circuit, faults=[fault], backend=backend
            ).run(patterns)
            assert report.first_detection == reference.first_detection

    def test_empty_pattern_list(self):
        for backend in BACKENDS:
            report = WideFaultSimulator(c17(), backend=backend).run([])
            assert report.first_detection == {}

    def test_absent_net_fault_never_detected(self):
        """Faults on nets the circuit does not have score undetected."""
        circuit = c17()
        ghost = Fault("no_such_net", 1)
        faults = [ghost] + list(collapse_faults(circuit))
        patterns = _random_patterns(circuit, 16, seed=6)
        reference = FaultSimulator(circuit, faults=faults).run(patterns)
        for backend in BACKENDS:
            report = WideFaultSimulator(
                circuit, faults=faults, backend=backend
            ).run(patterns)
            assert ghost not in report.first_detection
            assert report.first_detection == reference.first_detection


class TestFlowPlumbing:
    """The wide engine drops into the ATPG and scan flows unchanged."""

    def test_generate_tests_wide_engine(self):
        from repro.atpg import generate_tests

        circuit = alu74181()
        reference = generate_tests(
            circuit, random_phase=8, seed=3, engine="parallel_pattern"
        )
        result = generate_tests(
            circuit, random_phase=8, seed=3, engine="wide"
        )
        assert result.patterns == reference.patterns
        assert (
            result.report.first_detection == reference.report.first_detection
        )
        assert result.coverage == reference.coverage

    def test_full_scan_flow_wide_engine(self):
        from repro.circuits import random_sequential
        from repro.scan import full_scan_flow

        circuit = random_sequential(4, 24, 2, seed=5)
        kwargs = dict(random_phase=4, seed=1, fault_limit=6)
        reference = full_scan_flow(
            circuit, engine="parallel_pattern", **kwargs
        )
        result = full_scan_flow(circuit, engine="wide", **kwargs)
        assert result.core_tests.patterns == reference.core_tests.patterns
        assert result.schedule == reference.schedule
        assert result.total_clocks == reference.total_clocks
        assert (
            result.scan_coverage.first_detection
            == reference.scan_coverage.first_detection
        )


class TestUnionCone:
    def _injector(self, circuit, patterns, backend="auto"):
        simulator = WideFaultSimulator(circuit, backend=backend)
        packed = PackedPatternSet.from_patterns(circuit.inputs, patterns)
        return simulator, WideInjector(
            simulator.expanded, packed, backend=backend
        )

    def test_compaction_drops_pass_through_bufs(self):
        """Surviving BUF ops drive only fault sites or primary outputs."""
        circuit = alu74181()
        simulator, injector = self._injector(
            circuit, _random_patterns(circuit, 8, seed=0)
        )
        sites = sorted(
            {
                s
                for s in simulator.structure.sites(simulator.faults)
                if s is not None
            }
        )[:50]
        ops, po_indices = injector._union_cone(sites)
        keep = set(sites) | set(po_indices)
        for op, out, _ in ops:
            if op == OP_BUF:
                assert out in keep

    def test_cache_key_is_pattern_independent(self):
        """Grading the same fault chunks under a different pattern set
        (different widths, different activations) reuses cached unions."""
        circuit = alu74181()
        simulator = WideFaultSimulator(circuit)
        program = compile_circuit(simulator.expanded)
        program.union_cones.clear()
        simulator.run(_random_patterns(circuit, 3, seed=1))
        built = len(program.union_cones)
        assert built > 0
        simulator.run(
            _random_patterns(circuit, 200, seed=2), drop_detected=False
        )
        assert len(program.union_cones) == built

    def test_grade_matches_per_fault_injection(self):
        """Batched grading == one-fault-at-a-time grading, per word."""
        circuit = random_combinational(8, 60, seed=8)
        patterns = _random_patterns(circuit, 40, seed=8)
        for backend in BACKENDS:
            simulator, injector = self._injector(
                circuit, patterns, backend=backend
            )
            mask = injector.mask
            targets = [
                (site, mask if fault.value else 0)
                for fault, site in zip(
                    simulator.faults,
                    simulator.structure.sites(simulator.faults),
                )
                if site is not None
            ]
            batched = injector.grade(targets)
            singles = [injector.grade([target])[0] for target in targets]
            assert batched == singles
