"""Differential tests for the unified fault-model stack.

Every non-stuck-at model reduces to circuit rewrite + stuck-at grading
(``repro.faults.plan_fault_model``).  These tests hold each reduction
to an independent per-model oracle (``apply_bridging_fault`` output
diffing, ``TransitionFaultSimulator``, ``CmosStuckOpenSimulator``),
hold every engine to identical detected sets on the composite, hold
sharded execution to reports bit-identical to ``workers=1``, and pin
the capability matrix (sequential engine and scan flow restrictions).
"""

import itertools
import random

import pytest

from repro import telemetry
from repro.circuits import c17, full_adder, shift_register
from repro.atpg import generate_tests
from repro.atpg.delay import TransitionFaultSimulator, all_transition_faults
from repro.faults import (
    BridgeKind,
    BridgingFault,
    Fault,
    FaultModel,
    UnsupportedFaultModelError,
    all_cmos_stuck_open_faults,
    apply_bridging_fault,
    plan_fault_model,
)
from repro.faultsim import (
    CmosStuckOpenSimulator,
    Engine,
    ShardedFaultSimulator,
    create_simulator,
    engine_coverage,
)
from repro.scan import full_scan_flow
from repro.sim import LogicSimulator

ALL_MODELS = [model.value for model in FaultModel]
REDUCED_MODELS = ["bridging", "transition", "cmos_stuck_open"]
ENGINES = [engine.value for engine in Engine]


def exhaustive_patterns(circuit):
    return [
        dict(zip(circuit.inputs, bits))
        for bits in itertools.product((0, 1), repeat=len(circuit.inputs))
    ]


def random_patterns_for(circuit, count, seed=0):
    rng = random.Random(seed)
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs}
        for _ in range(count)
    ]


def composite_pair(source, v1, v2):
    """One two-frame composite pattern from a (V1, V2) source pair."""
    pattern = {f"{net}@1": v1[net] for net in source.inputs}
    pattern.update({f"{net}@2": v2[net] for net in source.inputs})
    return pattern


class TestPlanning:
    def test_stuck_at_is_a_passthrough(self):
        circuit = c17()
        plan = plan_fault_model(circuit)
        assert plan.circuit is circuit
        assert not plan.is_reduction
        assert plan.section()["reduction"] is None
        assert plan.section()["faults"] == len(plan.faults)

    @pytest.mark.parametrize("model", REDUCED_MODELS)
    def test_reduction_section_shape(self, model):
        plan = plan_fault_model(c17(), model)
        section = plan.section()
        assert section["model"] == model
        assert section["faults"] == len(plan.faults)
        reduction = section["reduction"]
        assert reduction["composite_gates"] == len(plan.circuit.gates)
        assert reduction["source_gates"] == 6
        assert reduction["two_pattern"] == plan.two_pattern
        assert plan.two_pattern == (model in ("transition", "cmos_stuck_open"))

    @pytest.mark.parametrize("model", REDUCED_MODELS)
    def test_composite_is_identity_when_unfaulted(self, model):
        """en=0 everywhere: the composite computes the source function."""
        source = c17()
        plan = plan_fault_model(source, model)
        good = LogicSimulator(source)
        composite = LogicSimulator(plan.circuit)
        for pattern in exhaustive_patterns(source):
            if plan.two_pattern:
                frame = composite_pair(source, pattern, pattern)
                want = good.outputs(pattern)
                got = composite.outputs(frame)
                # frame-2 outputs mirror the source outputs pairwise
                assert list(got.values()) == list(want.values())
            else:
                assert list(composite.outputs(pattern).values()) == list(
                    good.outputs(pattern).values()
                )

    @pytest.mark.parametrize("model", REDUCED_MODELS)
    def test_sequential_circuit_rejected(self, model):
        with pytest.raises(UnsupportedFaultModelError):
            plan_fault_model(shift_register(4), model)

    @pytest.mark.parametrize("model", REDUCED_MODELS)
    def test_mistyped_fault_list_rejected(self, model):
        with pytest.raises(UnsupportedFaultModelError):
            plan_fault_model(c17(), model, faults=[Fault("G10", 1)])

    def test_unknown_model_rejected(self):
        with pytest.raises(UnsupportedFaultModelError):
            plan_fault_model(c17(), "delay")

    def test_graded_faults_map_back_to_model_names(self):
        plan = plan_fault_model(c17(), "bridging", seed=1)
        assert len(plan.faults) == len(plan.model_faults) > 0
        for graded, bridge in zip(plan.faults, plan.model_faults):
            assert plan.model_fault_name(graded) == bridge.name


class TestBridgingOracle:
    def test_gadget_matches_apply_bridging_fault_exhaustively(self):
        """Grading en/SA1 on the composite == diffing the rewired circuit."""
        source = c17()
        plan = plan_fault_model(source, "bridging", seed=0)
        sim = create_simulator(plan.circuit, "serial", faults=plan.faults)
        good = LogicSimulator(source)
        patterns = exhaustive_patterns(source)
        checked = 0
        for graded, bridge in zip(plan.faults, plan.model_faults):
            oracle = LogicSimulator(apply_bridging_fault(source, bridge))
            for pattern in patterns:
                want = list(oracle.outputs(pattern).values()) != list(
                    good.outputs(pattern).values()
                )
                assert sim.detects(pattern, graded) == want
                checked += 1
        assert checked == len(plan.faults) * 32


class TestTransitionOracle:
    def test_gadget_matches_transition_simulator_exhaustively(self):
        source = full_adder()
        plan = plan_fault_model(source, "transition")
        assert len(plan.faults) == len(all_transition_faults(source))
        sim = create_simulator(plan.circuit, "serial", faults=plan.faults)
        oracle = TransitionFaultSimulator(source, faults=plan.model_faults)
        vectors = exhaustive_patterns(source)
        for v1, v2 in itertools.product(vectors, repeat=2):
            frame = composite_pair(source, v1, v2)
            for graded, tfault in zip(plan.faults, plan.model_faults):
                assert sim.detects(frame, graded) == oracle.detects(
                    v1, v2, tfault
                )


class TestCmosStuckOpenOracle:
    def test_gadget_matches_two_pattern_simulator(self):
        source = c17()  # all-NAND: every gate has a CMOS realization
        plan = plan_fault_model(source, "cmos_stuck_open")
        assert len(plan.faults) == len(all_cmos_stuck_open_faults(source))
        sim = create_simulator(plan.circuit, "serial", faults=plan.faults)
        oracle = CmosStuckOpenSimulator(source, faults=plan.model_faults)
        rng = random.Random(7)
        vectors = exhaustive_patterns(source)
        for _ in range(200):
            v1, v2 = rng.choice(vectors), rng.choice(vectors)
            frame = composite_pair(source, v1, v2)
            for graded, cfault in zip(plan.faults, plan.model_faults):
                assert sim.detects(frame, graded) == oracle.detects(
                    v1, v2, cfault
                )

    def test_retained_charge_needs_a_driven_first_frame(self):
        """A pair that floats the node under V1 too is undetected."""
        source = c17()
        oracle = CmosStuckOpenSimulator(source)
        fault = oracle.faults[0]  # collapsed N-network fault on a NAND
        gate = source.gates[0]
        assert fault.gate == gate.name and fault.network == "N"
        floats = {net: 1 for net in source.inputs}  # all-ones floats N-open
        assert not oracle.detects(floats, floats, fault)


class TestEngineParity:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_all_engines_agree_per_model(self, model):
        circuit = c17()
        plan = plan_fault_model(circuit, model)
        patterns = random_patterns_for(plan.circuit, 24, seed=3)
        baseline = engine_coverage(
            circuit, patterns, engine="serial", fault_model=model
        )
        assert baseline.faults == plan.faults or model == "stuck_at"
        for engine in ENGINES:
            report = engine_coverage(
                circuit, patterns, engine=engine, fault_model=model
            )
            assert report.first_detection == baseline.first_detection
            assert report.faults == baseline.faults


class TestShardingParity:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_workers_bit_identical(self, model):
        circuit = c17()
        plan = plan_fault_model(circuit, model)
        patterns = random_patterns_for(plan.circuit, 16, seed=5)
        baseline = ShardedFaultSimulator(
            circuit, "parallel_pattern", workers=1, fault_model=model
        ).run(patterns)
        for workers in (2, 4):
            report = ShardedFaultSimulator(
                circuit, "parallel_pattern", workers=workers, fault_model=model
            ).run(patterns)
            assert report.first_detection == baseline.first_detection
            assert report.faults == baseline.faults
            assert report.coverage == baseline.coverage


class TestCorners:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_empty_fault_list(self, model):
        circuit = c17()
        sim = create_simulator(circuit, "serial", faults=[], fault_model=model)
        report = sim.run(random_patterns_for(sim.circuit, 4, seed=1))
        assert report.faults == []
        assert report.coverage == 1.0

    def test_single_fault_universes(self):
        circuit = c17()
        singles = {
            "bridging": [BridgingFault("G10", "G19", BridgeKind.WIRED_AND)],
            "transition": all_transition_faults(circuit)[:1],
            "cmos_stuck_open": all_cmos_stuck_open_faults(circuit)[:1],
        }
        for model, faults in singles.items():
            sim = create_simulator(
                circuit, "serial", faults=faults, fault_model=model
            )
            report = sim.run(random_patterns_for(sim.circuit, 32, seed=2))
            assert len(report.faults) == 1
            assert report.coverage in (0.0, 1.0)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_empty_pattern_set(self, model):
        circuit = c17()
        sim = create_simulator(circuit, "serial", fault_model=model)
        report = sim.run([])
        assert report.first_detection == {}
        assert len(report.faults) > 0


class TestGenerateTestsPerModel:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_full_flow_with_validated_manifest(self, model):
        result = generate_tests(c17(), random_phase=8, fault_model=model)
        assert result.coverage > 0.9
        manifest = result.manifest.validate()
        assert manifest.fault_model is not None
        assert manifest.fault_model["model"] == model
        assert manifest.fault_model["faults"] == len(result.report.faults)
        assert manifest.circuit == "c17"  # original name, not the composite
        plan = result.fault_model_plan
        assert plan is not None and plan.model.value == model
        for pattern in result.patterns:
            assert set(pattern) == set(plan.circuit.inputs)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_workers_bit_identical_patterns(self, model):
        baseline = generate_tests(c17(), random_phase=8, fault_model=model)
        sharded = generate_tests(
            c17(), random_phase=8, fault_model=model, workers=2
        )
        assert sharded.patterns == baseline.patterns
        assert (
            sharded.report.first_detection == baseline.report.first_detection
        )


class TestCapabilityMatrix:
    def test_sequential_engine_rejects_reduced_models(self):
        # The scan verifier is not a shardable engine under any model:
        # full_scan_flow runs it in-process, and only for stuck-at.
        for model in ["stuck_at"] + REDUCED_MODELS:
            with pytest.raises(ValueError, match="sequential"):
                ShardedFaultSimulator(
                    shift_register(4), "sequential", fault_model=model
                )

    @pytest.mark.parametrize("model", ["transition", "cmos_stuck_open"])
    def test_scan_flow_rejects_two_frame_models(self, model):
        with pytest.raises(UnsupportedFaultModelError):
            full_scan_flow(shift_register(4), fault_model=model)

    def test_scan_flow_rejects_verified_bridging(self):
        with pytest.raises(UnsupportedFaultModelError):
            full_scan_flow(shift_register(4), fault_model="bridging")

    def test_scan_flow_runs_unverified_bridging(self):
        flow = full_scan_flow(
            shift_register(4),
            fault_model="bridging",
            verify=False,
            random_phase=8,
        )
        assert not flow.verified
        assert flow.manifest.fault_model["model"] == "bridging"
        flow.manifest.validate()


class TestBridgeCycleVetting:
    # Individually feedback-free bridges on c17 that *jointly* merge
    # G10/G11/G16 into one class containing both an input and the
    # output of gate G16 — a combinational cycle in the quotient.
    JOINT = [
        BridgingFault("G10", "G11", BridgeKind.WIRED_AND),
        BridgingFault("G10", "G16", BridgeKind.WIRED_OR),
    ]

    def test_each_bridge_alone_is_fine(self):
        for bridge in self.JOINT:
            plan = plan_fault_model(c17(), "bridging", faults=[bridge])
            assert len(plan.faults) == 1

    def test_explicit_jointly_cyclic_list_raises(self):
        with pytest.raises(UnsupportedFaultModelError):
            plan_fault_model(c17(), "bridging", faults=self.JOINT)

    def test_explicit_feedback_bridge_raises(self):
        feedback = BridgingFault("G3", "G10", BridgeKind.WIRED_AND)
        with pytest.raises(UnsupportedFaultModelError):
            plan_fault_model(c17(), "bridging", faults=[feedback])

    def test_sampled_universe_drops_and_counts(self):
        plan = plan_fault_model(c17(), "bridging", seed=0)
        assert plan.reduction["bridges"] == len(plan.faults)
        assert plan.reduction["cycle_dropped"] >= 0
        # the composite must actually be buildable and acyclic
        plan.circuit.topological_order()
