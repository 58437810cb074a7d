"""Property-based tests for the compiled simulation core.

Three invariants, checked over randomly generated circuits and patterns:

1. **Packed == per-pattern:** bit ``i`` of every net word produced by
   the packed (compiled) simulator equals the per-pattern value from
   the five-valued reference simulator in ``sim/logic.py``.
2. **Cone == full netlist:** injecting a stuck-at fault through the
   cached cone sub-program gives bitwise the same result as forcing the
   net in a full-netlist pass of the independent oracle
   (``tests/oracle.py``).
3. **Detection == oracle:** the parallel-pattern engine reports the
   oracle's first detection for every collapsed fault.

Runs under ``hypothesis`` when it is installed; otherwise the same
properties are exercised over a seeded-random corpus, so the suite
carries its own fallback and needs no extra dependencies.
"""

import random

import pytest

from repro.circuits import random_combinational
from repro.faults import collapse_faults
from repro.faultsim import FaultSimulator, expand_branches, fault_site_net
from repro.sim import (
    FaultInjector,
    LogicSimulator,
    PackedPatternSet,
    PackedSimulator,
)

from oracle import CombinationalOracle, first_detections

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - seeded fallback below
    HAVE_HYPOTHESIS = False


def _random_patterns(circuit, count, rng):
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs}
        for _ in range(count)
    ]


def check_packed_matches_per_pattern(circuit_seed, pattern_seed):
    """Invariant 1: packed words bitwise-match sim/logic.py per pattern."""
    rng = random.Random(pattern_seed)
    circuit = random_combinational(6, 25, seed=circuit_seed)
    patterns = _random_patterns(circuit, 17, rng)
    packed = PackedPatternSet.from_patterns(circuit.inputs, patterns)
    words = PackedSimulator(circuit).run(packed)
    reference = LogicSimulator(circuit)
    for index, pattern in enumerate(patterns):
        expected = reference.run(pattern)
        for net, value in expected.items():
            assert (words[net] >> index) & 1 == value, (
                f"net {net} pattern {index}: packed bit "
                f"{(words[net] >> index) & 1} != reference {value}"
            )


def check_cone_matches_full_netlist(circuit_seed, pattern_seed):
    """Invariant 2: cone-cached injection == full-netlist forced run."""
    rng = random.Random(pattern_seed)
    circuit = random_combinational(6, 30, seed=circuit_seed)
    expanded, branch_map = expand_branches(circuit)
    patterns = _random_patterns(circuit, 13, rng)
    packed = PackedPatternSet.from_patterns(circuit.inputs, patterns)
    injector = FaultInjector(expanded, packed)
    reference = CombinationalOracle(expanded, patterns)
    program = injector.program
    for fault in collapse_faults(circuit):
        site = fault_site_net(fault, branch_map)
        forced = packed.mask if fault.value else 0
        full = reference.evaluate(force={site: forced})
        cone_words = injector.faulty_words(program.index[site], forced)
        cone = program.cone(program.index[site])
        for net, index in program.index.items():
            assert cone_words[index] == full[net], (
                f"fault {fault.name}: net {net} cone-cached word differs "
                f"from full-netlist word (in cone: "
                f"{index == cone.site or index in {o for _, o, _ in cone.ops}})"
            )


def check_detection_matches_reference(circuit_seed, pattern_seed):
    """Compiled PPSF first detections match the oracle's."""
    rng = random.Random(pattern_seed)
    circuit = random_combinational(7, 35, seed=circuit_seed)
    patterns = _random_patterns(circuit, 19, rng)
    faults = collapse_faults(circuit)
    report = FaultSimulator(circuit, faults=faults).run(patterns)
    oracle = CombinationalOracle(circuit, patterns)
    expected = first_detections({f: oracle.detecting_vectors(f) for f in faults})
    assert report.first_detection == expected


SEED_CORPUS = [(seed, seed * 31 + 7) for seed in range(8)]


@pytest.mark.parametrize("circuit_seed,pattern_seed", SEED_CORPUS)
def test_packed_matches_per_pattern_seeded(circuit_seed, pattern_seed):
    check_packed_matches_per_pattern(circuit_seed, pattern_seed)


@pytest.mark.parametrize("circuit_seed,pattern_seed", SEED_CORPUS)
def test_cone_matches_full_netlist_seeded(circuit_seed, pattern_seed):
    check_cone_matches_full_netlist(circuit_seed, pattern_seed)


@pytest.mark.parametrize("circuit_seed,pattern_seed", SEED_CORPUS[:4])
def test_detection_matches_reference_seeded(circuit_seed, pattern_seed):
    check_detection_matches_reference(circuit_seed, pattern_seed)


if HAVE_HYPOTHESIS:
    SEEDS = st.integers(min_value=0, max_value=10_000)

    @settings(max_examples=25, deadline=None)
    @given(circuit_seed=SEEDS, pattern_seed=SEEDS)
    def test_packed_matches_per_pattern_hypothesis(circuit_seed, pattern_seed):
        check_packed_matches_per_pattern(circuit_seed, pattern_seed)

    @settings(max_examples=15, deadline=None)
    @given(circuit_seed=SEEDS, pattern_seed=SEEDS)
    def test_cone_matches_full_netlist_hypothesis(circuit_seed, pattern_seed):
        check_cone_matches_full_netlist(circuit_seed, pattern_seed)

    @settings(max_examples=10, deadline=None)
    @given(circuit_seed=SEEDS, pattern_seed=SEEDS)
    def test_detection_matches_reference_hypothesis(circuit_seed, pattern_seed):
        check_detection_matches_reference(circuit_seed, pattern_seed)
