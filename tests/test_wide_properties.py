"""Property-based tests for the wide (lane-batched) simulation core.

The invariants that make lane-batched grading exact:

1. **Lane packing is lossless:** ``broadcast_lanes`` / ``extract_lane``
   / ``force_lane`` round-trip arbitrary words for any lane geometry,
   and the numpy matrix layout (``ints_to_lane_matrix``) inverts
   exactly (``lane_matrix_to_ints``) including pad words.
2. **Tail masks:** for pattern counts that do not fill a 64-bit word,
   detection words never carry bits at or above the pattern count, for
   either backend.
3. **Batched == single-fault:** one :meth:`WideInjector.grade` call
   over a fault batch equals the compiled core's per-fault
   :meth:`FaultInjector.detect_word`, bit for bit — the invariant that
   lets the union-cone pass grade hundreds of faults at once.
4. **Backend equivalence:** the numpy and big-int lane backends return
   identical detection words on identical batches.

Runs under ``hypothesis`` when installed; otherwise the same
properties are exercised over a seeded-random corpus, so the suite
carries its own fallback and needs no extra dependencies.
"""

import random

import pytest

from repro.circuits import random_combinational
from repro.faultsim.expand import netlist_structure
from repro.sim import FaultInjector, PackedPatternSet
from repro.sim.wide import (
    LANE_BACKENDS,
    WideInjector,
    broadcast_lanes,
    extract_lane,
    force_lane,
    ints_to_lane_matrix,
    lane_matrix_to_ints,
    numpy_available,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - seeded fallback below
    HAVE_HYPOTHESIS = False

BACKENDS = [b for b in LANE_BACKENDS if b != "numpy" or numpy_available()]


def _random_patterns(circuit, count, rng):
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs}
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Property bodies (shared by hypothesis and the seeded fallback)
# ----------------------------------------------------------------------
def check_lane_roundtrip(seed):
    """Invariant 1: broadcast/extract/force round-trip exactly."""
    rng = random.Random(seed)
    width = rng.randint(1, 130)
    lanes = rng.randint(0, 9)
    word = rng.getrandbits(width) if width else 0
    packed = broadcast_lanes(word, lanes, width)
    for lane in range(lanes):
        assert extract_lane(packed, lane, width) == word
    if lanes:
        lane = rng.randrange(lanes)
        forced = rng.getrandbits(width)
        repacked = force_lane(packed, lane, width, forced)
        for other in range(lanes):
            expected = forced if other == lane else word
            assert extract_lane(repacked, other, width) == expected
    # Packing is dense: no bits beyond the last lane.
    assert packed < (1 << (lanes * width)) if lanes else packed == 0


def check_matrix_roundtrip(seed):
    """Invariant 1 (numpy layout): int rows <-> uint64 matrix."""
    if not numpy_available():
        pytest.skip("numpy not installed")
    rng = random.Random(seed)
    count = rng.randint(1, 200)
    rows = rng.randint(1, 12)
    values = [rng.getrandbits(count) for _ in range(rows)]
    matrix = ints_to_lane_matrix(values, count)
    assert matrix.shape[0] == rows
    assert lane_matrix_to_ints(matrix) == values


def check_tail_mask(seed):
    """Invariant 2: no detection bit at or above the pattern count."""
    rng = random.Random(seed)
    circuit = random_combinational(6, 30, seed=seed)
    count = rng.choice([1, 3, 63, 64, 65, 100, 127, 129])
    patterns = _random_patterns(circuit, count, rng)
    packed = PackedPatternSet.from_patterns(circuit.inputs, patterns)
    structure = netlist_structure(circuit)
    faults = structure.collapsed(circuit)
    for backend in BACKENDS:
        injector = WideInjector(structure.expanded, packed, backend=backend)
        targets = []
        for fault, site in zip(faults, structure.sites(faults)):
            if site is not None:
                targets.append((site, packed.mask if fault.value else 0))
        for word in injector.grade(targets):
            assert word >> count == 0


def check_batched_matches_detect_word(seed):
    """Invariant 3: WideInjector.grade == FaultInjector.detect_word."""
    rng = random.Random(seed)
    circuit = random_combinational(7, 45, seed=seed)
    patterns = _random_patterns(circuit, rng.randint(1, 80), rng)
    packed = PackedPatternSet.from_patterns(circuit.inputs, patterns)
    structure = netlist_structure(circuit)
    reference = FaultInjector(structure.expanded, packed)
    faults = structure.collapsed(circuit)
    for backend in BACKENDS:
        injector = WideInjector(structure.expanded, packed, backend=backend)
        targets, expected = [], []
        for fault, site in zip(faults, structure.sites(faults)):
            if site is None:
                continue
            forced = packed.mask if fault.value else 0
            targets.append((site, forced))
            expected.append(reference.detect_word(site, forced))
        assert injector.grade(targets) == expected, backend


def check_backend_equivalence(seed):
    """Invariant 4: numpy and bigint lanes grade identically."""
    if len(BACKENDS) < 2:
        pytest.skip("only one lane backend available")
    rng = random.Random(seed)
    circuit = random_combinational(6, 35, seed=seed)
    patterns = _random_patterns(circuit, rng.randint(1, 70), rng)
    packed = PackedPatternSet.from_patterns(circuit.inputs, patterns)
    structure = netlist_structure(circuit)
    faults = structure.collapsed(circuit)
    targets = [
        (site, packed.mask if fault.value else 0)
        for fault, site in zip(faults, structure.sites(faults))
        if site is not None
    ]
    words = {
        backend: WideInjector(structure.expanded, packed, backend=backend).grade(targets)
        for backend in BACKENDS
    }
    first = words[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        assert words[backend] == first


# ----------------------------------------------------------------------
# Seeded fallback (always runs)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_lane_roundtrip_seeded(seed):
    check_lane_roundtrip(seed)


@pytest.mark.parametrize("seed", range(6))
def test_matrix_roundtrip_seeded(seed):
    check_matrix_roundtrip(seed)


@pytest.mark.parametrize("seed", range(4))
def test_tail_mask_seeded(seed):
    check_tail_mask(seed)


@pytest.mark.parametrize("seed", range(4))
def test_batched_matches_detect_word_seeded(seed):
    check_batched_matches_detect_word(seed)


@pytest.mark.parametrize("seed", range(4))
def test_backend_equivalence_seeded(seed):
    check_backend_equivalence(seed)


# ----------------------------------------------------------------------
# Hypothesis layer (when available)
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:
    SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

    # The hypothesis tests are the open-ended fuzzing tier; the seeded
    # corpus above keeps the same properties covered when the slow
    # tier is deselected.

    @pytest.mark.slow
    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS)
    def test_lane_roundtrip_hypothesis(seed):
        check_lane_roundtrip(seed)

    @pytest.mark.slow
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS)
    def test_matrix_roundtrip_hypothesis(seed):
        check_matrix_roundtrip(seed)

    @pytest.mark.slow
    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_tail_mask_hypothesis(seed):
        check_tail_mask(seed)

    @pytest.mark.slow
    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_batched_matches_detect_word_hypothesis(seed):
        check_batched_matches_detect_word(seed)

    @pytest.mark.slow
    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_backend_equivalence_hypothesis(seed):
        check_backend_equivalence(seed)
