"""ATPG soundness and completeness against an exhaustive direct oracle.

The oracle (``tests/oracle.py``) shares no code with the simulators or
the ATPG: it evaluates the *original* netlist (no branch expansion)
gate by gate over every input vector at once, one bit per vector in a
Python int, and injects a stuck-at fault at its stem or at its
reader's pin.

* Soundness: every PODEM or D-algorithm cube detects its fault under
  every completion of its don't-cares.
* Completeness: every fault either generator declares redundant has no
  detecting vector at all.
* Shipped results: after fill, compaction and repair, the patterns
  ``generate_tests`` returns detect exactly the faults its report
  claims, at the claimed first pattern, and no fault it reports
  redundant has a detecting vector.
"""

import pytest

from repro.atpg import DAlgorithm, PodemGenerator, generate_tests
from repro.circuits import (
    alu74181,
    c17,
    carry_lookahead_adder,
    parity_tree,
    random_combinational,
)
from repro.faults import all_faults, collapse_faults

from oracle import CombinationalOracle, first_detections


def test_oracle_matches_hand_truth_table():
    """The oracle itself: c17's output G22 = NAND(G10, G16)."""
    oracle = CombinationalOracle(c17())
    good = oracle.good
    for k in range(oracle.width):
        bit = {net: (oracle.input_words[net] >> k) & 1 for net in oracle.circuit.inputs}
        g10 = 1 - (bit["G1"] & bit["G3"])
        g11 = 1 - (bit["G3"] & bit["G6"])
        g16 = 1 - (bit["G2"] & g11)
        assert (good["G22"] >> k) & 1 == 1 - (g10 & g16)


def _check_against_oracle(circuit, faults, generator=PodemGenerator):
    oracle = CombinationalOracle(circuit)
    engine = generator(circuit)
    redundant = 0
    for fault in faults:
        result = engine.generate(fault)
        detect = oracle.detecting_vectors(fault)
        assert not result.aborted, f"{fault}: aborted at the default limit"
        if result.found:
            covered = oracle.cube_vectors(result.pattern)
            assert covered & ~detect == 0, (
                f"{fault}: cube {result.pattern} has a completion that misses it"
            )
        else:
            assert result.redundant
            assert detect == 0, f"{fault}: declared redundant but detectable"
            redundant += 1
    return redundant


ZOO_FACTORIES = [
    c17, alu74181, lambda: carry_lookahead_adder(4), lambda: parity_tree(8)
]
ZOO_IDS = ["c17", "alu74181", "cla4", "parity8"]
ZOO = pytest.mark.parametrize("factory", ZOO_FACTORIES, ids=ZOO_IDS)


@ZOO
def test_podem_sound_and_complete_on_zoo(factory):
    circuit = factory()
    assert _check_against_oracle(circuit, all_faults(circuit)) == 0


@ZOO
def test_dalg_sound_and_complete_on_zoo(factory):
    """D-drive through an XOR must try both side values: with 0 only,
    ``HS0.in0(L0)/SA0`` to ``HS3.in0(L3)/SA0`` of the 74181 read as
    redundant."""
    circuit = factory()
    assert _check_against_oracle(circuit, all_faults(circuit), DAlgorithm) == 0


@pytest.mark.parametrize("seed", range(12))
def test_podem_sound_and_complete_on_random_logic(seed):
    """Random netlists carry many redundant faults (972 collapsed ones
    over these twelve seeds): each proof is checked."""
    circuit = random_combinational(10, 80, seed=seed)
    assert _check_against_oracle(circuit, collapse_faults(circuit)) > 0


@pytest.mark.slow
def test_dalg_sound_and_complete_on_random_logic():
    """Seed 0 holds 69 redundant collapsed faults, as PODEM proves."""
    circuit = random_combinational(10, 80, seed=0)
    faults = collapse_faults(circuit)
    assert _check_against_oracle(circuit, faults, DAlgorithm) == 69


@pytest.mark.parametrize("method", ["podem", "dalg"])
@pytest.mark.parametrize(
    "factory",
    ZOO_FACTORIES + [lambda: random_combinational(10, 80, seed=0)],
    ids=ZOO_IDS + ["random_seed0"],
)
def test_generate_tests_results_match_oracle(factory, method):
    """Fill, compaction and repair keep the report true to the shipped
    patterns; on seed 0 the redundancy proofs are checked too."""
    circuit = factory()
    result = generate_tests(circuit, method=method)
    for pattern in result.patterns:
        assert set(pattern) == set(circuit.inputs)
    shipped = CombinationalOracle(circuit, result.patterns)
    expected = first_detections(
        {fault: shipped.detecting_vectors(fault) for fault in result.report.faults}
    )
    assert result.report.first_detection == expected
    exhaustive = CombinationalOracle(circuit)
    for fault in result.redundant:
        assert exhaustive.detecting_vectors(fault) == 0, (
            f"{fault}: reported redundant but detectable"
        )
