"""Cross-engine differential tests: the engine-agreement contract.

Every combinational fault-simulation engine — serial (reference),
deductive, parallel-fault, parallel-pattern and wide — must produce the
*identical detected-fault set* for identical (circuit, fault list,
pattern set) inputs, across the whole circuits zoo: adders, the 74181
ALU, random logic, and sequential machines viewed through scan
(``combinational_core``).

This is the correctness backstop for the compiled simulation core and
for any future engine work: an optimization that changes any engine's
verdict on any fault fails here.  ``test_faultsim_oracle.py`` holds
the same engines to an evaluator that shares none of their code.
"""

import itertools
import random

import pytest

from repro.circuits import (
    alu74181,
    binary_counter,
    c17,
    carry_lookahead_adder,
    parity_tree,
    random_combinational,
    random_sequential,
    ripple_carry_adder,
)
from repro.faults import all_faults, collapse_faults
from repro.faultsim import (
    Engine,
    ENGINE_CLASSES,
    create_simulator,
)


def _random_patterns(circuit, count, seed):
    rng = random.Random(seed)
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs}
        for _ in range(count)
    ]


def _exhaustive_patterns(circuit):
    return [
        dict(zip(circuit.inputs, bits))
        for bits in itertools.product((0, 1), repeat=len(circuit.inputs))
    ]


def _detected_sets(circuit, faults, patterns):
    """Detected-fault set per engine."""
    sets = {}
    for engine in Engine:
        simulator = create_simulator(circuit, engine, faults=faults)
        sets[engine.value] = frozenset(simulator.run(patterns).first_detection)
    return sets

def _assert_all_agree(circuit, faults, patterns):
    sets = _detected_sets(circuit, faults, patterns)
    reference = sets["serial"]
    for name, detected in sets.items():
        assert detected == reference, (
            f"engine {name} disagrees with serial on {circuit.name}: "
            f"only-in-{name}={sorted(f.name for f in detected - reference)[:5]} "
            f"missing={sorted(f.name for f in reference - detected)[:5]}"
        )


ZOO = [
    ("c17", lambda: c17(), "exhaustive"),
    ("majority-parity", lambda: parity_tree(4), "exhaustive"),
    ("ripple-adder", lambda: ripple_carry_adder(3), "random"),
    ("cla-adder", lambda: carry_lookahead_adder(3), "random"),
    ("random-logic", lambda: random_combinational(8, 40, seed=11), "random"),
    ("random-logic-wide", lambda: random_combinational(12, 90, seed=23), "random"),
]


@pytest.mark.parametrize("name,factory,mode", ZOO, ids=[z[0] for z in ZOO])
def test_engines_agree_on_zoo(name, factory, mode):
    circuit = factory()
    patterns = (
        _exhaustive_patterns(circuit)
        if mode == "exhaustive"
        else _random_patterns(circuit, 24, seed=len(name))
    )
    _assert_all_agree(circuit, collapse_faults(circuit), patterns)


def test_engines_agree_uncollapsed_universe():
    circuit = ripple_carry_adder(2)
    _assert_all_agree(
        circuit, all_faults(circuit), _exhaustive_patterns(circuit)
    )


@pytest.mark.slow
def test_engines_agree_on_alu74181():
    circuit = alu74181()
    patterns = _random_patterns(circuit, 32, seed=74181)
    _assert_all_agree(circuit, collapse_faults(circuit), patterns)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: binary_counter(4),
        lambda: random_sequential(5, 30, 4, seed=7),
    ],
    ids=["counter-scan-view", "random-seq-scan-view"],
)
def test_engines_agree_on_scan_views(factory):
    """Sequential machines through scan: the combinational core, with
    flip-flop outputs exposed as pseudo-primary inputs, must get the
    same cross-engine agreement as any native combinational circuit."""
    core = factory().combinational_core()
    assert core.is_combinational
    patterns = _random_patterns(core, 24, seed=1)
    _assert_all_agree(core, collapse_faults(core), patterns)


def test_engine_api_surface():
    """All engines expose run / detects / detected_faults uniformly."""
    circuit = c17()
    pattern = dict(zip(circuit.inputs, [1, 0, 1, 1, 0]))
    faults = collapse_faults(circuit)
    for engine, cls in ENGINE_CLASSES.items():
        simulator = create_simulator(circuit, engine.value, faults=faults)
        assert isinstance(simulator, cls)
        detected = set(simulator.detected_faults(pattern))
        for fault in faults:
            assert simulator.detects(pattern, fault) == (fault in detected)


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        create_simulator(c17(), "concurrent")
