"""Every fault-simulation engine and fault-model reduction against the oracle.

The engines are otherwise checked mostly against each other, and they
share fault expansion, collapsing and the compiled core, so a bug
common to all of them would go unseen there.  Here each one is held to
``tests/oracle.py``, a direct evaluator of the original netlist that
shares none of that code, over an explicit pattern list:

* stuck-at over the whole uncollapsed universe: the detected faults and
  first-detection indices of every :class:`Engine` and of the sharded
  executor must equal the oracle's;
* bridging and transition: the same, with each graded composite fault
  mapped back to its model fault through ``fault_model_plan``;
* collapsing: the members of each equivalence class share one
  exhaustive detection word, and every fault that dominance collapsing
  drops is covered by a kept fault whose tests are a subset of its own.

The runs of the serial engine on the larger circuits are ``slow``.
"""

import ast
import functools
import pathlib
import random

import pytest

from repro.circuits import (
    alu74181,
    c17,
    carry_lookahead_adder,
    parity_tree,
    random_combinational,
)
from repro.faults import (
    all_faults,
    collapse_faults,
    dominance_collapse,
    equivalence_classes,
)
from repro.faultsim import Engine, ShardedFaultSimulator, create_simulator

from oracle import CombinationalOracle, first_detections, transition_vectors

ZOO = {
    "c17": c17,
    "alu74181": alu74181,
    "cla4": lambda: carry_lookahead_adder(4),
    "parity8": lambda: parity_tree(8),
}
RANDOM = {
    f"random{seed}": functools.partial(random_combinational, 10, 80, seed=seed)
    for seed in range(12)
}
SWEEP = list(ZOO) + [f"random{seed}" for seed in range(4)]
FACTORIES = {**ZOO, **RANDOM}
ENGINES = [engine.value for engine in Engine] + ["sharded"]
PATTERNS = 32
#: (circuit, engine) runs that take seconds each: the serial engine
#: re-simulates every undetected fault, and random logic is rich in
#: redundant faults.
SLOW = {
    (name, "serial") for name in SWEEP if name.startswith("random")
} | {("alu74181", "serial")}


def _sweep_params(names):
    return [
        pytest.param(
            name,
            engine,
            id=f"{name}-{engine}",
            marks=pytest.mark.slow if (name, engine) in SLOW else (),
        )
        for name in names
        for engine in ENGINES
    ]


def _random_patterns(nets, count, seed):
    rng = random.Random(seed)
    return [{net: rng.randint(0, 1) for net in nets} for _ in range(count)]


def _simulator(circuit, engine, **kwargs):
    if engine == "sharded":
        return ShardedFaultSimulator(circuit, workers=2, shards=3, **kwargs)
    return create_simulator(circuit, engine, **kwargs)


@functools.lru_cache(maxsize=None)
def _circuit(name):
    return FACTORIES[name]()


# ----------------------------------------------------------------------
# The oracle itself
# ----------------------------------------------------------------------
BANNED_MODULES = (
    "repro.sim",
    "repro.faultsim",
    "repro.faults.models",
    "repro.atpg.boolean_difference",
)


def test_oracle_imports_nothing_from_the_engines():
    tree = ast.parse(
        (pathlib.Path(__file__).parent / "oracle.py").read_text(encoding="utf-8")
    )
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend((alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.extend((node.module, alias.name) for alias in node.names)
    assert imported, "the oracle must import at least the gate kinds"
    for module, name in imported:
        assert not module.startswith(BANNED_MODULES), module
        assert name != "expand_branches"


def test_explicit_patterns_match_exhaustive_bits():
    circuit = c17()
    exhaustive = CombinationalOracle(circuit)
    picks = [3, 0, 31, 17]
    patterns = [
        {net: (k >> i) & 1 for i, net in enumerate(circuit.inputs)} for k in picks
    ]
    listed = CombinationalOracle(circuit, patterns)
    for net, word in exhaustive.good.items():
        for bit, k in enumerate(picks):
            assert (listed.good[net] >> bit) & 1 == (word >> k) & 1, net


# ----------------------------------------------------------------------
# Stuck-at: every engine, every fault
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _stuck_at_case(name):
    circuit = _circuit(name)
    faults = all_faults(circuit)
    patterns = _random_patterns(circuit.inputs, PATTERNS, seed=len(name))
    oracle = CombinationalOracle(circuit, patterns)
    expected = first_detections({f: oracle.detecting_vectors(f) for f in faults})
    return circuit, faults, patterns, expected


@pytest.mark.parametrize("name,engine", _sweep_params(SWEEP))
def test_stuck_at_engine_matches_oracle(name, engine):
    circuit, faults, patterns, expected = _stuck_at_case(name)
    report = _simulator(circuit, engine, faults=faults).run(patterns)
    assert expected
    assert report.first_detection == expected


# ----------------------------------------------------------------------
# Fault-model reductions, judged on the original circuit
# ----------------------------------------------------------------------
MODEL_SWEEP = list(ZOO) + ["random0"]


def _model_detections(simulator, patterns):
    plan = simulator.fault_model_plan
    report = simulator.run(patterns)
    return {plan.fault_names[f]: i for f, i in report.first_detection.items()}


@pytest.mark.parametrize("name,engine", _sweep_params(MODEL_SWEEP))
def test_bridging_matches_oracle(name, engine):
    circuit = _circuit(name)
    patterns = _random_patterns(circuit.inputs, PATTERNS, seed=7)
    simulator = _simulator(circuit, engine, fault_model="bridging")
    bridges = simulator.fault_model_plan.model_faults
    assert bridges
    oracle = CombinationalOracle(circuit, patterns)
    expected = first_detections({b.name: oracle.bridge_vectors(b) for b in bridges})
    assert _model_detections(simulator, patterns) == expected


@pytest.mark.parametrize("name,engine", _sweep_params(MODEL_SWEEP))
def test_transition_matches_oracle(name, engine):
    circuit = _circuit(name)
    first = _random_patterns(circuit.inputs, PATTERNS, seed=11)
    second = _random_patterns(circuit.inputs, PATTERNS, seed=12)
    pairs = [
        {**{f"{n}@1": v for n, v in v1.items()}, **{f"{n}@2": v for n, v in v2.items()}}
        for v1, v2 in zip(first, second)
    ]
    simulator = _simulator(circuit, engine, fault_model="transition")
    initial = CombinationalOracle(circuit, first)
    launch = CombinationalOracle(circuit, second)
    expected = first_detections({
        t.name: transition_vectors(initial, launch, t)
        for t in simulator.fault_model_plan.model_faults
    })
    assert expected
    assert _model_detections(simulator, pairs) == expected


# ----------------------------------------------------------------------
# Collapsing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(ZOO) + list(RANDOM))
def test_equivalence_classes_share_one_detection_word(name):
    circuit = _circuit(name)
    oracle = CombinationalOracle(circuit)
    for members in equivalence_classes(circuit):
        words = {oracle.detecting_vectors(fault) for fault in members}
        assert len(words) == 1, sorted(f.name for f in members)


@pytest.mark.parametrize("name", list(ZOO) + list(RANDOM))
def test_dominance_drops_only_covered_faults(name):
    """A dropped fault needs a kept one that is detectable and whose every
    test detects it; a redundant dominating branch covers nothing.
    ``random2`` drops ``N28/SA1`` that way without the PODEM check."""
    circuit = _circuit(name)
    oracle = CombinationalOracle(circuit)
    kept = dominance_collapse(circuit)
    kept_words = [word for word in map(oracle.detecting_vectors, kept) if word]
    dropped = set(collapse_faults(circuit)) - set(kept)
    for fault in dropped:
        word = oracle.detecting_vectors(fault)
        assert any(k & ~word == 0 for k in kept_words), (
            f"{fault.name} dropped without a kept fault covering it"
        )
