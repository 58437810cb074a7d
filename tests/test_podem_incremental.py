"""PODEM's incremental implication equals a from-scratch pass.

The search state re-implies only the fanout cone of each decision and
undoes a trail on backtrack.  Over random circuits (some with constant
generators, whose fault sites carry a D before any decision) and seeded
sequences of assign / flip / undo steps, after every step:

* every net value equals a from-scratch five-valued pass written here
  by name, with ``gates.evaluate``;
* the D-set is exactly the nets carrying D or D';
* undoing to a mark restores the exact values and D-set of that mark.

Runs under ``hypothesis`` when it is installed; otherwise the same
property runs over a seeded corpus.
"""

import random

import pytest

from repro.atpg import PodemGenerator
from repro.atpg.podem import _PodemState
from repro.circuits import random_combinational
from repro.netlist import values as V
from repro.netlist.gates import GateType, evaluate

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - seeded fallback below
    HAVE_HYPOTHESIS = False


def _circuit(rng):
    circuit = random_combinational(
        rng.randint(3, 8), rng.randint(8, 40), seed=rng.randrange(1 << 30)
    )
    if rng.random() < 0.5:
        # Constant generators feeding logic: their stuck-at sites are
        # active before any input is assigned.
        net = rng.choice(circuit.inputs)
        circuit.add_gate(GateType.CONST0, [], "K0")
        circuit.add_gate(GateType.CONST1, [], "K1")
        circuit.add_gate(GateType.OR, ["K0", net], "KOR")
        circuit.add_gate(GateType.AND, ["K1", "KOR"], "KAND")
        circuit.add_output("KAND")
    return circuit


def _faulty(good, stuck):
    """Five-valued value of a net stuck at ``stuck`` whose good value is ``good``."""
    if good == V.X:
        return V.X
    bit = V.good_value(good)
    if bit == stuck:
        return V.ONE if stuck else V.ZERO
    return V.D if bit else V.DBAR


def _reference(engine, sites, stuck, assignment):
    """From-scratch five-valued pass over the expanded circuit, by name."""
    values = {}
    for net in engine.expanded.inputs:
        bit = assignment.get(net)
        value = V.X if bit is None else (V.ONE if bit else V.ZERO)
        values[net] = _faulty(value, stuck) if net in sites else value
    for gate in engine.expanded.topological_order():
        value = evaluate(gate.kind, tuple(values[n] for n in gate.inputs))
        values[gate.output] = _faulty(value, stuck) if gate.output in sites else value
    return [values[net] for net in engine._nets]


def check_incremental_matches_scratch(seed):
    rng = random.Random(seed)
    engine = PodemGenerator(_circuit(rng))
    nets = list(engine.expanded.nets())
    sites = set(rng.sample(nets, rng.randint(1, 3)))
    if "K0" in nets and rng.random() < 0.5:
        sites.add(rng.choice(["K0", "K1"]))
    stuck = rng.randint(0, 1)
    inputs = list(engine.expanded.inputs)
    frozen = set(rng.sample(inputs, rng.randint(0, len(inputs) // 3)))
    state = _PodemState(engine, sorted(sites), stuck, sorted(frozen))
    assignment = {}
    # Decision stack: (input, value, trail mark, values and D-set at the mark).
    stack = []

    def check():
        assert state.values == _reference(engine, sites, stuck, assignment)
        expected = {i for i, v in enumerate(state.values) if v in (V.D, V.DBAR)}
        assert state.dset == expected

    check()
    for _ in range(60):
        free = [net for net in inputs if net not in assignment and net not in frozen]
        step = rng.random()
        if free and (step < 0.5 or not stack):
            net, value = rng.choice(free), rng.randint(0, 1)
            stack.append((net, value, state.mark(), list(state.values), set(state.dset)))
            state.assign(engine._index[net], value)
            assignment[net] = value
        elif step < 0.75 and stack:
            # Flip the newest decision: undo to its mark, assign the other value.
            net, value, mark, values, dset = stack.pop()
            state.undo(mark)
            assert state.values == values and state.dset == dset
            del assignment[net]
            check()
            stack.append((net, 1 - value, state.mark(), values, dset))
            state.assign(engine._index[net], 1 - value)
            assignment[net] = 1 - value
        elif stack:
            # Backtrack one or more decisions at once.
            depth = rng.randint(1, len(stack))
            net, _, mark, values, dset = stack[-depth]
            for entry in stack[-depth:]:
                del assignment[entry[0]]
            del stack[-depth:]
            state.undo(mark)
            assert state.values == values and state.dset == dset
        check()


@pytest.mark.parametrize("seed", range(40))
def test_incremental_matches_scratch_seeded(seed):
    check_incremental_matches_scratch(seed)


if HAVE_HYPOTHESIS:

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_incremental_matches_scratch_hypothesis(seed):
        check_incremental_matches_scratch(seed)
