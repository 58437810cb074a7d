"""PODEM outputs pinned to recorded values.

Implication in :mod:`repro.atpg.podem` is incremental (a trail of
overwritten values, undone on backtrack, and a kept D-set); the values
below were recorded from the full-resimulation implementation it
replaced.  Any change to the search order, the tie-breaks or the
implication result moves at least one cube, verdict or counter here.
"""

import hashlib
import json

import pytest

from repro.atpg import PodemGenerator, generate_tests
from repro.circuits import alu74181, c17, iscas85_like, random_combinational
from repro.faults import collapse_faults


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_r432_generate_tests_pinned():
    circuit = iscas85_like("r432", seed=1)
    result = generate_tests(circuit, seed=7, backtrack_limit=100)
    counters = result.manifest.counters
    assert counters["atpg.decisions"] == 5320
    assert counters["atpg.backtracks"] == 2259
    assert result.total_backtracks == 2259
    assert len(result.report.first_detection) == 774
    assert len(result.report.faults) == 809
    assert len(result.patterns) == 76
    assert len(result.redundant) == 18
    assert len(result.aborted) == 18
    assert _digest(result.patterns).startswith("3c48936f0f4444e0")


#: Per circuit: (collapsed faults, sha256 of the per-fault rows,
#: redundant, decisions, backtracks) at the default backtrack limit.
PER_FAULT = {
    "c17": (c17, 22, "695f8c4cad634319", 0, 63, 0),
    "alu74181": (alu74181, 224, "f1493c4992872860", 0, 1414, 35),
    "rand10x80s0": (lambda: random_combinational(10, 80, seed=0),
                    430, "ed869bace374e0a8", 69, 3863, 1005),
    "rand10x80s1": (lambda: random_combinational(10, 80, seed=1),
                    397, "d57babac11804128", 148, 6587, 2631),
    "rand10x80s2": (lambda: random_combinational(10, 80, seed=2),
                    437, "9978abf57821ad86", 134, 5088, 1699),
}


@pytest.mark.parametrize("name", sorted(PER_FAULT))
def test_per_fault_results_pinned(name):
    factory, faults, digest, redundant, decisions, backtracks = PER_FAULT[name]
    circuit = factory()
    engine = PodemGenerator(circuit)
    rows = []
    for fault in collapse_faults(circuit):
        result = engine.generate(fault)
        rows.append([str(fault), result.pattern, result.redundant, result.aborted,
                     result.decisions, result.backtracks])
    assert len(rows) == faults
    assert sum(row[2] for row in rows) == redundant
    assert not any(row[3] for row in rows)
    assert sum(row[4] for row in rows) == decisions
    assert sum(row[5] for row in rows) == backtracks
    assert _digest(rows).startswith(digest)
