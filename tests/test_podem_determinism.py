"""PODEM's search order depends on the netlist, never on string hashing.

Multi-site faults (a time-frame replica per frame) used to try their
equal-level sites in set iteration order, so the sequential ATPG's
backtrack count moved with ``PYTHONHASHSEED``.  Sites now tie-break on
their dense topological index.
"""

import json
import os
import subprocess
import sys

from repro.atpg import PodemGenerator
from repro.atpg.podem import _PodemState
from repro.circuits import c17

TIMEFRAME_RUN = (
    "import json\n"
    "from repro.atpg import TimeFrameAtpg\n"
    "from repro.campaign.spec import build_workload\n"
    "result = TimeFrameAtpg(build_workload('binary_counter4'), max_frames=4,\n"
    "                       backtrack_limit=200).run(seed=1)\n"
    "print(json.dumps({\n"
    "    'total_backtracks': result.total_backtracks,\n"
    "    'tests': [[str(t.fault), t.frames_used, t.sequence] for t in result.tests],\n"
    "    'not_found': [str(f) for f in result.not_found],\n"
    "    'aborted': [str(f) for f in result.aborted],\n"
    "}, sort_keys=True))\n"
)


def _run_with_hash_seed(seed):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env["PYTHONHASHSEED"] = str(seed)
    out = subprocess.run(
        [sys.executable, "-c", TIMEFRAME_RUN],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    ).stdout
    return json.loads(out)


def test_timeframe_atpg_independent_of_hash_seed():
    first = _run_with_hash_seed(0)
    second = _run_with_hash_seed(1)
    assert first == second
    assert first["not_found"]  # the reset-less counter is untestable


def test_equal_level_sites_activate_in_topological_order():
    engine = PodemGenerator(c17())
    level = engine.expanded.level_of
    # Two first-level gate outputs, listed against topological order.
    first, second = [g.output for g in engine.expanded.topological_order()
                     if level(g.output) == 1][:2]
    state = _PodemState(engine, [second, first], stuck_value=0)
    net, value = state.objective()
    assert engine._nets[net] == first and value == 1
