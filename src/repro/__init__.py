"""repro: Design for Testability — a working reproduction of the 1982 survey.

The package implements the full menu of Williams & Parker's *Design for
Testability — A Survey*: fault modeling, logic/fault simulation, ATPG,
testability measures, the ad hoc board techniques, the structured scan
disciplines (LSSD, Scan Path, Scan/Set, Random-Access Scan), and the
self-test schemes (BILBO, Syndrome, Walsh, Autonomous testing), plus the
economics models behind the paper's cost arguments.

Quick start::

    from repro import circuits
    from repro.atpg import generate_tests
    from repro.faultsim import engine_coverage

    c = circuits.c17()
    result = generate_tests(c)
    report = engine_coverage(c, result.patterns)
    print(report)
"""

__version__ = "1.0.0"

from . import telemetry
from . import netlist
from . import circuits
from . import sim
from . import faults
from . import faultsim
from . import atpg
from . import testability
from . import lfsr
from . import economics
from . import adhoc
from . import scan
from . import bist
from . import testers
from . import store
from . import campaign
from . import bench_trajectory

__all__ = [
    "telemetry",
    "netlist",
    "circuits",
    "sim",
    "faults",
    "faultsim",
    "atpg",
    "testability",
    "lfsr",
    "economics",
    "adhoc",
    "scan",
    "bist",
    "testers",
    "store",
    "campaign",
    "__version__",
]
