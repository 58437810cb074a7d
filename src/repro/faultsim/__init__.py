"""Fault simulators: serial, parallel-pattern, parallel-fault, deductive,
wide, lane-batched sequential (one pass per clock), plus coverage reports.

All combinational engines share one API — construction
``(circuit, faults=None, collapse=True)`` plus ``run(patterns)``,
``detects(pattern, fault)`` and ``detected_faults(pattern)`` — and are
selectable by name through :class:`Engine` / :func:`create_simulator`.
The differential test suite (``tests/test_faultsim_differential.py``)
holds them to identical detected-fault sets on the circuits zoo; that
agreement is the contract any new or refactored engine must keep.
"""

import enum
from typing import Any, Optional, Sequence, Union

from ..netlist.circuit import Circuit
from ..faults.stuck_at import Fault
from ..faults.models import (
    FaultModel,
    FaultModelPlan,
    UnsupportedFaultModelError,
    plan_fault_model,
)
from .expand import expand_branches, fault_site_net
from .coverage import CoverageReport, merge_reports, sample_fault_list
from .serial import SerialFaultSimulator
from .parallel_pattern import FaultSimulator
from .parallel_fault import ParallelFaultSimulator
from .deductive import DeductiveFaultSimulator
from .sequential import SequentialFaultSimulator
from .wide import WideFaultSimulator
from .cmos_open import CmosStuckOpenSimulator
from .diagnosis import FaultDictionary, DiagnosisResult
from .sharded import ShardedFaultSimulator, shard_faults, sharded_coverage


class Engine(enum.Enum):
    """Selectable combinational fault-simulation engines.

    ``PARALLEL_PATTERN`` (the single-fault compiled-core engine) is the
    default everywhere: with fault dropping it grades about as fast as
    ``WIDE`` on ``r1908`` and faster on ``r5315``.  ``WIDE`` (lane-batched
    union-cone grading over the compiled core; numpy arrays with a
    big-int fallback) wins without dropping, and the two are
    differentially tested against each other; the others are
    independent implementations kept as cross-checks and for workloads
    that fit them better (e.g. ``DEDUCTIVE`` when every pattern's full
    fault list is wanted).
    """

    SERIAL = "serial"
    DEDUCTIVE = "deductive"
    PARALLEL_FAULT = "parallel_fault"
    PARALLEL_PATTERN = "parallel_pattern"
    WIDE = "wide"


ENGINE_CLASSES = {
    Engine.SERIAL: SerialFaultSimulator,
    Engine.DEDUCTIVE: DeductiveFaultSimulator,
    Engine.PARALLEL_FAULT: ParallelFaultSimulator,
    Engine.PARALLEL_PATTERN: FaultSimulator,
    Engine.WIDE: WideFaultSimulator,
}


def create_simulator(
    circuit: Circuit,
    engine: Union[str, Engine] = Engine.PARALLEL_PATTERN,
    faults: Optional[Sequence[Any]] = None,
    collapse: bool = True,
    fault_model: Union[str, FaultModel] = FaultModel.STUCK_AT,
    **kwargs,
):
    """Instantiate a fault simulator by engine name.

    ``engine`` is an :class:`Engine` or its string value.  Extra keyword
    arguments go to the engine constructor (e.g. ``backend="bigint"``
    for ``WIDE``).

    ``fault_model`` selects the fault model (see
    :class:`repro.faults.FaultModel`).  Non-stuck-at models reduce to
    circuit rewrite + stuck-at grading
    (:func:`repro.faults.plan_fault_model`), so every engine works
    unchanged; the returned simulator carries the reduction as its
    ``fault_model_plan`` attribute, and ``faults`` must then be
    model-typed faults (``BridgingFault``/``TransitionFault``/
    ``CmosStuckOpenFault``) or ``None`` for the default universe.  For
    the two-frame models the simulator's patterns are (V1, V2) pairs
    over the composite inputs ``"{net}@1"``/``"{net}@2"``.
    """
    selected = engine if isinstance(engine, Engine) else Engine(engine)
    cls = ENGINE_CLASSES[selected]
    plan = plan_fault_model(circuit, fault_model, faults=faults, collapse=collapse)
    simulator = cls(
        plan.circuit, faults=plan.faults, collapse=collapse, **kwargs
    )
    simulator.fault_model_plan = plan
    return simulator


def engine_coverage(
    circuit: Circuit,
    patterns: Sequence[dict],
    engine: Union[str, Engine] = Engine.PARALLEL_PATTERN,
    faults: Optional[Sequence[Any]] = None,
    collapse: bool = True,
    fault_model: Union[str, FaultModel] = FaultModel.STUCK_AT,
    **kwargs,
) -> CoverageReport:
    """One-call fault simulation through a selectable engine."""
    return create_simulator(
        circuit,
        engine,
        faults=faults,
        collapse=collapse,
        fault_model=fault_model,
        **kwargs,
    ).run(patterns)


__all__ = [
    "Engine",
    "ENGINE_CLASSES",
    "FaultModel",
    "FaultModelPlan",
    "UnsupportedFaultModelError",
    "plan_fault_model",
    "create_simulator",
    "engine_coverage",
    "FaultDictionary",
    "DiagnosisResult",
    "expand_branches",
    "fault_site_net",
    "CoverageReport",
    "merge_reports",
    "sample_fault_list",
    "SerialFaultSimulator",
    "FaultSimulator",
    "ParallelFaultSimulator",
    "DeductiveFaultSimulator",
    "WideFaultSimulator",
    "CmosStuckOpenSimulator",
    "SequentialFaultSimulator",
    "ShardedFaultSimulator",
    "shard_faults",
    "sharded_coverage",
]
