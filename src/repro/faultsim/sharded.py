"""Sharded multi-process fault simulation with an exact merge.

The paper's §II cost model says test generation and fault simulation
grow roughly with the *square* of gate count — the classic answer is to
throw parallel hardware at the fault list.  This module splits a
collapsed fault list into deterministic contiguous shards, runs any
Engine-API fault simulator (serial, deductive, parallel-fault,
parallel-pattern) or the sequential scan-flow verifier over each shard
in a worker process, and folds the per-shard
:class:`~repro.faultsim.coverage.CoverageReport` objects back together
with ``merge_reports(axis="faults")``.

Two properties make the merge *exact* rather than approximate:

* every engine decides each fault's detection (and first-detection
  index) independently of the other faults in its list, so a fault's
  row in the report cannot depend on which shard it landed in;
* shards are contiguous slices of the fault list, and the fault-axis
  merge concatenates them in shard order, so the merged report is
  **bit-identical** to the single-process run — same fault order, same
  first-detection indices, same coverage
  (``tests/test_sharded.py`` holds every engine to this).

Worker execution goes through a pluggable :mod:`repro.exec` backend
(``backend=`` accepts ``"inline"``/``"fork"``/``"spawn"``/
``"thread-lane"``, an :class:`~repro.exec.ExecutorBackend` instance, or
``None`` for auto-selection: fork where available, else spawn — so
spawn-only platforms get a real pool instead of silently degrading).
Execution still degrades gracefully: ``workers <= 1``, a single shard,
or no usable process backend all fall back to in-process execution
(the shard/merge path still runs when more than one shard was
requested, so the merge stays covered cross-platform).  Every
degradation is *observable*: a ``faultsim.sharded.fallback`` counter
fires and the reason lands both in the manifest ``workers`` section's
``fallbacks`` list and in its top-level ``reason`` field
(``fork_unavailable`` / ``spawn_unavailable`` / ``single_shard``).
Telemetry from each worker is captured in the child, shipped back with
the report, folded into the parent's active sink, and aggregated into
the ``workers`` section of the flow's
:class:`~repro.telemetry.RunManifest`.

Fork-pool execution is *supervised* (:mod:`repro.resilience`): a worker
that crashes, hangs past the supervision timeout, or raises is retried
with jittered exponential backoff; a shard that keeps failing falls
back to one chaos-free in-process run, so transient worker faults
never change the result — it stays bit-identical to the fault-free
run.  A shard that fails *deterministically* (in-process too) raises:
there is no partial report.  The seeded chaos harness
(:class:`~repro.resilience.ChaosConfig`, ``tests/test_chaos.py``)
exists to prove all of the above.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .. import telemetry
from ..exec.backends import ExecutorBackend, create_backend
from ..netlist.circuit import Circuit
from ..faults.stuck_at import Fault
from ..faults.models import (
    FaultModel,
    UnsupportedFaultModelError,
    plan_fault_model,
)
from ..resilience import ChaosConfig, SupervisionPolicy
from .coverage import CoverageReport, merge_reports

Pattern = Mapping[str, int]

#: Engine name for the sequential (scan-schedule) verifier, accepted by
#: this module alongside the combinational :class:`repro.faultsim.Engine`
#: names.  It is not part of the combinational Engine enum because its
#: input is a clock-cycle sequence, not independent patterns.
SEQUENTIAL_ENGINE = "sequential"


def shard_faults(faults: Sequence[Fault], shards: int) -> List[List[Fault]]:
    """Split a fault list into deterministic contiguous shards.

    The first ``len(faults) % shards`` shards get one extra fault, so
    sizes differ by at most one; concatenating the shards in order
    reproduces the input list exactly (the invariant the fault-axis
    merge relies on).  Empty trailing shards are dropped, so fewer
    faults than shards yields ``len(faults)`` singleton shards.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    faults = list(faults)
    if not faults:
        return []
    shards = min(shards, len(faults))
    base, extra = divmod(len(faults), shards)
    out: List[List[Fault]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(faults[start : start + size])
        start += size
    return out


def _engine_name(engine: Any) -> str:
    """Normalize an engine selector (enum, str) to its string name."""
    from . import Engine

    if isinstance(engine, Engine):
        return engine.value
    if engine == SEQUENTIAL_ENGINE:
        return SEQUENTIAL_ENGINE
    return Engine(engine).value


def _build_simulator(
    circuit: Circuit,
    engine: str,
    faults: Sequence[Fault],
    engine_kwargs: Dict[str, Any],
):
    from . import create_simulator
    from .sequential import SequentialFaultSimulator

    if engine == SEQUENTIAL_ENGINE:
        return SequentialFaultSimulator(circuit, faults=faults, **engine_kwargs)
    return create_simulator(circuit, engine, faults=faults, **engine_kwargs)


# ----------------------------------------------------------------------
# Worker side.  The backend hands ``(_shard_task, state)`` to each
# worker process once — by fork inheritance under ``fork``, pickled
# under ``spawn`` — so per task only the shard index goes out and the
# shard's report (plus telemetry) comes back.
# ----------------------------------------------------------------------
def _execute_shard(state: Dict[str, Any], index: int):
    """Run one fault shard; returns (index, report, counters, seconds).

    Poisoned faults (chaos harness) raise here, in workers and in the
    parent alike — a *deterministic* failure that retries and the
    in-process fallback cannot heal, so it reaches the caller.
    """
    shard = state["shards"][index]
    chaos: Optional[ChaosConfig] = state.get("chaos")
    if chaos is not None:
        chaos.check_poison_faults(shard)
    start = time.perf_counter()
    with telemetry.capture() as session:
        with telemetry.span(
            "faultsim.shard",
            shard=index,
            engine=state["engine"],
            circuit=state["circuit"].name,
        ):
            simulator = _build_simulator(
                state["circuit"], state["engine"], shard, state["engine_kwargs"]
            )
            report = simulator.run(state["patterns"], **state["run_kwargs"])
    elapsed = time.perf_counter() - start
    return index, report, dict(session.counters), elapsed


def _shard_task(state: Dict[str, Any], index: int, attempt: int):
    """Backend task entry point: chaos injection, then one shard.

    Module-level (not a closure) so the ``spawn`` backend can pickle it
    into fresh-interpreter workers.  Chaos injection is mode-aware:
    ``state["inject"]`` is ``"worker"`` only under isolated (process)
    backends — :meth:`ChaosConfig.inject_worker` may ``os._exit`` the
    process, which must never happen in the caller's own process under
    the inline or thread-lane backends (those get ``"inline"``
    injection, which only raises).
    """
    chaos: Optional[ChaosConfig] = state.get("chaos")
    if chaos is not None:
        inject = state.get("inject")
        site = f"shard:{index}"
        if inject == "worker":
            chaos.inject_worker(site, attempt)
        elif inject == "inline":
            chaos.inject_inline(site, attempt)
    return _execute_shard(state, index)


class ShardedFaultSimulator:
    """Multi-process fault simulation behind the uniform Engine API.

    Construction mirrors ``create_simulator`` plus the parallelism
    knobs: ``workers`` pool slots (default 1 = in-process), ``shards``
    fault shards (default: one per worker), ``backend`` (a
    :mod:`repro.exec` backend name/instance, or ``None`` to
    auto-select fork-then-spawn).  ``engine`` accepts every
    :class:`repro.faultsim.Engine` name and ``"sequential"`` for the
    scan-schedule verifier.

    ``run(patterns)`` returns a report bit-identical to the
    single-process engine's; ``detects``/``detected_faults`` (single
    pattern, latency-bound) always run in-process on a lazily built
    local simulator.  :attr:`stats` accumulates the manifest-ready
    ``workers`` section over every ``run`` call.

    Fault tolerance knobs: ``supervision`` (a
    :class:`~repro.resilience.SupervisionPolicy`: per-shard timeout,
    retry budget, backoff — defaults to bounded retries with no
    timeout) and ``chaos`` (a test-only
    :class:`~repro.resilience.ChaosConfig` injecting worker faults).
    A shard that still fails in its chaos-free in-process run raises.
    """

    def __init__(
        self,
        circuit: Circuit,
        engine: Union[str, Any] = "parallel_pattern",
        faults: Optional[Sequence[Any]] = None,
        collapse: bool = True,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        supervision: Optional[SupervisionPolicy] = None,
        chaos: Optional[ChaosConfig] = None,
        fault_model: Union[str, FaultModel] = FaultModel.STUCK_AT,
        backend: Union[None, str, ExecutorBackend] = None,
        **engine_kwargs: Any,
    ) -> None:
        self.engine = _engine_name(engine)
        model = FaultModel.coerce(fault_model)
        if self.engine == SEQUENTIAL_ENGINE and model is not FaultModel.STUCK_AT:
            # The scan-schedule verifier replays clock-cycle sequences on
            # the sequential netlist; the reduction composites are
            # combinational pattern(-pair) machines, so there is nothing
            # sound it could grade for the other models.
            raise UnsupportedFaultModelError(
                f"the sequential verifier only grades stuck-at faults; "
                f"got fault model {model.value!r}"
            )
        plan = plan_fault_model(circuit, model, faults=faults, collapse=collapse)
        self.fault_model_plan = plan
        self.circuit = plan.circuit
        self.faults = list(plan.faults)
        self.workers = max(1, int(workers or 1))
        self.shard_count = max(1, int(shards if shards is not None else self.workers))
        self.supervision = supervision if supervision is not None else SupervisionPolicy()
        self.chaos = chaos
        self.engine_kwargs = dict(engine_kwargs)
        self.backend_spec = backend
        self._local = None
        self.stats: Dict[str, Any] = {
            "requested": self.workers,
            "effective": 0,
            "mode": "inprocess",
            "backend": None,
            "reason": None,
            "runs": 0,
            "shards": [],
            "fallbacks": [],
            "supervision": {
                "retries": 0,
                "crashes": 0,
                "hangs": 0,
                "exceptions": 0,
                "fallbacks": 0,
            },
        }

    # -- in-process delegate -------------------------------------------
    def _local_simulator(self):
        if self._local is None:
            self._local = _build_simulator(
                self.circuit, self.engine, self.faults, self.engine_kwargs
            )
        return self._local

    def detects(self, pattern: Pattern, fault: Fault) -> bool:
        """Single-pattern probe (ATPG hook); always in-process."""
        return self._local_simulator().detects(pattern, fault)

    def detected_faults(self, pattern: Pattern) -> List[Fault]:
        """All listed faults one pattern detects; always in-process."""
        return self._local_simulator().detected_faults(pattern)

    # -- sharded execution ---------------------------------------------
    def run(self, patterns: Sequence[Pattern], **run_kwargs: Any) -> CoverageReport:
        """Fault-simulate the pattern set across the supervised pool.

        The detected-fault set, first-detection indices, fault order and
        coverage are identical to the single-process engine run for any
        ``workers``/``shards`` combination — including runs where the
        chaos harness crashes, hangs or fails workers, as long as every
        failure is transient (healed by retry or in-process fallback).
        A deterministic failure raises.
        """
        shards = shard_faults(self.faults, self.shard_count)
        backend: Optional[ExecutorBackend] = None
        reason = ""
        if self.workers > 1:
            backend = create_backend(self.backend_spec)
            if not type(backend).available():
                reason, backend = f"{backend.name}_unavailable", None
            elif len(shards) <= 1:
                reason, backend = "single_shard", None
        mode = backend.name if backend is not None else "inprocess"
        if backend is not None:
            # "effective" is pool slots granted; inline has exactly one.
            effective = (
                1 if backend.name == "inline"
                else min(self.workers, len(shards))
            )
            self.stats["backend"] = backend.name
            self.stats["reason"] = None
        else:
            effective = 1
            if self.workers > 1:
                # Degrading to in-process is never silent: counted in
                # telemetry, listed in ``fallbacks``, and surfaced as
                # the manifest workers section's top-level ``reason``.
                self.stats["reason"] = reason
                self._record_fallback(reason)
        with telemetry.span(
            "faultsim.sharded.run",
            engine=self.engine,
            circuit=self.circuit.name,
            workers=effective,
            shards=len(shards),
            mode=mode,
        ):
            if not shards or (len(shards) == 1 and self.workers <= 1):
                # Pure single-process path (an empty fault list included:
                # its report must equal the single-process run's).
                report = self._local_simulator().run(patterns, **run_kwargs)
                self._record_run(mode, 1, [])
                return report
            state = {
                "circuit": self.circuit,
                "engine": self.engine,
                "patterns": list(patterns),
                "shards": shards,
                "engine_kwargs": self.engine_kwargs,
                "run_kwargs": dict(run_kwargs),
                "chaos": self.chaos,
            }
            pooled = (
                self._map_shards(state, effective, backend)
                if backend is not None else {}
            )
            shard_rows: List[Dict[str, Any]] = []
            reports: List[CoverageReport] = []
            for index, shard in enumerate(shards):
                result = pooled.get(index)
                if result is None:
                    if backend is not None:
                        # The shard exhausted its worker retries.  Worker
                        # chaos cannot follow it here, so the result is
                        # the fault-free one; a failure now is
                        # deterministic and raises.
                        telemetry.incr("resilience.fallback_inprocess")
                        self._record_fallback("supervision", shard=index)
                    # In this process, shard telemetry tees straight
                    # into the active sink: nothing to replay.
                    result = _execute_shard(state, index)
                elif backend.replays_counters:
                    # Telemetry fold-back contract: counters captured
                    # outside this capture context (another process or
                    # thread) only exist in the returned dict — replay
                    # them here.  The inline backend's tasks tee
                    # directly into our sink, so replaying there would
                    # double-count.
                    for name, value in result[2].items():
                        telemetry.incr(name, value)
                _, report, counters, elapsed = result
                shard_rows.append(
                    {"shard": index, "faults": len(shard),
                     "duration_s": elapsed, "counters": counters}
                )
                reports.append(report)
            self._record_run(mode, effective, shard_rows)
            return merge_reports(reports, axis="faults")

    def _map_shards(
        self, state: Dict[str, Any], effective: int, backend: ExecutorBackend
    ) -> Dict[int, Any]:
        """One supervised backend map over every shard; pooled results."""
        if self.chaos is not None:
            # Worker-kind injection may os._exit the process: only safe
            # when the backend isolates tasks in child processes.
            state["inject"] = "worker" if backend.isolated else "inline"
        outcome = backend.map(
            _shard_task,
            state,
            range(len(state["shards"])),
            workers=effective,
            policy=self.supervision,
        )
        sup = self.stats["supervision"]
        sup["retries"] += outcome.retries
        kind_keys = {"crash": "crashes", "hang": "hangs",
                     "exception": "exceptions"}
        for event in outcome.events:
            key = kind_keys.get(event["kind"])
            if key:
                sup[key] += 1
        return outcome.results

    def _record_fallback(self, reason: str, shard: Optional[int] = None) -> None:
        """Count and remember one in-process fallback (never silent)."""
        telemetry.incr("faultsim.sharded.fallback")
        self.stats["fallbacks"].append({"reason": reason, "shard": shard})
        if reason == "supervision":
            self.stats["supervision"]["fallbacks"] += 1

    def _record_run(
        self, mode: str, effective: int, shard_rows: List[Dict[str, Any]]
    ) -> None:
        """Fold one run's per-shard stats into the manifest section."""
        stats = self.stats
        stats["runs"] += 1
        stats["mode"] = mode
        stats["effective"] = max(stats["effective"], effective)
        by_shard = {row["shard"]: row for row in stats["shards"]}
        for row in shard_rows:
            existing = by_shard.get(row["shard"])
            if existing is None:
                stats["shards"].append(
                    {
                        "shard": row["shard"],
                        "faults": row["faults"],
                        "duration_s": row["duration_s"],
                        "counters": dict(row["counters"]),
                    }
                )
                by_shard[row["shard"]] = stats["shards"][-1]
            else:
                existing["duration_s"] += row["duration_s"]
                for name, value in row["counters"].items():
                    existing["counters"][name] = (
                        existing["counters"].get(name, 0) + value
                    )

    def workers_section(self) -> Dict[str, Any]:
        """JSON-safe copy of the accumulated manifest ``workers`` section."""
        return {
            "requested": self.stats["requested"],
            "effective": self.stats["effective"],
            "mode": self.stats["mode"],
            "backend": self.stats["backend"],
            "reason": self.stats["reason"],
            "runs": self.stats["runs"],
            "fallbacks": [dict(row) for row in self.stats["fallbacks"]],
            "supervision": dict(self.stats["supervision"]),
            "shards": [
                {
                    "shard": row["shard"],
                    "faults": row["faults"],
                    "duration_s": row["duration_s"],
                    "counters": dict(row["counters"]),
                }
                for row in self.stats["shards"]
            ],
        }


def sharded_coverage(
    circuit: Circuit,
    patterns: Sequence[Pattern],
    engine: Union[str, Any] = "parallel_pattern",
    faults: Optional[Sequence[Any]] = None,
    collapse: bool = True,
    workers: int = 1,
    shards: Optional[int] = None,
    supervision: Optional[SupervisionPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
    fault_model: Union[str, FaultModel] = FaultModel.STUCK_AT,
    backend: Union[None, str, ExecutorBackend] = None,
    **engine_kwargs: Any,
) -> CoverageReport:
    """One-call sharded fault simulation (mirrors ``engine_coverage``)."""
    simulator = ShardedFaultSimulator(
        circuit,
        engine,
        faults=faults,
        collapse=collapse,
        workers=workers,
        shards=shards,
        supervision=supervision,
        chaos=chaos,
        fault_model=fault_model,
        backend=backend,
        **engine_kwargs,
    )
    return simulator.run(patterns)
