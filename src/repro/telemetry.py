"""Lightweight, dependency-free instrumentation: counters, timers, spans.

The paper's whole argument is quantitative — coverage vs. pattern count,
backtrack effort, test-data volume, cost curves — so the hot paths of
this repo (ATPG, the fault-simulation engines, the exhaustive BIST
analyzers) report what they did through this module instead of ad-hoc
prints and scattered return values.

Three primitives:

* :func:`incr` — named counters, folded into the innermost open span
  (or emitted as standalone events at top level);
* :func:`span` — nested, timed tracing regions; each span records its
  own duration and the counters incremented while it was innermost;
* sinks — where finished events go.  The default is a no-op
  :class:`NullSink`, so instrumentation is zero-cost-ish when nobody is
  listening: every entry point checks one module-level flag and returns
  immediately.  :class:`InMemorySink` aggregates in process;
  :class:`JsonlSink` streams JSON lines for offline analysis.

On top of the event stream sits the :class:`RunManifest`: a
deterministic, JSON-serializable record of one tool run (seed, engine,
method, limits, per-phase stats, final coverage).  ``generate_tests``
attaches one to every :class:`~repro.atpg.api.TestGenerationResult`;
the benchmarks consume the same manifests so perf numbers and
correctness stats come from a single source of truth.

Typical use::

    from repro import telemetry

    sink = telemetry.enable()              # InMemorySink by default
    ... run a flow ...
    print(sink.counters["atpg.backtracks"])
    telemetry.disable()

Scoped collection (what ``generate_tests`` does internally)::

    with telemetry.capture() as session:
        ... instrumented work ...
    session.phase_stats("atpg.phase.")     # per-phase rows for a manifest
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterator, List, Optional, Sequence, Union

__all__ = [
    "NullSink",
    "InMemorySink",
    "JsonlSink",
    "TeeSink",
    "enable",
    "disable",
    "reset_in_child",
    "is_enabled",
    "current_sink",
    "span",
    "incr",
    "timed",
    "capture",
    "read_jsonl",
    "RunManifest",
    "validate_manifest",
    "MANIFEST_SCHEMA",
    "REQUIRED_MANIFEST_KEYS",
]


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class NullSink:
    """Discards every event (the default: telemetry disabled)."""

    def emit(self, event: Dict[str, Any]) -> None:
        """Drop the event."""


class InMemorySink:
    """Collects events in a list and aggregates counters as they arrive.

    ``events`` is the raw ordered stream; ``counters`` sums every
    counter across all span and standalone-counter events, so totals
    are available without a second pass.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = {}

    def emit(self, event: Dict[str, Any]) -> None:
        """Record one event and fold its counters into the aggregate."""
        self.events.append(event)
        if event.get("event") == "span":
            for name, value in event.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
        elif event.get("event") == "counter":
            name = event["name"]
            self.counters[name] = self.counters.get(name, 0) + event["value"]

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Finished span events, optionally filtered by exact name."""
        return [
            e
            for e in self.events
            if e.get("event") == "span" and (name is None or e["name"] == name)
        ]

    def phase_stats(self, prefix: str) -> List[Dict[str, Any]]:
        """Manifest-ready rows for spans whose name starts with ``prefix``.

        Each row is ``{"name", "duration_s", "counters"}`` with the
        prefix stripped, in span-completion order.
        """
        return [
            {
                "name": e["name"][len(prefix):],
                "duration_s": e["duration_s"],
                "counters": dict(e.get("counters", {})),
            }
            for e in self.events
            if e.get("event") == "span" and e["name"].startswith(prefix)
        ]

    def clear(self) -> None:
        """Forget everything collected so far."""
        self.events.clear()
        self.counters.clear()


class JsonlSink:
    """Streams every event as one JSON line to a file path or stream."""

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._stream: IO[str] = open(target, "a", encoding="utf-8")
            self._owns = True
        else:
            self._stream = target
            self._owns = False

    def emit(self, event: Dict[str, Any]) -> None:
        """Write one event as a JSON line."""
        self._stream.write(json.dumps(event, sort_keys=True, default=str))
        self._stream.write("\n")

    def close(self) -> None:
        """Flush and (for path targets) close the underlying stream."""
        self._stream.flush()
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class TeeSink:
    """Fans every event out to several sinks."""

    def __init__(self, *sinks: Any) -> None:
        self.sinks = sinks

    def emit(self, event: Dict[str, Any]) -> None:
        """Forward the event to every child sink."""
        for sink in self.sinks:
            sink.emit(event)


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a :class:`JsonlSink` file back into event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ----------------------------------------------------------------------
# Module state: a process-global base (flag + sink) set by
# enable()/disable(), a contextvar overlay set by capture(), and a
# per-thread span stack.
#
# The overlay is what makes capture() re-entrant: each thread (or asyncio
# task) that enters capture() installs its own (enabled, sink) pair in
# its execution context, so concurrent captures never see each other's
# sinks.  Threads that never call capture() fall through to the base, so
# enable() keeps its historical process-wide meaning.
# ----------------------------------------------------------------------
_NULL_SINK = NullSink()
_enabled = False
_sink: Any = _NULL_SINK
_local = threading.local()

# (enabled, sink) while inside capture(); None means "use the base".
_capture_state: contextvars.ContextVar = contextvars.ContextVar(
    "repro_telemetry_capture", default=None
)


def _active() -> "tuple[bool, Any]":
    """The (enabled, sink) pair in effect for the current context."""
    state = _capture_state.get()
    if state is not None:
        return state
    return _enabled, _sink


def _stack() -> List["_Span"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def enable(sink: Optional[Any] = None) -> Any:
    """Turn telemetry on, routing events to ``sink``.

    Returns the active sink (a fresh :class:`InMemorySink` when none is
    given) so callers can read it back afterwards.
    """
    global _enabled, _sink
    _sink = sink if sink is not None else InMemorySink()
    _enabled = True
    return _sink


def disable() -> None:
    """Turn telemetry off; subsequent spans/counters cost one flag check."""
    global _enabled, _sink
    _enabled = False
    _sink = _NULL_SINK


def reset_in_child() -> None:
    """Reinitialize telemetry state after a ``fork()``.

    A forked worker inherits the parent's enabled flag, sink (possibly
    an open file stream), capture overlay, and per-thread span stack.
    Sharded execution calls this first thing in every worker so child
    events can never interleave into the parent's sink and counters can
    never fold into inherited (never-to-be-emitted) parent spans.
    """
    disable()
    _capture_state.set(None)
    _local.stack = []


def is_enabled() -> bool:
    """Is any sink currently listening (in this context)?"""
    return _active()[0]


def current_sink() -> Any:
    """The sink events are being routed to (NullSink when disabled)."""
    return _active()[1]


# ----------------------------------------------------------------------
# Spans and counters
# ----------------------------------------------------------------------
class _Span:
    """An open tracing region; emitted to the sink when it closes."""

    __slots__ = ("name", "attrs", "parent", "depth", "counters", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.parent: Optional[str] = None
        self.depth = 0
        self.counters: Dict[str, int] = {}
        self._start = 0.0

    def __enter__(self) -> "_Span":
        stack = _stack()
        if stack:
            self.parent = stack[-1].name
            self.depth = stack[-1].depth + 1
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        duration = time.perf_counter() - self._start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        event = {
            "event": "span",
            "name": self.name,
            "parent": self.parent,
            "depth": self.depth,
            "duration_s": duration,
            "counters": dict(self.counters),
        }
        if self.attrs:
            event["attrs"] = self.attrs
        _active()[1].emit(event)


class _NullSpan:
    """Reusable no-op context manager returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any) -> Any:
    """A timed, nested tracing region (context manager).

    Counters incremented while this span is innermost are recorded on
    it; the finished span is emitted to the active sink.  While
    telemetry is disabled this returns a shared no-op object.
    """
    if not _active()[0]:
        return _NULL_SPAN
    return _Span(name, attrs)


def incr(name: str, value: int = 1) -> None:
    """Add ``value`` to counter ``name``.

    Folded into the innermost open span, or emitted as a standalone
    counter event when no span is open.  No-op while disabled.
    """
    enabled, sink = _active()
    if not enabled:
        return
    stack = getattr(_local, "stack", None)
    if stack:
        counters = stack[-1].counters
        counters[name] = counters.get(name, 0) + value
    else:
        sink.emit({"event": "counter", "name": name, "value": value})


@contextmanager
def timed(name: str, **attrs: Any) -> Iterator[None]:
    """Decorator-friendly alias for :func:`span` as a plain generator CM."""
    with span(name, **attrs):
        yield


@contextmanager
def capture() -> Iterator[InMemorySink]:
    """Force-enable telemetry into a fresh scoped :class:`InMemorySink`.

    If telemetry was already enabled (in this context) the previous sink
    keeps receiving every event (tee), so a user-installed JSONL stream
    sees the same traffic.  On exit the previous enabled/sink state is
    restored.  This is how flows that always emit a run manifest
    (``generate_tests``) collect their stats without requiring the
    caller to opt in.

    Re-entrant across threads and asyncio tasks: the capture state lives
    in a :class:`contextvars.ContextVar`, so two threads capturing
    concurrently each get a private session and never interleave
    counters.  Note that a *new* thread starts from the process-global
    base set by :func:`enable`, not from the spawning thread's capture
    — a backend running work in another thread must fold the returned
    counters back itself (see :mod:`repro.exec`).
    """
    session = InMemorySink()
    prev_enabled, prev_sink = _active()
    sink = TeeSink(session, prev_sink) if prev_enabled else session
    token = _capture_state.set((True, sink))
    try:
        yield session
    finally:
        _capture_state.reset(token)


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
MANIFEST_SCHEMA = "repro.run-manifest/1"

REQUIRED_MANIFEST_KEYS = (
    "schema",
    "flow",
    "circuit",
    "seed",
    "engine",
    "method",
    "limits",
    "phases",
    "counters",
    "stats",
)

_REQUIRED_PHASE_KEYS = ("name", "duration_s", "counters")

# Optional ``workers`` section (sharded multi-process execution).
# ``backend`` names the repro.exec backend that ran the pool (None when
# the run stayed in-process); ``reason`` explains an in-process
# degradation despite requested > 1 (e.g. "fork_unavailable",
# "single_shard") and is None when no degradation happened.
_REQUIRED_WORKERS_KEYS = (
    "requested", "effective", "mode", "backend", "reason", "shards"
)

_REQUIRED_SHARD_KEYS = ("shard", "faults", "duration_s", "counters")

# Optional ``failures`` section (resilience layer): one row per campaign
# cell that failed permanently and was quarantined instead of aborting
# the run (see repro.resilience.FailureRecord).
_REQUIRED_FAILURE_KEYS = ("site", "error", "digest", "attempts", "action")

# Optional ``fault_model`` section (see repro.faults.FaultModelPlan):
# which model the run graded and, for reduced models, the shape of the
# composite-circuit reduction it ran on.
_REQUIRED_FAULT_MODEL_KEYS = ("model", "faults", "reduction")

# Optional ``service`` section (see repro.service.CampaignService): one
# daemon lifetime's traffic — jobs and cells served, how submissions
# deduped (hits / shared in-flight executions / cold misses), tenant
# accounting, the store's lifecycle counters at shutdown, and the
# crash-safety story (jobs recovered from the journal, resumes served,
# retries spent, journal health).
_REQUIRED_SERVICE_KEYS = (
    "jobs", "cells", "dedupe", "tenants", "store", "recovery"
)


@dataclass
class RunManifest:
    """Deterministic, JSON-serializable record of one instrumented run.

    ``phases`` rows are ``{"name", "duration_s", "counters"}`` in
    execution order; ``counters`` aggregates every counter observed
    during the run; ``stats`` holds the flow's headline numbers
    (coverage, pattern counts, backtracks, ...).  Everything except the
    ``duration_s`` timings is reproducible from the seed.

    ``workers`` is the optional sharded-execution section (present when
    a flow ran fault simulation through
    :class:`repro.faultsim.sharded.ShardedFaultSimulator`):
    ``{"requested", "effective", "mode", "runs", "shards"}`` where each
    shard row is ``{"shard", "faults", "duration_s", "counters"}``
    aggregated over every sharded run of the flow.

    ``failures`` is the optional resilience section: one row per
    campaign cell that failed *permanently* and was quarantined under
    :class:`repro.resilience.FailurePolicy` ``quarantine`` instead of
    aborting the run (a fault shard that fails deterministically
    raises, so flow manifests never carry it).  Each row carries
    ``{"site", "error", "digest", "attempts", "action"}`` (plus
    free-form ``message``/``detail``); a validated manifest without
    this section is a run in which nothing was lost.

    ``fault_model`` is the optional fault-model section (present when a
    flow resolved its fault universe through
    :func:`repro.faults.plan_fault_model`): ``{"model", "faults",
    "reduction"}`` where ``reduction`` is ``None`` for plain stuck-at
    and otherwise records the composite-circuit rewrite the run graded
    on (gate counts, two-pattern flag, per-model universe details).

    ``service`` is the optional daemon section (written by
    :class:`repro.service.CampaignService` at shutdown): ``{"jobs",
    "cells", "dedupe", "tenants", "store"}`` summarizing one service
    lifetime — how much traffic arrived, how much of it collapsed onto
    shared executions, and where the store's lifecycle counters ended.
    """

    flow: str
    circuit: str
    seed: int
    engine: str
    method: str
    limits: Dict[str, Any] = field(default_factory=dict)
    phases: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    workers: Optional[Dict[str, Any]] = None
    failures: Optional[List[Dict[str, Any]]] = None
    fault_model: Optional[Dict[str, Any]] = None
    service: Optional[Dict[str, Any]] = None
    schema: str = MANIFEST_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (already JSON-safe)."""
        data = {
            "schema": self.schema,
            "flow": self.flow,
            "circuit": self.circuit,
            "seed": self.seed,
            "engine": self.engine,
            "method": self.method,
            "limits": dict(self.limits),
            "phases": [dict(p) for p in self.phases],
            "counters": dict(self.counters),
            "stats": dict(self.stats),
        }
        if self.workers is not None:
            data["workers"] = dict(self.workers)
        if self.failures is not None:
            data["failures"] = [dict(row) for row in self.failures]
        if self.fault_model is not None:
            data["fault_model"] = dict(self.fault_model)
        if self.service is not None:
            data["service"] = dict(self.service)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to JSON (raises if any value is not JSON-safe)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict`/:meth:`to_json` output."""
        return cls(
            flow=data["flow"],
            circuit=data["circuit"],
            seed=data["seed"],
            engine=data["engine"],
            method=data["method"],
            limits=dict(data.get("limits", {})),
            phases=[dict(p) for p in data.get("phases", [])],
            counters=dict(data.get("counters", {})),
            stats=dict(data.get("stats", {})),
            workers=(
                dict(data["workers"]) if data.get("workers") is not None else None
            ),
            failures=(
                [dict(row) for row in data["failures"]]
                if data.get("failures") is not None
                else None
            ),
            fault_model=(
                dict(data["fault_model"])
                if data.get("fault_model") is not None
                else None
            ),
            service=(
                dict(data["service"]) if data.get("service") is not None else None
            ),
            schema=data.get("schema", MANIFEST_SCHEMA),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Parse a manifest previously produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def phase(self, name: str) -> Optional[Dict[str, Any]]:
        """The first phase row with this name, or None."""
        for row in self.phases:
            if row.get("name") == name:
                return row
        return None

    def validate(self) -> "RunManifest":
        """Check the schema: required keys, phase rows, JSON-safety.

        Returns self so it chains; raises ValueError on any violation.
        """
        validate_manifest(self.to_dict())
        return self


def validate_manifest(data: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a raw manifest dict against the schema.

    Checks required top-level keys, the schema tag, the per-phase row
    keys, and JSON-serializability; raises ValueError on any violation
    and returns the dict unchanged otherwise.  This is what the CI
    quickstart gate runs against the JSON a flow dumped.
    """
    missing = [k for k in REQUIRED_MANIFEST_KEYS if k not in data]
    if missing:
        raise ValueError(f"manifest missing required keys: {missing}")
    if data["schema"] != MANIFEST_SCHEMA:
        raise ValueError(
            f"unknown manifest schema {data['schema']!r} "
            f"(expected {MANIFEST_SCHEMA!r})"
        )
    for row in data["phases"]:
        absent = [k for k in _REQUIRED_PHASE_KEYS if k not in row]
        if absent:
            raise ValueError(
                f"manifest phase {row.get('name')!r} missing keys: {absent}"
            )
    workers = data.get("workers")
    if workers is not None:
        absent = [k for k in _REQUIRED_WORKERS_KEYS if k not in workers]
        if absent:
            raise ValueError(f"manifest workers section missing keys: {absent}")
        for row in workers["shards"]:
            missing_keys = [k for k in _REQUIRED_SHARD_KEYS if k not in row]
            if missing_keys:
                raise ValueError(
                    f"manifest shard row {row.get('shard')!r} missing keys: "
                    f"{missing_keys}"
                )
    fault_model = data.get("fault_model")
    if fault_model is not None:
        if not isinstance(fault_model, dict):
            raise ValueError(
                f"manifest fault_model section must be an object, got "
                f"{type(fault_model).__name__}"
            )
        absent = [k for k in _REQUIRED_FAULT_MODEL_KEYS if k not in fault_model]
        if absent:
            raise ValueError(
                f"manifest fault_model section missing keys: {absent}"
            )
    service = data.get("service")
    if service is not None:
        if not isinstance(service, dict):
            raise ValueError(
                f"manifest service section must be an object, got "
                f"{type(service).__name__}"
            )
        absent = [k for k in _REQUIRED_SERVICE_KEYS if k not in service]
        if absent:
            raise ValueError(f"manifest service section missing keys: {absent}")
        dedupe = service["dedupe"]
        if not isinstance(dedupe, dict) or not {
            "hits", "misses", "shared"
        } <= set(dedupe):
            raise ValueError(
                "manifest service dedupe must carry hits/misses/shared, "
                f"got {dedupe!r}"
            )
    failures = data.get("failures")
    if failures is not None:
        if not isinstance(failures, list):
            raise ValueError(
                f"manifest failures section must be a list, got "
                f"{type(failures).__name__}"
            )
        for row in failures:
            if not isinstance(row, dict):
                raise ValueError("manifest failure rows must be objects")
            missing_keys = [k for k in _REQUIRED_FAILURE_KEYS if k not in row]
            if missing_keys:
                raise ValueError(
                    f"manifest failure row {row.get('site')!r} missing keys: "
                    f"{missing_keys}"
                )
    try:
        json.dumps(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest is not JSON-serializable: {exc}") from exc
    return data
