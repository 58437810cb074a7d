"""In-memory span tracer and the pass-through wrappers it installs.

The benchmark's traced runs time calls into each module's public
functions from the benchmark's own files: :meth:`Tracer.wrap` replaces
a function or method with a wrapper that records one span (name, start,
end, parent span, trace id) around the original call and changes
nothing else.  Spans stay in memory until the run ends.  Self time is a
span's duration minus the time its child spans cover; spans nest per
thread, so children never overlap each other.

:func:`install_inprocess` wraps the layers the in-process workloads go
through (ATPG, fault planning, fault simulation, the simulation core,
scan, execution backends, netlist construction);
:func:`install_service` adds the daemon-side layers (campaign keying
and execution, store, protocol, journal, scheduler).  The daemon
launcher (``daemon.py``) installs both.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from typing import Any, Callable, List, Optional

# A span is [name, start, end, parent, trace, attrs].
NAME, START, END, PARENT, TRACE, ATTRS = range(6)


class Tracer:
    """Span recorder shared by every wrapper it installs."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Trace id stamped on spans opened with no explicit one (the
        #: op index in-process; None outside any op).
        self.trace_id: Any = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace: Any = None, attrs: Any = None) -> int:
        """Open a span on this thread; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = self.spans[parent][TRACE] if parent is not None else self.trace_id
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0, parent, trace, attrs])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the innermost span (``index``) on this thread."""
        self.spans[index][END] = perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def add_span(self, name: str, start: float, end: float, parent: int,
                 attrs: Any = None) -> None:
        """Record a finished span measured elsewhere (a worker process)."""
        with self._lock:
            self.spans.append(
                [name, start, end, parent, self.spans[parent][TRACE], attrs]
            )

    # -- wrappers --------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        trace: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
        attrs: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording pass-through.

        ``trace(args, kwargs)`` picks the span's trace id, ``attrs``
        its attributes, and ``after(index, args, kwargs, result)`` runs
        once the span is closed (outside its timing).
        """
        original = vars(owner)[attr]
        bind = classmethod if isinstance(original, classmethod) else None
        func = original.__func__ if bind is not None else original
        begin, end = self.begin, self.end

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = begin(
                name,
                trace(args, kwargs) if trace is not None else None,
                attrs(args, kwargs) if attrs is not None else None,
            )
            try:
                result = func(*args, **kwargs)
            finally:
                end(index)
            if after is not None:
                after(index, args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, func)
        setattr(owner, attr, bind(wrapper) if bind is not None else wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus its children's durations."""
    selfs = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            selfs[span[PARENT]] -= span[END] - span[START]
    return selfs


def install_inprocess(tracer: Tracer) -> None:
    """Wrap the layers ``testgen`` and ``grade`` (and served cells) use."""
    import repro.atpg.api as atpg_api
    import repro.campaign.spec as campaign_spec
    import repro.circuits.iscas as iscas
    import repro.exec.backends as backends
    import repro.faultsim as faultsim
    import repro.faultsim.sharded as sharded
    import repro.faultsim.wide as faultsim_wide
    import repro.scan.flow as scan_flow
    import repro.sim.compiled as compiled
    import repro.sim.packed as packed
    import repro.sim.wide as sim_wide
    from repro.atpg.podem import PodemGenerator

    def podem_after(index, args, kwargs, result):
        tracer.spans[index][ATTRS] = (
            result.decisions, result.backtracks, result.pattern is not None
        )

    tracer.wrap(PodemGenerator, "generate", "atpg.podem", after=podem_after)
    tracer.wrap(atpg_api, "merge_cubes", "atpg.compaction")
    tracer.wrap(atpg_api, "fill_cubes", "atpg.compaction")
    tracer.wrap(atpg_api, "random_patterns", "atpg.random_patterns")
    tracer.wrap(PodemGenerator, "__init__", "atpg.podem_setup")
    tracer.wrap(scan_flow, "generate_tests", "atpg.flow")
    for module in (atpg_api, faultsim):
        tracer.wrap(module, "plan_fault_model", "faults.plan")
    tracer.wrap(scan_flow, "collapse_faults", "faults.plan")
    tracer.wrap(faultsim, "create_simulator", "faultsim.create")
    engine_names = {
        faultsim.FaultSimulator: "parallel_pattern",
        faultsim.WideFaultSimulator: "wide",
        faultsim.DeductiveFaultSimulator: "deductive",
        faultsim.SequentialFaultSimulator: "sequential",
    }
    for cls, engine in engine_names.items():
        for method in ("run", "detects", "detected_faults"):
            if method in vars(cls):
                tracer.wrap(cls, method, f"faultsim.{method}",
                            attrs=lambda a, k, e=engine: e)
        tracer.wrap(cls, "__init__", "faultsim.construct",
                    attrs=lambda a, k, e=engine: e)
    tracer.wrap(sharded.ShardedFaultSimulator, "run", "faultsim.sharded")
    tracer.wrap(sharded.ShardedFaultSimulator, "__init__", "faultsim.sharded")
    tracer.wrap(packed.PackedSimulator, "injector", "sim.good")
    # Every module that imported compile_circuit by name holds its own
    # reference to it.
    for module in (compiled, packed, faultsim_wide, sim_wide):
        tracer.wrap(module, "compile_circuit", "sim.compile")
    tracer.wrap(packed.PackedPatternSet, "from_patterns", "sim.pack")
    tracer.wrap(sim_wide.WideInjector, "__init__", "sim.good")
    tracer.wrap(sim_wide.WideInjector, "grade", "sim.wide.grade")
    tracer.wrap(scan_flow, "insert_scan", "scan.insert")
    tracer.wrap(scan_flow, "schedule_scan_tests", "scan.schedule")

    def map_after(index, args, kwargs, result):
        # Pooled shards return (shard, report, counters, elapsed): the
        # slowest shard becomes a child span, so the map's self time is
        # dispatch (fork, pickling, result pipes) alone.
        elapsed = [
            value[3] for value in result.results.values()
            if isinstance(value, tuple) and len(value) == 4
        ]
        span = tracer.spans[index]
        span[ATTRS] = (
            elapsed, getattr(result, "retries", 0), len(result.failed)
        )
        if elapsed:
            engine = args[2].get("engine", "?") if isinstance(args[2], dict) else "?"
            engine = str(getattr(engine, "value", engine))
            tracer.add_span("exec.worker", span[START], span[START] + max(elapsed),
                            index, attrs=engine)

    for cls in (backends.InlineBackend, backends.ForkBackend,
                backends.SpawnBackend, backends.ThreadLaneBackend):
        tracer.wrap(cls, "map", "exec.map", after=map_after)
    tracer.wrap(iscas, "iscas85_like", "netlist.build")
    tracer.wrap(campaign_spec, "build_workload", "netlist.build")


def install_service(tracer: Tracer) -> None:
    """Wrap the daemon-side layers of ``repro serve``."""
    import repro.campaign.runner as runner
    import repro.netlist.hashing as hashing
    import repro.service.server as server
    from repro.campaign.spec import CampaignSpec
    from repro.service.journal import JobJournal
    from repro.service.scheduler import FairShareScheduler
    from repro.store import ResultStore

    def key_arg(args, kwargs):
        return kwargs.get("key", args[1] if len(args) > 1 else None)

    def get_after(index, args, kwargs, result):
        span = tracer.spans[index]
        size = 0
        if result is not None:
            try:
                size = args[0].path_for(args[1]).stat().st_size
            except OSError:
                pass
        span[ATTRS] = (result is not None, size)

    def put_after(index, args, kwargs, result):
        try:
            tracer.spans[index][ATTRS] = result.stat().st_size
        except OSError:
            tracer.spans[index][ATTRS] = 0

    tracer.wrap(ResultStore, "get", "store.get", trace=key_arg, after=get_after)
    tracer.wrap(ResultStore, "put", "store.put", trace=key_arg, after=put_after)
    tracer.wrap(server, "execute_cell", "campaign.execute",
                trace=lambda a, k: k.get("key"))
    tracer.wrap(server, "encode_cell_result", "campaign.encode",
                trace=lambda a, k: a[0].key)

    def key_after(index, args, kwargs, result):
        tracer.spans[index][TRACE] = result

    tracer.wrap(server, "cell_cache_key", "campaign.cache_key", after=key_after)
    tracer.wrap(CampaignSpec, "expand", "campaign.expand")
    tracer.wrap(runner, "build_workload", "netlist.build")
    tracer.wrap(hashing, "structural_hash", "netlist.hash")

    def encode_after(index, args, kwargs, result):
        tracer.spans[index][ATTRS] = (args[0].get("event"), len(result))

    tracer.wrap(server, "encode_line", "service.protocol.encode",
                trace=lambda a, k: a[0].get("key") or a[0].get("job_id"),
                after=encode_after)
    tracer.wrap(server, "decode_line", "service.protocol.decode")
    tracer.wrap(JobJournal, "record_accepted", "service.journal.append",
                trace=lambda a, k: a[1])
    tracer.wrap(JobJournal, "record_done", "service.journal.append",
                trace=lambda a, k: a[1])

    def push_after(index, args, kwargs, result):
        tracer.spans[index][ATTRS] = args[0].queued()

    def pop_after(index, args, kwargs, result):
        if result is not None:
            tracer.spans[index][TRACE] = result.item[0]

    def charge_after(index, args, kwargs, result):
        tracer.spans[index][ATTRS] = float(args[2])

    tracer.wrap(FairShareScheduler, "push", "service.scheduler.push",
                trace=lambda a, k: a[3][0], after=push_after)
    tracer.wrap(FairShareScheduler, "pop", "service.scheduler.pop",
                after=pop_after)
    tracer.wrap(FairShareScheduler, "charge", "service.scheduler.charge",
                after=charge_after)
