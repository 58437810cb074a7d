"""Per-layer attribution of a traced run: the metrics and the table.

Every workload reports every per-layer metric (``BENCHMARK.json`` lists
them), so the machine-readable set holds only counts and fractions:
a layer a workload bypasses reads a true 0.  Absolute self times, waits
and percentiles go in the rendered table.  Shares are self time over
op wall: the summed wall of the timed ops in-process, the load's wall
for ``serve``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from harness import Metric, Result, median, percentile
from tracing import ATTRS, END, NAME, START, TRACE, self_times

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("atpg.podem.calls", "count", "lower"),
    ("atpg.podem.share", "fraction", "lower"),
    ("atpg.podem.decisions", "count", "lower"),
    ("atpg.podem.backtracks", "count", "lower"),
    ("atpg.podem.found_ratio", "fraction", "higher"),
    ("atpg.aborts", "count", "lower"),
    ("atpg.redundant", "count", "lower"),
    ("atpg.phase.random_share", "fraction", "lower"),
    ("atpg.phase.deterministic_share", "fraction", "lower"),
    ("atpg.phase.compaction_share", "fraction", "lower"),
    ("atpg.phase.repair_share", "fraction", "lower"),
    ("atpg.random.kept_ratio", "fraction", "higher"),
    ("atpg.compaction.cubes_in", "count", "lower"),
    ("atpg.compaction.cubes_out", "count", "lower"),
    ("atpg.repair.rounds", "count", "lower"),
    ("faults.plan.share", "fraction", "lower"),
    ("faults.collapse_ratio", "fraction", "lower"),
    ("faultsim.create.share", "fraction", "lower"),
    ("faultsim.run.calls", "count", "lower"),
    ("faultsim.run.share", "fraction", "lower"),
    ("faultsim.detects.calls", "count", "lower"),
    ("faultsim.detects.share", "fraction", "lower"),
    ("faultsim.detected_faults.share", "fraction", "lower"),
    ("faultsim.parallel_pattern.share", "fraction", "lower"),
    ("faultsim.wide.share", "fraction", "lower"),
    ("faultsim.sequential.share", "fraction", "lower"),
    ("faultsim.patterns_simulated", "count", "lower"),
    ("sim.share", "fraction", "lower"),
    ("sim.compiled.compiles", "count", "lower"),
    ("sim.compiled.cache_hit_ratio", "fraction", "higher"),
    ("sim.wide.batches", "count", "lower"),
    ("sim.wide.lanes", "count", "lower"),
    ("sim.wide.activation_skip_ratio", "fraction", "higher"),
    ("sim.wide.union_cache_hit_ratio", "fraction", "higher"),
    ("scan.core_atpg_share", "fraction", "lower"),
    ("scan.schedule_share", "fraction", "lower"),
    ("scan.verify_share", "fraction", "lower"),
    ("faultsim.sequential.faults", "count", "lower"),
    ("exec.map.calls", "count", "lower"),
    ("exec.map.share", "fraction", "lower"),
    ("exec.dispatch_share", "fraction", "lower"),
    ("exec.shard.imbalance", "ratio", "lower"),
    ("exec.retries", "count", "lower"),
    ("exec.fallbacks", "count", "lower"),
    ("netlist.share", "fraction", "lower"),
    ("netlist.hash.calls", "count", "lower"),
    ("campaign.expand.share", "fraction", "lower"),
    ("campaign.cache_key.share", "fraction", "lower"),
    ("campaign.execute.share", "fraction", "lower"),
    ("campaign.encode.share", "fraction", "lower"),
    ("store.get.calls", "count", "lower"),
    ("store.get.hit_ratio", "fraction", "higher"),
    ("store.get.share", "fraction", "lower"),
    ("store.put.calls", "count", "lower"),
    ("store.put.share", "fraction", "lower"),
    ("store.quarantined", "count", "lower"),
    ("service.protocol.share", "fraction", "lower"),
    ("service.journal.append.calls", "count", "lower"),
    ("service.journal.share", "fraction", "lower"),
    ("service.scheduler.warm_wait_frac", "fraction", "lower"),
    ("service.scheduler.cold_wait_frac", "fraction", "lower"),
    ("service.scheduler.depth_max", "count", "lower"),
    ("service.lane.busy_frac", "fraction", "higher"),
    ("service.dedupe.hits", "count", "higher"),
    ("service.dedupe.misses", "count", "lower"),
    ("service.dedupe.shared", "count", "higher"),
    ("service.retries", "count", "lower"),
    ("service.failed", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
]

#: Span name -> layer, for the table's first column.
LAYER_OF = {
    "atpg.podem": "atpg", "atpg.podem_setup": "atpg", "atpg.compaction": "atpg",
    "atpg.random_patterns": "atpg", "atpg.flow": "atpg",
    "faults.plan": "faults",
    "faultsim.create": "faultsim", "faultsim.construct": "faultsim",
    "faultsim.run": "faultsim", "faultsim.detects": "faultsim",
    "faultsim.detected_faults": "faultsim", "faultsim.sharded": "faultsim",
    "sim.good": "sim", "sim.compile": "sim", "sim.pack": "sim",
    "sim.wide.grade": "sim",
    "scan.insert": "scan", "scan.schedule": "scan",
    "exec.map": "exec", "exec.worker": "exec (worker)",
    "netlist.build": "netlist", "netlist.hash": "netlist",
    "campaign.expand": "campaign", "campaign.cache_key": "campaign",
    "campaign.execute": "campaign", "campaign.encode": "campaign",
    "store.get": "store", "store.put": "store",
    "service.protocol.encode": "service.protocol",
    "service.protocol.decode": "service.protocol",
    "service.journal.append": "service.journal",
    "service.scheduler.push": "service.scheduler",
    "service.scheduler.pop": "service.scheduler",
    "service.scheduler.charge": "service.scheduler",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanStats:
    """Per-label aggregates over a span list (self time, calls)."""

    def __init__(self, spans: List[list], selfs: List[float],
                 keep: Optional[Iterable[int]] = None) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        indices = range(len(spans)) if keep is None else keep
        for index in indices:
            span = spans[index]
            name = span[NAME]
            if name.startswith(("faultsim.", "exec.worker")) and isinstance(span[ATTRS], str):
                label = f"{name}[{span[ATTRS]}]"
            else:
                label = name
            self.calls[label] += 1
            self.self_s[label] += selfs[index]

    def total(self, prefix: str) -> float:
        """Summed self seconds of every label starting with ``prefix``."""
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def count(self, prefix: str) -> int:
        """Summed calls of every label starting with ``prefix``."""
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))


def _table(title: str, stats: SpanStats, wall: float,
           extra_cols: Dict[str, Tuple[str, str, str]],
           footer: List[str]) -> str:
    """Render one layer table; ``extra_cols`` label -> (waits, ratios, fails)."""
    lines = [title,
             f"  {'layer':<18}{'span':<34}{'calls':>8}{'self_s':>10}"
             f"{'share':>8}  {'waits':<22}{'ratios':<30}{'fail/retry'}"]
    rows = sorted(stats.self_s.items(), key=lambda kv: -kv[1])
    for label, self_s in rows:
        base = label.split("[", 1)[0]
        waits, ratios, fails = extra_cols.get(base, ("", "", ""))
        lines.append(
            f"  {LAYER_OF.get(base, base.split('.')[0]):<18}{label:<34}"
            f"{stats.calls[label]:>8}{self_s:>10.3f}{_ratio(self_s, wall):>8.1%}  "
            f"{waits:<22}{ratios:<30}{fails}"
        )
    lines.extend("  " + line for line in footer)
    return "\n".join(lines)


def _fill(result: Result, values: Dict[str, float]) -> None:
    """Every per-layer metric, 0 where the workload bypasses the layer."""
    for name, unit, _ in PER_LAYER:
        result.layer_metrics[name] = Metric(float(values.get(name, 0.0)), unit, 1)


def _counter_metrics(counters: Dict[str, int], values: Dict[str, float]) -> None:
    """Metrics read from the program's own telemetry counters."""
    c = counters.get
    values["atpg.aborts"] = c("atpg.aborts", 0)
    values["atpg.redundant"] = c("atpg.redundant", 0)
    values["atpg.random.kept_ratio"] = _ratio(c("atpg.random.kept", 0),
                                              c("atpg.random.patterns", 0))
    values["atpg.compaction.cubes_in"] = c("atpg.compaction.cubes_in", 0)
    values["atpg.compaction.cubes_out"] = c("atpg.compaction.cubes_out", 0)
    values["atpg.repair.rounds"] = c("atpg.repair.rounds", 0)
    values["faultsim.patterns_simulated"] = c("faultsim.patterns_simulated", 0)
    values["sim.compiled.compiles"] = c("sim.compiled.compiles", 0)
    values["sim.compiled.cache_hit_ratio"] = _ratio(
        c("sim.compiled.cache_hits", 0),
        c("sim.compiled.cache_hits", 0) + c("sim.compiled.compiles", 0))
    values["sim.wide.batches"] = c("sim.wide.batches", 0)
    values["sim.wide.lanes"] = c("sim.wide.lanes", 0)
    values["sim.wide.activation_skip_ratio"] = _ratio(
        c("sim.wide.activation_skips", 0),
        c("sim.wide.activation_skips", 0) + c("sim.wide.lanes", 0))
    values["sim.wide.union_cache_hit_ratio"] = _ratio(
        c("sim.wide.union_cache_hits", 0),
        c("sim.wide.union_cache_hits", 0) + c("sim.wide.union_cones_built", 0))
    values["faultsim.sequential.faults"] = c("scan.verify.faults", 0)
    values["exec.fallbacks"] = (c("resilience.fallback_inprocess", 0)
                                + c("faultsim.sharded.fallback", 0))


def _podem_and_exec(spans: List[list], keep: Iterable[int], values: Dict[str, float],
                    wall: float, counters: Dict[str, int]) -> Dict[str, Tuple[str, str, str]]:
    """PODEM effort and pool dispatch, from span attributes.

    ``found_ratio`` is verified patterns over targets: cubes PODEM
    found, less those fault simulation rejected as unsound.
    """
    decisions = backtracks = found = calls = 0
    maps = 0
    map_wall = dispatch = 0.0
    imbalances: List[float] = []
    retries = failed = 0
    for index in keep:
        span = spans[index]
        if span[NAME] == "atpg.podem" and span[ATTRS]:
            d, b, f = span[ATTRS]
            calls += 1
            decisions += d
            backtracks += b
            found += bool(f)
        elif span[NAME] == "exec.map" and span[ATTRS]:
            elapsed, r, fl = span[ATTRS]
            maps += 1
            duration = span[END] - span[START]
            map_wall += duration
            retries += r
            failed += fl
            if elapsed:
                dispatch += duration - max(elapsed)
                imbalances.append(max(elapsed) / (sum(elapsed) / len(elapsed)))
    values.update({
        "atpg.podem.calls": calls,
        "atpg.podem.decisions": decisions,
        "atpg.podem.backtracks": backtracks,
        "exec.map.calls": maps,
        "exec.map.share": _ratio(map_wall, wall),
        "exec.dispatch_share": _ratio(dispatch, wall),
        "exec.shard.imbalance": median(imbalances) if imbalances else 0.0,
        "exec.retries": retries,
    })
    targets = counters.get("atpg.targets", 0) + counters.get("atpg.repair.retargeted", 0)
    values["atpg.podem.found_ratio"] = _ratio(
        found - counters.get("atpg.unsound_cubes", 0), targets)
    return {
        "atpg.podem": ("", f"dec={decisions} bt={backtracks} found={found}/{calls}", ""),
        "exec.map": (f"dispatch={dispatch:.3f}s", "imbalance="
                     + (f"{median(imbalances):.2f}" if imbalances else "-"),
                     f"{failed}/{retries}"),
    }


def _span_metrics(stats: SpanStats, values: Dict[str, float], wall: float) -> None:
    """Per-layer shares and call counts common to every workload."""
    values["atpg.podem.share"] = _ratio(
        stats.total("atpg.podem") - stats.total("atpg.podem_setup"), wall)
    values["faults.plan.share"] = _ratio(stats.total("faults.plan"), wall)
    values["faultsim.create.share"] = _ratio(
        stats.total("faultsim.create") + stats.total("faultsim.construct"), wall)
    values["faultsim.run.calls"] = stats.count("faultsim.run")
    values["faultsim.run.share"] = _ratio(stats.total("faultsim.run"), wall)
    values["faultsim.detects.calls"] = stats.count("faultsim.detects[")
    values["faultsim.detects.share"] = _ratio(stats.total("faultsim.detects["), wall)
    values["faultsim.detected_faults.share"] = _ratio(
        stats.total("faultsim.detected_faults"), wall)
    for engine in ("parallel_pattern", "wide", "sequential"):
        # Engine-labelled spans, including pool shards run in workers.
        values[f"faultsim.{engine}.share"] = _ratio(
            sum(v for k, v in stats.self_s.items()
                if k.startswith(("faultsim.", "exec.worker")) and k.endswith(f"[{engine}]")),
            wall)
    values["sim.share"] = _ratio(stats.total("sim."), wall)
    values["netlist.share"] = _ratio(stats.total("netlist."), wall)
    values["netlist.hash.calls"] = stats.count("netlist.hash")


def inprocess_layers(result: Result, run: Any) -> None:
    """Attribute a traced in-process run (``testgen`` / ``grade``)."""
    tracer = run.tracer
    spans = tracer.spans
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[NAME].startswith("op.")]
    in_ops = [i for i, s in enumerate(spans) if s[TRACE] is not None]
    wall = sum(spans[i][END] - spans[i][START] for i in roots)
    root_self = sum(selfs[i] for i in roots)
    root_set = set(roots)
    stats = SpanStats(spans, selfs, [i for i in in_ops if i not in root_set])
    from repro.faults import all_faults, collapse_faults

    collapse_ratio = _ratio(sum(len(collapse_faults(c)) for c in run.circuits),
                            sum(len(all_faults(c)) for c in run.circuits))
    values: Dict[str, float] = {}
    counters: Dict[str, int] = defaultdict(int)
    phases: Dict[str, float] = defaultdict(float)
    for record in run.op_records:
        for name, value in record["counters"].items():
            counters[name] += value
        for row in record["phases"]:
            phases[row["name"]] += row["duration_s"]
    _counter_metrics(counters, values)
    extra = _podem_and_exec(spans, in_ops, values, wall, counters)
    for phase in ("random", "deterministic", "compaction", "repair"):
        values[f"atpg.phase.{phase}_share"] = _ratio(phases[f"atpg.phase.{phase}"], wall)
    for phase in ("core_atpg", "schedule", "verify"):
        values[f"scan.{phase}_share"] = _ratio(phases[f"scan.phase.{phase}"], wall)
    _span_metrics(stats, values, wall)
    values["faults.collapse_ratio"] = collapse_ratio
    overhead = _ratio(run.traced_wall - run.untraced_wall, run.untraced_wall)
    unattributed = _ratio(root_self, wall)
    values["trace.overhead_frac"] = overhead
    values["trace.unattributed_frac"] = unattributed
    _fill(result, values)
    extra["faults.plan"] = ("", f"collapse={collapse_ratio:.3f}", "")
    extra["sim.wide.grade"] = ("", "skip={:.3f} union_hit={:.3f}".format(
        values["sim.wide.activation_skip_ratio"], values["sim.wide.union_cache_hit_ratio"]), "")
    extra["sim.compile"] = ("", "cache_hit={:.3f}".format(
        values["sim.compiled.cache_hit_ratio"]), "")
    phase_line = "phases (program spans): " + ", ".join(
        f"{name}={seconds:.3f}s" for name, seconds in sorted(phases.items())
        if name.startswith(("atpg.phase.", "scan.phase.")))
    footer = [
        phase_line,
        f"op wall (traced) {wall:.3f}s over {len(roots)} ops; untraced "
        f"{run.untraced_wall:.3f}s",
        f"trace.unattributed_frac={unattributed:.4f}  "
        f"trace.overhead_frac={overhead:.4f}",
    ]
    result.layer_table = _table(
        f"per-layer table: {result.workload} (seed {result.seed}, "
        f"{result.rounds} round(s))", stats, wall, extra, footer)


def serve_layers(result: Result, spans: List[list], counters: Dict[str, int],
                 jobs: List[Dict[str, Any]], window: Tuple[float, float],
                 daemon: Dict[str, Any], untraced_wall: float,
                 collapse_ratio: float, client_spans: List[list]) -> None:
    """Attribute a traced ``serve`` run from daemon spans + client jobs.

    ``client_spans`` are this process's protocol decodes (one per event
    line, attributed with the event type) during the same load.
    """
    selfs = self_times(spans)
    t0, t1 = window
    wall = t1 - t0
    keep = [i for i, s in enumerate(spans) if t0 <= s[START] <= t1]
    stats = SpanStats(spans, selfs, keep)
    values: Dict[str, float] = {}
    _counter_metrics(counters, values)
    # Effort counts pair with the daemon's counters, which cover its
    # whole lifetime (set-up preload included); shares use the window.
    extra = _podem_and_exec(spans, range(len(spans)), values, wall, counters)
    _span_metrics(stats, values, wall)
    values["faults.collapse_ratio"] = collapse_ratio
    for name in ("expand", "cache_key", "execute", "encode"):
        values[f"campaign.{name}.share"] = _ratio(stats.total(f"campaign.{name}"), wall)

    by_name: Dict[str, List[int]] = defaultdict(list)
    for index in keep:
        by_name[spans[index][NAME]].append(index)
    gets = by_name["store.get"]
    hits = [i for i in gets if spans[i][ATTRS] and spans[i][ATTRS][0]]
    values["store.get.calls"] = len(gets)
    values["store.get.hit_ratio"] = _ratio(len(hits), len(gets))
    values["store.get.share"] = _ratio(stats.total("store.get"), wall)
    values["store.put.calls"] = len(by_name["store.put"])
    values["store.put.share"] = _ratio(stats.total("store.put"), wall)
    values["store.quarantined"] = daemon["store_stats"].get("quarantined", 0)
    values["service.protocol.share"] = _ratio(stats.total("service.protocol"), wall)
    values["service.journal.append.calls"] = len(by_name["service.journal.append"])
    values["service.journal.share"] = _ratio(stats.total("service.journal"), wall)

    # Scheduler wait: push -> pop of the same key, classed by the
    # store lookup the lane made right after the pop (hit = warm).
    pushed: Dict[Any, List[float]] = defaultdict(list)
    lane = sorted((i for i in keep if spans[i][NAME] in (
        "service.scheduler.push", "service.scheduler.pop", "store.get")),
        key=lambda i: spans[i][START])
    waits: Dict[str, List[float]] = {"warm": [], "cold": []}
    # Warm path gaps no span covers: pop -> store lookup (lane executor
    # hop) and lookup -> cell event encoded (future wake-up on the loop).
    cell_encodes: Dict[Any, List[float]] = defaultdict(list)
    for index in by_name["service.protocol.encode"]:
        if spans[index][ATTRS] and spans[index][ATTRS][0] == "cell":
            cell_encodes[spans[index][TRACE]].append(spans[index][START])
    lane_hop: List[float] = []
    result_hop: List[float] = []
    pending: Optional[Tuple[Any, float, float]] = None
    for index in lane:
        span = spans[index]
        if span[NAME] == "service.scheduler.push":
            pushed[span[TRACE]].append(span[END])
        elif span[NAME] == "service.scheduler.pop" and span[TRACE] is not None:
            queue = pushed.get(span[TRACE])
            if queue:
                pending = (span[TRACE], span[END] - queue.pop(0), span[END])
        elif span[NAME] == "store.get" and pending and pending[0] == span[TRACE]:
            warm = bool(span[ATTRS] and span[ATTRS][0])
            waits["warm" if warm else "cold"].append(pending[1])
            if warm:
                lane_hop.append(span[START] - pending[2])
                later = [t for t in cell_encodes[span[TRACE]] if t >= span[END]]
                if later:
                    result_hop.append(min(later) - span[END])
            pending = None
    latency = {kind: [j["latency_s"] for j in jobs if j["kind"] == kind]
               for kind in ("cold", "warm", "shared")}
    for kind in ("warm", "cold"):
        values[f"service.scheduler.{kind}_wait_frac"] = _ratio(
            median(waits[kind]) if waits[kind] else 0.0,
            median(latency[kind]) if latency[kind] else 0.0)
    depths = [spans[i][ATTRS] for i in by_name["service.scheduler.push"]]
    values["service.scheduler.depth_max"] = max(depths) if depths else 0
    busy = sum(spans[i][ATTRS] for i in by_name["service.scheduler.charge"])
    values["service.lane.busy_frac"] = _ratio(busy, wall)
    stats_d = daemon
    values["service.dedupe.hits"] = stats_d["hits"]
    values["service.dedupe.misses"] = stats_d["misses"]
    values["service.dedupe.shared"] = stats_d["shared"]
    values["service.retries"] = stats_d["retries"]
    values["service.failed"] = stats_d["failed"]
    covered = sum(spans[i][END] - spans[i][START] for name in (
        "store.get", "store.put", "campaign.execute", "campaign.encode")
        for i in by_name[name])
    unattributed = max(0.0, 1.0 - _ratio(covered, busy))
    overhead = _ratio(wall - untraced_wall, untraced_wall)
    values["trace.overhead_frac"] = overhead
    values["trace.unattributed_frac"] = unattributed
    _fill(result, values)

    def p50_ms(name: str, pick: Optional[List[int]] = None) -> float:
        picked = by_name[name] if pick is None else pick
        return 1000 * median([selfs[i] for i in picked]) if picked else 0.0

    def pct(values_s: List[float], q: float) -> str:
        return f"{1000 * percentile(values_s, q):.2f}" if values_s else "-"

    cell_bytes = [spans[i][ATTRS][1] for i in by_name["service.protocol.encode"]
                  if spans[i][ATTRS] and spans[i][ATTRS][0] == "cell"]
    get_bytes = [spans[i][ATTRS][1] for i in hits]
    put_bytes = [spans[i][ATTRS] for i in by_name["store.put"] if spans[i][ATTRS]]
    extra.update({
        "store.get": (f"p50={p50_ms('store.get', hits):.2f}ms(hit)",
                      f"hit={values['store.get.hit_ratio']:.3f} bytes_p50="
                      + (f"{median(get_bytes):.0f}" if get_bytes else "-"),
                      f"quarantined={values['store.quarantined']:.0f}"),
        "store.put": (f"p50={p50_ms('store.put'):.2f}ms", "bytes_p50="
                      + (f"{median(put_bytes):.0f}" if put_bytes else "-"), ""),
        "service.scheduler.pop": (
            f"warm p50/p90={pct(waits['warm'], 50)}/{pct(waits['warm'], 90)}ms",
            f"cold p50/p90={pct(waits['cold'], 50)}/{pct(waits['cold'], 90)}ms",
            ""),
        "service.scheduler.charge": ("", f"lane busy={values['service.lane.busy_frac']:.3f}", ""),
        "service.scheduler.push": ("", f"depth_max={values['service.scheduler.depth_max']:.0f}", ""),
        "service.protocol.encode": (f"p50={p50_ms('service.protocol.encode'):.3f}ms",
                                    "cell_event_bytes_p50="
                                    + (f"{median(cell_bytes):.0f}" if cell_bytes else "-"), ""),
        "service.protocol.decode": (f"p50={p50_ms('service.protocol.decode'):.3f}ms", "", ""),
        "service.journal.append": (f"p50={p50_ms('service.journal.append'):.3f}ms", "", ""),
        "campaign.expand": (f"p50={p50_ms('campaign.expand'):.2f}ms", "", ""),
        "campaign.cache_key": (f"p50={p50_ms('campaign.cache_key'):.2f}ms", "", ""),
        "campaign.execute": (f"p50={p50_ms('campaign.execute'):.2f}ms", "", ""),
        "campaign.encode": (f"p50={p50_ms('campaign.encode'):.2f}ms", "", ""),
        "netlist.hash": (f"p50={p50_ms('netlist.hash'):.3f}ms", "", ""),
    })
    def incl_p50_ms(name: str) -> float:
        picked = by_name[name]
        return 1000 * median([spans[i][END] - spans[i][START] for i in picked]) if picked else 0.0

    def p50_of(values_s: List[float]) -> float:
        return 1000 * median(values_s) if values_s else 0.0

    # Warm latency split: the warm p50 against the per-job p50 of each
    # step on its path (queue wait, the two hand-offs, one store hit,
    # one request decode and three event encodes, expand + key with the
    # circuit builds and hash inside them, two journal appends, the
    # client's three event decodes).
    warm_p50 = 1000 * median(latency["warm"]) if latency["warm"] else 0.0
    decodes: Dict[str, List[float]] = defaultdict(list)
    for span in client_spans:
        decodes[span[ATTRS]].append(span[END] - span[START])
    client_decode = sum(1000 * median(decodes[event]) for event in
                        ("accepted", "cell", "done") if decodes[event])
    parts = [
        ("scheduler wait", p50_of(waits["warm"])),
        ("lane hand-off", p50_of(lane_hop)),
        ("store get (hit)", p50_ms("store.get", hits)),
        ("result hand-off", p50_of(result_hop)),
        ("protocol decode+3 encodes", incl_p50_ms("service.protocol.decode")
         + 3 * incl_p50_ms("service.protocol.encode")),
        ("keying expand+cache_key", incl_p50_ms("campaign.expand")
         + incl_p50_ms("campaign.cache_key")),
        ("journal 2 appends", 2 * incl_p50_ms("service.journal.append")),
        ("client decode 3 events", client_decode),
    ]
    split = ", ".join(f"{name} {ms:.2f}" for name, ms in parts)
    rest = warm_p50 - sum(ms for _, ms in parts)
    ack = [j["ack_s"] for j in jobs]
    footer = [
        f"warm latency p50 {warm_p50:.2f} ms = {split}, other (event-loop "
        f"turns and GIL hand-offs while the lane computes, sockets) {rest:.2f}  [ms]",
        "client: " + "  ".join(
            f"{kind} n={len(v)} p50/p90={pct(v, 50)}/{pct(v, 90)}ms"
            for kind, v in latency.items()) + f"  ack p50={pct(ack, 50)}ms",
        f"load wall (traced) {wall:.3f}s; untraced {untraced_wall:.3f}s; "
        f"lane busy {busy:.3f}s",
        f"trace.unattributed_frac={unattributed:.4f} (lane busy time outside "
        f"store/execute/encode spans)  trace.overhead_frac={overhead:.4f}",
    ]
    result.layer_table = _table(
        f"per-layer table: serve (seed {result.seed}, {result.rounds} round(s); "
        "share = self time / load wall)", stats, wall, extra, footer)
