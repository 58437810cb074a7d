"""The in-process workloads: ``testgen`` (ATPG + scan flow) and ``grade``.

Both run one op at a time in this process, in *rounds*: a round is a
fixed list of ops whose inputs derive from (workload seed, round
index), and a run repeats rounds until ``seconds`` have passed (at
least one).  Per-round inputs make every count deterministic for a
given seed and round count; whole rounds keep the mix of ops, and so
the rates, independent of how many rounds fit.

A traced run measures the same rounds twice: untraced first, then with
the tracer's wrappers installed, so ``trace.overhead_frac`` compares
identical work.  Phases and counters come from the run manifests the
ops return; ``grade``'s ops return none, so it replays its rounds a
third time, untimed, inside ``telemetry.capture()``.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

from harness import Result, derive_seed, import_repro, median, peak_rss_mb, timed_median
from tracing import Tracer, install_inprocess

SETUP_TRIALS = 3

#: testgen sizes.  ``r432`` instance seeds are a fixed panel: ATPG cost
#: varies about 2x between seeded instances (README.md, "Seeds"), which
#: no run length here could average out, so the workload seed drives
#: the flows' own seeds (random phase, fill, scan) instead.
TESTGEN = {
    "full": {"profile": "r432", "instances": (1, 2), "backtrack_limit": 100,
             "scan": "registered_alu74181", "workers": 2, "sample": 32},
    "tiny": {"profile": "r432", "instances": (1,), "backtrack_limit": 2,
             "scan": "binary_counter4", "workers": 2, "sample": 8},
}

GRADE = {
    "full": {"profiles": ("r1908", "r5315"), "patterns": 2048},
    "tiny": {"profiles": ("r432", "r880"), "patterns": 128},
}


class Op:
    """One timed call and what the workload learned from it."""

    __slots__ = ("kind", "wall_s", "data")

    def __init__(self, kind: str, wall_s: float, data: Dict[str, Any]) -> None:
        self.kind = kind
        self.wall_s = wall_s
        self.data = data


class InProcessRun:
    """Round loop, op timing, tracing and failure accounting."""

    def __init__(self, result: Result, trace: bool) -> None:
        self.result = result
        self.trace = trace
        self.tracer: Optional[Tracer] = None
        self.ops: List[Op] = []
        self.untraced_wall = 0.0
        self.traced_wall = 0.0
        #: Peak RSS through the first measured round (see ``rounds``).
        self.peak_rss_mb = 0.0
        self.op_records: List[Dict[str, Any]] = []
        #: Circuits whose stuck-at collapse ratio the traced table reports.
        self.circuits: List[Any] = []

    def timed(self, kind: str, call: Callable[[], Any],
              inspect: Callable[[Any], Dict[str, Any]],
              check: Callable[[Any], Optional[str]],
              mode: str) -> None:
        """Run one op in ``mode`` ("measure", "trace" or "count").

        ``measure`` times the op untraced, records its data and runs its
        output check (untimed).  ``trace`` times it under the tracer and
        keeps the phases and counters from the run manifests the op
        returns.  ``count`` reruns it untimed inside
        ``telemetry.capture()`` for ops that return no manifest.
        """
        from repro import telemetry

        self.result.attempted += 1
        tracer = self.tracer if mode == "trace" else None
        root = None
        capture = telemetry.capture() if mode == "count" else nullcontext()
        # Start every op from a collected heap, so a full collection
        # triggered by earlier ops' garbage does not land inside it.
        gc.collect()
        try:
            with capture as sink:
                if tracer is not None:
                    tracer.trace_id = len(self.op_records)
                    root = tracer.begin(f"op.{kind}")
                start = time.perf_counter()
                try:
                    value = call()
                finally:
                    wall = time.perf_counter() - start
                    if tracer is not None:
                        tracer.end(root)
                        tracer.trace_id = None
        except Exception as exc:  # an op that raises is a failed op
            self.result.fail(f"{kind} op raised {type(exc).__name__}: {exc}")
            return
        if mode == "trace":
            self.traced_wall += wall
            self.op_records.append(manifest_data(value))
        elif mode == "count":
            self.op_records.append({"phases": [], "counters": dict(sink.counters)})
        else:
            self.untraced_wall += wall
            self.ops.append(Op(kind, wall, inspect(value)))
            problem = check(value)
            if problem is not None:
                self.result.fail(f"{kind}: {problem}")

    def rounds(self, seconds: float, one_round: Callable[[int, str], None],
               count_pass: bool = False) -> None:
        """Measured rounds until ``seconds``; then the traced replay.

        ``count_pass`` adds an untimed replay under
        ``telemetry.capture()`` for workloads whose ops return no run
        manifest, so the program's counters never slow the timed spans.
        """
        start = time.perf_counter()
        count = 0
        while True:
            one_round(count, "measure")
            count += 1
            if count == 1:
                # Later rounds would add the program's compiled-program
                # cache growth (README.md, "Findings"), making the peak
                # depend on how many rounds fit.
                self.peak_rss_mb = peak_rss_mb()
            if time.perf_counter() - start >= seconds:
                break
        self.result.rounds = count
        if not self.trace:
            return
        self.tracer = Tracer()
        install_inprocess(self.tracer)
        try:
            for index in range(count):
                one_round(index, "trace")
        finally:
            self.tracer.uninstall()
        if count_pass:
            for index in range(count):
                one_round(index, "count")


def manifest_data(value: Any) -> Dict[str, Any]:
    """Phases and counters from the run manifests an op returned.

    ``full_scan_flow`` results carry the scan manifest (whose counters
    already include the core ATPG's) and the core ATPG manifest (whose
    phases are the ATPG phases); ``generate_tests`` results carry one.
    """
    manifests = [m for m in (getattr(value, "manifest", None),
                             getattr(getattr(value, "core_tests", None), "manifest", None))
                 if m is not None]
    phases = []
    for manifest in manifests:
        prefix = "scan.phase." if manifest.flow == "scan.full_scan_flow" else "atpg.phase."
        phases.extend({"name": prefix + row["name"], "duration_s": row["duration_s"]}
                      for row in manifest.phases)
    return {"phases": phases, "counters": dict(manifests[0].counters) if manifests else {}}


# ----------------------------------------------------------------------
# testgen
# ----------------------------------------------------------------------
def testgen_inputs(seed: int, size: str, round_index: int) -> Dict[str, Any]:
    """The seeds one testgen round uses (a pure function of its args)."""
    conf = TESTGEN[size]
    return {
        "atpg_seeds": [derive_seed("testgen.atpg", seed, round_index, i)
                       for i in range(len(conf["instances"]))],
        "scan_seed": derive_seed("testgen.scan", seed, round_index),
        "sample_seed": derive_seed("testgen.sample", seed, round_index),
    }


def build_testgen(size: str) -> Dict[str, Any]:
    """Circuits for testgen (the timed set-up)."""
    import_repro()
    from repro.campaign.spec import build_workload
    from repro.circuits.iscas import iscas85_like

    conf = TESTGEN[size]
    return {
        "instances": [iscas85_like(conf["profile"], seed=s) for s in conf["instances"]],
        "scan": build_workload(conf["scan"]),
    }


def run_testgen(seed: int, seconds: float, trace: bool, size: str = "full") -> Result:
    """The ``testgen`` workload: PODEM ATPG on r432 and the full-scan flow."""
    result = Result("testgen", seed, size)
    setup_s, circuits = timed_median(lambda: build_testgen(size), SETUP_TRIALS)
    from repro.atpg import generate_tests
    from repro.faultsim import SequentialFaultSimulator, engine_coverage
    from repro.faultsim.coverage import sample_fault_list
    from repro.scan.flow import full_scan_flow

    conf = TESTGEN[size]
    run = InProcessRun(result, trace)
    run.circuits = list(circuits["instances"])

    def atpg_info(res: Any) -> Dict[str, Any]:
        counters = res.manifest.counters
        return {
            "faults": len(res.report.faults),
            "detected": len(res.report.first_detection),
            "patterns": len(res.patterns),
            "decisions": counters.get("atpg.decisions", 0),
            "backtracks": counters.get("atpg.backtracks", 0),
        }

    def atpg_check_for(circuit: Any) -> Callable[[Any], Optional[str]]:
        def check(res: Any) -> Optional[str]:
            # Independent re-grade: the deductive engine shares no search
            # code with PODEM and no evaluation loop with parallel_pattern.
            regrade = engine_coverage(circuit, res.patterns, engine="deductive")
            if set(regrade.first_detection) != set(res.report.first_detection):
                return "deductive re-grade detects a different fault set"
            if regrade.coverage != res.report.coverage:
                return "deductive re-grade coverage differs"
            return None
        return check

    def scan_info(flow: Any) -> Dict[str, Any]:
        return {
            "faults": len(flow.scan_coverage.faults),
            "detected": len(flow.scan_coverage.first_detection),
            "patterns": len(flow.core_tests.patterns),
            "decisions": flow.core_tests.manifest.counters.get("atpg.decisions", 0),
            "backtracks": flow.core_tests.manifest.counters.get("atpg.backtracks", 0),
        }

    def scan_check_for(sample_seed: int) -> Callable[[Any], Optional[str]]:
        def check(flow: Any) -> Optional[str]:
            report = flow.scan_coverage
            sample = sample_fault_list(report.faults, conf["sample"], sample_seed)
            local = SequentialFaultSimulator(flow.design.circuit, faults=sample)
            replay = local.run(flow.schedule)
            for fault in sample:
                if replay.first_detection.get(fault) != report.first_detection.get(fault):
                    return (f"in-process sequential replay of {fault} disagrees "
                            f"with the workers={conf['workers']} report")
            return None
        return check

    def one_round(index: int, mode: str) -> None:
        seeds = testgen_inputs(seed, size, index)
        plan = [("atpg", 0), ("scan", None)] + [
            ("atpg", i) for i in range(1, len(circuits["instances"]))
        ]
        for kind, i in plan:
            if kind == "atpg":
                circuit = circuits["instances"][i]
                atpg_seed = seeds["atpg_seeds"][i]
                run.timed(
                    "atpg",
                    lambda: generate_tests(circuit, seed=atpg_seed,
                                           backtrack_limit=conf["backtrack_limit"]),
                    atpg_info, atpg_check_for(circuit), mode,
                )
            else:
                run.timed(
                    "scan",
                    lambda: full_scan_flow(circuits["scan"], seed=seeds["scan_seed"],
                                           workers=conf["workers"]),
                    scan_info, scan_check_for(seeds["sample_seed"]), mode,
                )

    run.rounds(seconds, one_round)
    atpg = [op for op in run.ops if op.kind == "atpg"]
    scan = [op for op in run.ops if op.kind == "scan"]
    result.add("setup_s", setup_s, "s", SETUP_TRIALS)
    if atpg:
        result.add("atpg_faults_per_s",
                   sum(op.data["faults"] for op in atpg) / sum(op.wall_s for op in atpg),
                   "faults/s", len(atpg))
        result.add("atpg_op_p50_ms", 1000 * median([op.wall_s for op in atpg]),
                   "ms", len(atpg))
    if scan:
        result.add("scan_faults_per_s",
                   sum(op.data["faults"] for op in scan) / sum(op.wall_s for op in scan),
                   "faults/s", len(scan))
        result.add("scan_op_p50_ms", 1000 * median([op.wall_s for op in scan]),
                   "ms", len(scan))
    if run.ops:
        result.add("atpg_coverage",
                   sum(op.data["detected"] for op in run.ops)
                   / sum(op.data["faults"] for op in run.ops),
                   "fraction", len(run.ops))
        result.add("atpg_patterns", sum(op.data["patterns"] for op in run.ops),
                   "count", len(run.ops))
    result.add("peak_rss_mb", run.peak_rss_mb, "MiB", 1)
    result.counts = {
        "ops": [[op.kind] + [op.data[k] for k in
                ("faults", "detected", "patterns", "decisions", "backtracks")]
                for op in run.ops],
    }
    _finish(result, run)
    return result


# ----------------------------------------------------------------------
# grade
# ----------------------------------------------------------------------
def grade_blocks(circuits: Dict[str, Any], size: str, seed: int,
                 round_index: int) -> Dict[str, Any]:
    """One round's pattern blocks (a pure function of its arguments)."""
    from repro.atpg import random_patterns

    return {
        p: random_patterns(c, GRADE[size]["patterns"],
                           seed=derive_seed("grade.block", seed, round_index, p))
        for p, c in circuits.items()
    }


def build_grade(size: str, seed: int) -> Dict[str, Any]:
    """Circuits plus round 0's pattern blocks (the timed set-up)."""
    import_repro()
    from repro.circuits.iscas import iscas85_like

    circuits = {p: iscas85_like(p) for p in GRADE[size]["profiles"]}
    return {"circuits": circuits, "blocks": grade_blocks(circuits, size, seed, 0)}


def run_grade(seed: int, seconds: float, trace: bool, size: str = "full") -> Result:
    """The ``grade`` workload: default engine vs ``wide`` on seeded blocks."""
    result = Result("grade", seed, size)
    setup_s, built = timed_median(lambda: build_grade(size, seed), SETUP_TRIALS)
    from repro.faultsim import engine_coverage

    conf = GRADE[size]
    circuits = built["circuits"]
    setup_blocks = built["blocks"]
    run = InProcessRun(result, trace)
    run.circuits = list(circuits.values())
    reports: Dict[str, Any] = {}

    def info(report: Any) -> Dict[str, Any]:
        return {"faults": len(report.faults), "patterns": report.num_patterns,
                "detected": len(report.first_detection)}

    def one_round(index: int, mode: str) -> None:
        blocks = setup_blocks if index == 0 else grade_blocks(circuits, size, seed, index)
        for profile, circuit in circuits.items():
            block = blocks[profile]
            for kind, engine in (("default", None), ("wide", "wide")):
                def call(circuit=circuit, block=block, engine=engine):
                    if engine is None:
                        return engine_coverage(circuit, block)
                    return engine_coverage(circuit, block, engine=engine)

                def check(report: Any, profile=profile, kind=kind) -> Optional[str]:
                    if kind == "default":
                        reports[profile] = report
                        return None
                    base = reports.pop(profile, None)
                    if base is None or base.first_detection != report.first_detection:
                        return (f"{profile}: wide and default engines disagree "
                                "on first_detection")
                    return None

                run.timed(f"{kind}:{profile}", call,
                          lambda r, profile=profile: dict(info(r), profile=profile),
                          check, mode)

    run.rounds(seconds, one_round, count_pass=True)
    largest = conf["profiles"][-1]
    result.add("setup_s", setup_s, "s", SETUP_TRIALS)
    for kind, fp_name, p50_name in (
        ("default", "grade_fp_per_s", "grade_op_p50_ms"),
        ("wide", "grade_wide_fp_per_s", "grade_wide_op_p50_ms"),
    ):
        ops = [op for op in run.ops if op.kind.startswith(kind + ":")]
        if not ops:
            continue
        result.add(fp_name,
                   sum(op.data["faults"] * op.data["patterns"] for op in ops)
                   / sum(op.wall_s for op in ops),
                   "fault*patterns/s", len(ops))
        big = [op.wall_s for op in ops if op.data["profile"] == largest]
        if big:
            result.add(p50_name, 1000 * median(big), "ms", len(big))
    defaults = [op for op in run.ops if op.kind.startswith("default:")]
    if defaults:
        result.add("grade_coverage",
                   sum(op.data["detected"] for op in defaults)
                   / sum(op.data["faults"] for op in defaults),
                   "fraction", len(defaults))
    result.add("peak_rss_mb", run.peak_rss_mb, "MiB", 1)
    result.counts = {
        "ops": [[op.kind, op.data["faults"], op.data["patterns"], op.data["detected"]]
                for op in run.ops],
    }
    _finish(result, run)
    return result


def _finish(result: Result, run: InProcessRun) -> None:
    """Failed fraction, plus the per-layer table of a traced run."""
    if result.attempted:
        result.add("failed_frac", result.failed / result.attempted, "fraction",
                   result.attempted)
    if run.tracer is not None:
        from layers import inprocess_layers

        inprocess_layers(result, run)
