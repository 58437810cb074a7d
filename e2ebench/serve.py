"""The ``serve`` workload: ``python -m repro serve`` under a mixed load.

One daemon with its defaults (1 lane, journal on) on a fresh store.
Two client threads act as two tenants in a closed loop (each waits for
``done`` before submitting again).  Every job is a single-cell
``alu74181`` ATPG spec with payloads returned; engine and fault model
are drawn per cell.  Each round gives both threads the same sequence of
job kinds:

* ``cold`` — a novel cell (a miss), one per thread;
* ``warm`` — a cell from the warm set preloaded during set-up (a hit);
* ``pair`` — both threads meet at a barrier and submit the same novel
  cell: one miss and one ``shared`` attachment.

Jobs are classed by the flags on their cell event, not by the plan.
Rounds repeat until ``seconds`` have passed and every class holds
enough samples for its p90.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from harness import (BENCH_DIR, WORK_DIR, Result, child_env, derive_seed,
                     import_repro, median, peak_rss_mb, percentile)

ENGINES = ("parallel_pattern", "wide")
MODELS = ("stuck_at", "transition", "bridging")
KINDS = ("cold", "warm", "shared")

#: Per-thread jobs in one round (one cold cell each; ``contended`` of
#: the warm jobs run beside the other thread's cold cell).  Pairs give
#: two samples (a miss and a shared) per execution, so 9 rounds (~20 s
#: at ~145 ms per cold alu74181 cell) reach 100 shared samples
#: (README.md, "Workloads").
SERVE = {
    "full": {"warm_set": 12, "round": {"pair": 12, "warm": 6, "contended": 2},
             "min_samples": 100},
    "tiny": {"warm_set": 2, "round": {"pair": 1, "warm": 1, "contended": 1},
             "min_samples": 0},
}
SETUP_TRIALS = 3


def cell_spec(cell: Tuple[str, str, int]) -> Dict[str, Any]:
    """The single-cell campaign spec dict for ``(engine, model, seed)``."""
    engine, model, cell_seed = cell
    return {
        "name": "e2ebench", "workloads": ["alu74181"], "engines": [engine],
        "seeds": [cell_seed], "flows": ["atpg"], "fault_models": [model],
        "params": {},
    }


def _deck(rng: random.Random) -> List[Tuple[str, str]]:
    """Every (engine, model) pair once, in seeded order.

    Cold cells cost 20-370 ms depending on the pair, so dealing pairs
    from decks keeps each run's mix, and so its latencies, balanced.
    """
    deck = [(engine, model) for engine in ENGINES for model in MODELS]
    rng.shuffle(deck)
    return deck


def warm_set(seed: int, size: str) -> List[Tuple[str, str, int]]:
    """The cells preloaded during set-up."""
    rng = random.Random(derive_seed("serve.warm", seed))
    pairs: List[Tuple[str, str]] = []
    while len(pairs) < SERVE[size]["warm_set"]:
        pairs.extend(_deck(rng))
    return [(engine, model, rng.randrange(1 << 30))
            for engine, model in pairs[:SERVE[size]["warm_set"]]]


def round_plan(seed: int, size: str, index: int) -> List[List[Tuple[str, Any]]]:
    """Per-thread ``(kind, cell)`` lists for one round (pure function).

    A round has three phases, each opened by a ``sync`` (both threads
    meet at a barrier):

    1. *mixed*: one thread submits its cold cell while the other
       submits ``contended`` warm jobs, which queue behind that cold
       cell on the single lane; then the roles swap;
    2. *quiet*: both threads submit their remaining warm jobs, with no
       cold cell running;
    3. *pairs*: before each pair both threads meet again and submit
       the same novel cell.

    So a minority of warm jobs shows queue wait (the warm p90) while
    the warm p50 stays on the quiet path.  Each thread gets its own
    half of the warm set, so a warm job is never shared.
    """
    conf = SERVE[size]["round"]
    rng = random.Random(derive_seed("serve.round", seed, index))
    deck: List[Tuple[str, str]] = []

    def novel() -> Tuple[str, str, int]:
        if not deck:
            deck.extend(_deck(rng))
        engine, model = deck.pop()
        return (engine, model, (1 << 30) + rng.randrange(1 << 30))

    colds = [novel(), novel()]
    pairs = [("pair", novel()) for _ in range(conf["pair"])]
    warm = warm_set(seed, size)
    rng.shuffle(warm)
    plans: List[List[Tuple[str, Any]]] = []
    for thread in range(2):
        own = [("warm", cell) for cell in
               warm[thread * conf["warm"]:(thread + 1) * conf["warm"]]]
        contended, quiet = own[:conf["contended"]], own[conf["contended"]:]
        cold = [("cold", colds[thread])]
        mixed = (cold + [("sync", None)] + contended if thread == 0
                 else contended + [("sync", None)] + cold)
        plans.append([("sync", None)] + mixed + [("sync", None)] + quiet + pairs)
    return plans


class Daemon:
    """One ``repro serve`` subprocess on a fresh store."""

    def __init__(self, name: str, traced: bool) -> None:
        self.root = WORK_DIR / name
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.store = self.root / "store"
        self.ready = self.root / "ready.json"
        self.spans_path = self.root / "spans.json"
        serve_args = ["serve", "--store", str(self.store), "--ready-file", str(self.ready)]
        if traced:
            command = [sys.executable, str(BENCH_DIR / "daemon.py"),
                       str(self.spans_path)] + serve_args
        else:
            command = [sys.executable, "-m", "repro"] + serve_args
        self.log = open(self.root / "daemon.log", "wb")
        self.proc = subprocess.Popen(command, env=child_env(), stdout=self.log,
                                     stderr=subprocess.STDOUT)
        from repro.service import ServiceClient, wait_for_ready

        try:
            wait_for_ready(self.ready, timeout=60.0)
        except Exception:
            self.kill()
            raise
        self.client = ServiceClient.from_ready_file(self.ready, timeout=120.0)

    def stop(self) -> Dict[str, Any]:
        """Shut down cleanly; returns the validated drain manifest."""
        from repro.telemetry import validate_manifest

        try:
            self.client.shutdown()
            code = self.proc.wait(timeout=120)
        finally:
            self.kill()
        if code != 0:
            raise RuntimeError(f"daemon exited with code {code}")
        manifest = json.loads((self.store / "service" / "manifest.json").read_text())
        return validate_manifest(manifest)

    def kill(self) -> None:
        """Make sure the process is gone and reaped."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.log.close()

    def peak_rss_mb(self) -> float:
        """The running daemon's peak RSS so far (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's /proc status")

    def remove(self) -> None:
        """Delete the daemon's store and files."""
        shutil.rmtree(self.root, ignore_errors=True)


def submit(client: Any, cell: Tuple[str, str, int], tenant: str) -> Dict[str, Any]:
    """One closed-loop job; returns the client-side record."""
    start = time.perf_counter()
    ack = None
    event = None
    for message in client.submit_iter(cell_spec(cell), tenant=tenant,
                                      return_payloads=True):
        kind = message.get("event")
        if kind == "accepted":
            ack = time.perf_counter()
        elif kind == "cell":
            event = message
    end = time.perf_counter()
    if event is None or ack is None:
        raise RuntimeError("stream ended without accepted/cell events")
    if event.get("status") != "ok":
        raise RuntimeError(f"cell failed: {event.get('failure')}")
    if event["shared"]:
        kind = "shared"
    elif event["cached"]:
        kind = "warm"
    else:
        kind = "cold"
    return {
        "kind": kind, "key": event["key"], "cell": list(cell),
        "start": start, "end": end, "latency_s": end - start, "ack_s": ack - start,
        "payload": json.dumps(event["payload"], sort_keys=True, separators=(",", ":")),
        "coverage": event["stats"].get("coverage"),
    }


def preload(daemon: Daemon, seed: int, size: str) -> None:
    """Put the warm set in the store (set-up, single client)."""
    for cell in warm_set(seed, size):
        daemon.client.submit(cell_spec(cell), tenant="setup")


def load(daemon: Daemon, seed: int, size: str, seconds: float,
         rounds: Optional[int], result: Result) -> Tuple[List[Dict[str, Any]], float, int]:
    """Drive the two-tenant closed loop; returns (jobs, wall, rounds)."""
    conf = SERVE[size]
    jobs: List[Dict[str, Any]] = []
    lock = threading.Lock()
    errors: List[str] = []
    state = {"round": 0, "stop": False}
    start = time.perf_counter()

    def decide() -> None:
        # Runs once per round, in one thread, while both wait.
        state["round"] += 1
        if state["round"] == 1:
            # Later rounds would add the daemon's compiled-program cache
            # growth (README.md, "Findings"), making the peak depend on
            # how many rounds fit.
            result.add("peak_rss_mb", max(peak_rss_mb(), daemon.peak_rss_mb()), "MiB", 1)
        if rounds is not None:
            state["stop"] = state["round"] >= rounds
            return
        elapsed = time.perf_counter() - start
        counts = {k: sum(1 for j in jobs if j["kind"] == k) for k in KINDS}
        enough = all(counts[k] >= conf["min_samples"] for k in KINDS)
        state["stop"] = elapsed >= seconds and (enough or elapsed >= 2 * seconds)

    round_barrier = threading.Barrier(2, action=decide)
    pair_barrier = threading.Barrier(2)

    def client_thread(thread: int) -> None:
        tenant = f"tenant{thread}"
        try:
            while not state["stop"]:
                plan = round_plan(seed, size, state["round"])[thread]
                for kind, cell in plan:
                    if kind in ("sync", "pair"):
                        pair_barrier.wait(timeout=120)
                    if kind == "sync":
                        continue
                    try:
                        record = submit(daemon.client, cell, tenant)
                    except Exception as exc:  # a failed job, not a crash
                        with lock:
                            errors.append(f"{kind} job {cell}: {type(exc).__name__}: {exc}")
                        continue
                    record["planned"] = kind
                    with lock:
                        jobs.append(record)
                round_barrier.wait(timeout=300)
        except threading.BrokenBarrierError:
            with lock:
                errors.append(f"client {thread}: barrier broken")
        except Exception as exc:  # stop the other thread too; report, not raise
            with lock:
                errors.append(f"client {thread}: {type(exc).__name__}: {exc}")
            round_barrier.abort()
            pair_barrier.abort()

    threads = [threading.Thread(target=client_thread, args=(t,)) for t in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - start
    result.attempted += len(jobs) + len(errors)
    for message in errors:
        result.fail(message)
    return jobs, wall, state["round"]


def start_with_warm_set(name: str, seed: int, size: str, traced: bool) -> Daemon:
    """Spawn a daemon and preload the warm set: the serve set-up."""
    daemon = Daemon(name, traced)
    try:
        preload(daemon, seed, size)
    except Exception:
        daemon.kill()
        raise
    return daemon


def check(result: Result, jobs: List[Dict[str, Any]], manifest: Dict[str, Any],
          seed: int, size: str) -> Dict[str, Any]:
    """Output checks: payload identity per key and the daemon's counts."""
    payloads: Dict[str, str] = {}
    for job in jobs:
        seen = payloads.setdefault(job["key"], job["payload"])
        if seen != job["payload"]:
            result.fail(f"payload bytes differ for key {job['key'][:12]} ({job['kind']})")
    stats = _daemon_stats(manifest)
    novel = {tuple(j["cell"]) for j in jobs if j["planned"] in ("cold", "pair")}
    expected_misses = len(set(warm_set(seed, size))) + len(novel)
    if stats["misses"] != expected_misses:
        result.fail(f"daemon misses {stats['misses']} != distinct novel cells "
                    f"{expected_misses}")
    if stats["failed"]:
        result.fail(f"daemon reports {stats['failed']} failed cells")
    return stats


def _daemon_stats(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Dedupe counts, failures, retries and store stats of one lifetime."""
    service = manifest["service"]
    return dict(service["dedupe"], failed=manifest["stats"]["failed"],
                retries=service["recovery"]["retries"], store_stats=service["store"])


def run_serve(seed: int, seconds: float, trace: bool, size: str = "full") -> Result:
    """The ``serve`` workload (see module doc)."""
    import_repro()
    result = Result("serve", seed, size)
    tag = f"serve-{seed}-{int(time.time() * 1000) % 100000}"
    durations = []
    daemon: Optional[Daemon] = None
    try:
        for trial in range(SETUP_TRIALS):
            if daemon is not None:
                daemon.stop()
                daemon.remove()
            begin = time.perf_counter()
            daemon = start_with_warm_set(f"{tag}-{trial}", seed, size, traced=False)
            durations.append(time.perf_counter() - begin)
        jobs, wall, done_rounds = load(daemon, seed, size, seconds, None, result)
        manifest = daemon.stop()
    finally:
        if daemon is not None:
            daemon.kill()
            daemon.remove()
    result.rounds = done_rounds
    stats = check(result, jobs, manifest, seed, size)
    result.add("setup_s", median(durations), "s", SETUP_TRIALS)
    _serve_metrics(result, jobs, wall)
    result.counts = {
        "misses": stats["misses"], "hits_plus_shared": stats["hits"] + stats["shared"],
        "jobs": len(jobs),
        "coverage_by_key": sorted({(j["key"], j["coverage"]) for j in jobs}),
    }
    result.counts["dedupe"] = {k: stats[k] for k in ("hits", "misses", "shared", "failed")}
    if trace:
        _traced_replay(result, seed, size, done_rounds, wall)
    if result.attempted:
        result.add("failed_frac", result.failed / result.attempted, "fraction",
                   result.attempted)
    return result


def _serve_metrics(result: Result, jobs: List[Dict[str, Any]], wall: float) -> None:
    if not jobs:
        return
    by_kind = {k: [j["latency_s"] for j in jobs if j["kind"] == k] for k in KINDS}
    result.add("serve_jobs_per_s", len(jobs) / wall, "jobs/s", len(jobs))
    result.add("serve_cold_per_s", len(by_kind["cold"]) / wall, "jobs/s", len(by_kind["cold"]))
    for kind in KINDS:
        values = by_kind[kind]
        if not values:
            continue
        result.add(f"serve_{kind}_p50_ms", 1000 * median(values), "ms", len(values))
        if kind != "shared":
            result.add(f"serve_{kind}_p90_ms", 1000 * percentile(values, 90), "ms",
                       len(values))
    coverage = {j["key"]: j["coverage"] for j in jobs if j["coverage"] is not None}
    if coverage:
        result.add("serve_coverage", sum(coverage.values()) / len(coverage), "fraction",
                   len(coverage))
    result.add("service.ack_ms", 1000 * median([j["ack_s"] for j in jobs]), "ms", len(jobs))


def _traced_replay(result: Result, seed: int, size: str, rounds: int,
                   untraced_wall: float) -> None:
    """Replay the same rounds against a traced daemon; attribute layers."""
    from layers import serve_layers
    from repro.faults import all_faults, collapse_faults
    from repro.circuits import alu74181

    import repro.service.client as client_module
    from tracing import ATTRS, Tracer

    traced = Result("serve", seed, size)
    client = Tracer()

    def decoded(index, args, kwargs, event):
        client.spans[index][ATTRS] = event.get("event")

    daemon = start_with_warm_set(f"serve-traced-{seed}", seed, size, traced=True)
    try:
        client.wrap(client_module, "decode_line", "client.decode", after=decoded)
        start = time.perf_counter()
        jobs, wall, _ = load(daemon, seed, size, 0.0, rounds, traced)
        end = time.perf_counter()
        client.uninstall()
        manifest = daemon.stop()
        dump = json.loads(daemon.spans_path.read_text())
    finally:
        client.uninstall()
        daemon.kill()
        daemon.remove()
    circuit = alu74181()
    collapse = len(collapse_faults(circuit)) / len(all_faults(circuit))
    serve_layers(result, dump["spans"], dump["counters"], jobs, (start, end),
                 _daemon_stats(manifest), untraced_wall, collapse, client.spans)
    for message in traced.failures:
        result.fail(f"traced replay: {message}")
    result.attempted += traced.attempted
