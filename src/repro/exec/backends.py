"""Pluggable execution backends: inline, fork, spawn, thread-lane.

One interface, :class:`ExecutorBackend`, behind every way this repo
runs units of work in parallel — so the sharded fault simulator and
the service's execution lanes stop hard-coding a fork pool and a
platform without ``fork`` stops silently degrading to in-process
execution.

The contract every backend implements:

* ``map(task_fn, payload, tasks, workers=, policy=)`` — run
  ``task_fn(payload, task, attempt)`` for every task, at most
  ``workers`` at a time, retrying failed attempts per
  ``policy.retry`` with its jittered backoff and enforcing
  ``policy.timeout_s`` as a per-attempt deadline where the backend can
  (see the matrix below).  Returns a
  :class:`~repro.resilience.SupervisionOutcome`; every failed attempt
  is classified ``crash`` / ``hang`` / ``exception`` and settled by
  one function, so callers keep one failure-handling path regardless
  of backend.
* **State shipping** — ``payload`` is how per-run state (circuit,
  patterns, fault shards) reaches the workers.  ``inline`` and
  ``thread-lane`` pass it by reference.  ``fork`` and ``spawn`` hand
  ``(task_fn, payload)`` to each worker process as it starts: ``fork``
  by inheritance (never pickled, so closures work), ``spawn`` pickled
  once per worker (so ``task_fn`` must be a module-level importable
  callable and ``payload`` must pickle).
* **Telemetry fold-back** — work that runs outside the caller's
  :func:`repro.telemetry.capture` context (another process *or*
  another thread: capture state is a :class:`contextvars.ContextVar`
  that new threads do not inherit) accumulates counters the caller's
  session never sees.  Such a ``task_fn`` must capture its own
  telemetry and return the counters with its result; the caller
  replays them into its sink exactly when
  :attr:`ExecutorBackend.replays_counters` is True.  ``inline`` is the
  only backend whose tasks tee straight into the caller's capture
  (replaying there would double-count).

Capability matrix:

============  =========  ===========  ==================  ===============
backend       isolated   deadlines    replays_counters    best for
============  =========  ===========  ==================  ===============
inline        no         no           no                  workers=1, debugging
fork          yes        kill worker  yes                 CPU-bound, POSIX
spawn         yes        kill worker  yes                 CPU-bound, any platform
thread-lane   no         abandon      yes                 store-hit / I/O-bound
============  =========  ===========  ==================  ===============

``fork`` and ``spawn`` share one supervised process pool and differ
only in the start method.  Each ``map`` starts at most ``workers``
worker processes and feeds them one task at a time over a pipe.  A
worker whose pipe reads EOF has crashed; one past its deadline is
terminated (then killed) as hung; either is replaced by a fresh
worker if tasks remain.  A worker with nothing left to run exits at
once, and ``map`` never returns with a worker alive — so a crashing or
hanging task cannot take the caller down (and the chaos harness may
inject real ``os._exit`` crashes there).  ``thread-lane`` cannot kill
a running thread: a task past its deadline is *abandoned* (it may
still run to completion into the void, and ``map`` does not wait for
it) and retried per policy — fine for the I/O-bound service work it
exists for, wrong for tasks with side effects that must not run twice.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import wait as _futures_wait
from multiprocessing import connection
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from .. import telemetry
from ..resilience.policy import traceback_digest
from ..resilience.supervisor import (
    CRASH,
    EXCEPTION,
    HANG,
    OK,
    SupervisionOutcome,
    SupervisionPolicy,
    TaskFailure,
)

__all__ = [
    "BACKENDS",
    "ExecutorBackend",
    "InlineBackend",
    "ForkBackend",
    "SpawnBackend",
    "ThreadLaneBackend",
    "create_backend",
    "auto_backend",
]

#: Canonical backend names, in auto-selection preference order for
#: process work (``thread-lane`` is never auto-picked for CPU work).
BACKENDS = ("fork", "spawn", "inline", "thread-lane")

#: ``task_fn(payload, task, attempt) -> result``
TaskFn = Callable[[Any, Any, int], Any]


def _settle_failure(
    outcome: SupervisionOutcome,
    policy: SupervisionPolicy,
    pending: List[Tuple[Any, int]],
    task: Any,
    attempt: int,
    kind: str,
    error: str,
    message: str,
    digest: str,
) -> None:
    """One failed attempt: count it, then retry or fail the task.

    Every backend settles every failed attempt here, so failures look
    identical to callers: the same ``resilience.*`` counters, event
    rows and :class:`~repro.resilience.TaskFailure` shape.
    """
    telemetry.incr(f"resilience.worker_{kind}")
    retry = policy.retry
    if attempt < retry.max_retries:
        telemetry.incr("resilience.retry")
        outcome.retries += 1
        delay = retry.wait(f"task:{task}", attempt)
        outcome.events.append(
            {"task": task, "attempt": attempt, "kind": kind,
             "error": error, "action": "retry", "delay_s": delay}
        )
        pending.append((task, attempt + 1))
    else:
        outcome.events.append(
            {"task": task, "attempt": attempt, "kind": kind,
             "error": error, "action": "gave_up", "delay_s": 0.0}
        )
        outcome.failed[task] = TaskFailure(
            task=task, kind=kind, error=error, message=message,
            digest=digest, attempts=attempt + 1,
        )


class ExecutorBackend:
    """Interface every execution backend implements (see module doc)."""

    #: Canonical name, recorded in manifests' ``workers.backend``.
    name: str = "abstract"
    #: Tasks run in a child process (crash/hang cannot hurt the caller;
    #: worker-kind chaos injection is safe).
    isolated: bool = False
    #: Telemetry fold-back contract: True when the caller must replay
    #: the counters a task returned (work ran outside the caller's
    #: capture context); False when capture tee already delivered them.
    replays_counters: bool = True

    @classmethod
    def available(cls) -> bool:
        """Can this backend run on this platform?"""
        return True

    def map(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: Iterable[Any],
        *,
        workers: int = 1,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisionOutcome:
        """Run every task, supervised; see the module contract."""
        raise NotImplementedError


class InlineBackend(ExecutorBackend):
    """Sequential in-process execution: the workers=1 reference path.

    Tasks run in the calling thread under the caller's own telemetry
    capture (tee delivers counters directly — nothing to replay).
    Deadlines are unenforceable — a task cannot be interrupted in its
    own thread — so ``policy.timeout_s`` is ignored; retries and
    failure classification still match the other backends.
    """

    name = "inline"
    isolated = False
    replays_counters = False

    def map(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: Iterable[Any],
        *,
        workers: int = 1,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisionOutcome:
        policy = policy or SupervisionPolicy()
        outcome = SupervisionOutcome(results={}, failed={})
        pending: List[Tuple[Any, int]] = [(task, 0) for task in tasks]
        while pending:
            task, attempt = pending.pop(0)
            try:
                outcome.results[task] = task_fn(payload, task, attempt)
            except Exception as exc:
                _settle_failure(
                    outcome, policy, pending, task, attempt, EXCEPTION,
                    type(exc).__name__, str(exc), traceback_digest(exc),
                )
        return outcome


# ----------------------------------------------------------------------
# The supervised process pool behind ``fork`` and ``spawn``
# ----------------------------------------------------------------------
def _worker_main(conn: Any, task_fn: TaskFn, payload: Any) -> None:
    """Worker-process loop: run each ``(task, attempt)`` received.

    Replies ``(OK, result)`` or ``(EXCEPTION, error, message, digest)``
    — the traceback itself never needs to pickle.  ``None`` or EOF on
    the pipe ends the loop; ``os._exit`` keeps a forked worker from
    flushing inherited stdio buffers or running the parent's atexit
    hooks twice.
    """
    telemetry.reset_in_child()
    try:
        for task, attempt in iter(conn.recv, None):
            try:
                reply = (OK, task_fn(payload, task, attempt))
            except BaseException as exc:  # noqa: BLE001 — must travel back
                reply = (EXCEPTION, type(exc).__name__, str(exc),
                         traceback_digest(exc))
            conn.send(reply)
    finally:
        os._exit(0)


class _Worker:
    """One pool process, its pipe, and the attempt it is running."""

    __slots__ = ("process", "conn", "task", "attempt", "deadline")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn
        self.task: Any = None
        self.attempt = 0
        self.deadline: Optional[float] = None


def _reap(worker: _Worker, grace_s: float, kill: bool) -> None:
    """Join a worker, terminating it first when ``kill``.

    A worker still alive after ``grace_s`` is killed outright.
    """
    process = worker.process
    if kill:
        process.terminate()
    process.join(grace_s)
    if process.is_alive():
        process.kill()
        process.join()
    worker.conn.close()


def _process_map(
    method: str,
    task_fn: TaskFn,
    payload: Any,
    tasks: Iterable[Any],
    workers: int,
    policy: Optional[SupervisionPolicy],
) -> SupervisionOutcome:
    """The supervised pool: ``map`` for the ``fork``/``spawn`` backends."""
    policy = policy or SupervisionPolicy()
    outcome = SupervisionOutcome(results={}, failed={})
    pending: List[Tuple[Any, int]] = [(task, 0) for task in tasks]
    context = multiprocessing.get_context(method)
    cap = max(1, workers)
    started: List[_Worker] = []
    stopped: List[_Worker] = []
    idle: List[_Worker] = []
    busy: Dict[Any, _Worker] = {}

    def start() -> _Worker:
        # Non-daemonic, so a task may start its own pool (a daemon lane's
        # cold cell shards); the ``finally`` below reaps every worker.
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main, args=(child_conn, task_fn, payload),
        )
        process.start()
        child_conn.close()
        started.append(_Worker(process, parent_conn))
        return started[-1]

    try:
        while pending or busy:
            while pending and len(busy) < cap:
                worker = idle.pop() if idle else start()
                worker.task, worker.attempt = pending.pop(0)
                worker.deadline = (
                    time.monotonic() + policy.timeout_s
                    if policy.timeout_s is not None
                    else None
                )
                try:
                    worker.conn.send((worker.task, worker.attempt))
                except OSError:
                    pass  # died idle: its pipe reads EOF below, a crash
                busy[worker.conn] = worker
            ready = connection.wait(list(busy), timeout=policy.poll_interval_s)
            now = time.monotonic()
            for conn, worker in list(busy.items()):
                if conn in ready:
                    del busy[conn]
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        _reap(worker, policy.term_grace_s, kill=False)
                        _settle_failure(
                            outcome, policy, pending, worker.task,
                            worker.attempt, CRASH, "WorkerCrash",
                            f"worker exited with code "
                            f"{worker.process.exitcode} before returning "
                            f"a result", "",
                        )
                        continue
                    idle.append(worker)
                    if reply[0] == OK:
                        outcome.results[worker.task] = reply[1]
                    else:
                        _settle_failure(
                            outcome, policy, pending, worker.task,
                            worker.attempt, EXCEPTION, *reply[1:],
                        )
                elif worker.deadline is not None and now >= worker.deadline:
                    del busy[conn]
                    _reap(worker, policy.term_grace_s, kill=True)
                    _settle_failure(
                        outcome, policy, pending, worker.task,
                        worker.attempt, HANG, "WorkerHang",
                        f"no result within {policy.timeout_s}s "
                        f"(worker terminated)", "",
                    )
            if not pending:
                # Nothing left to hand out: idle workers exit at once.
                for worker in idle:
                    try:
                        worker.conn.send(None)
                    except OSError:
                        pass
                stopped.extend(idle)
                idle.clear()
    finally:
        # Never return with a worker alive: stopped workers are joined,
        # any other is killed (a no-op for crashed and hung ones).
        for worker in started:
            _reap(worker, policy.term_grace_s, kill=worker not in stopped)
    return outcome


class ForkBackend(ExecutorBackend):
    """The supervised process pool, started by ``fork`` (POSIX only).

    ``(task_fn, payload)`` reaches the workers by fork inheritance —
    never pickled, so closures work — and only results travel back.
    """

    name = "fork"
    isolated = True
    replays_counters = True

    @classmethod
    def available(cls) -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    def map(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: Iterable[Any],
        *,
        workers: int = 1,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisionOutcome:
        return _process_map("fork", task_fn, payload, tasks, workers, policy)


class SpawnBackend(ExecutorBackend):
    """The supervised process pool, started by ``spawn`` (any platform).

    Each worker is a fresh interpreter (nothing inherited), so
    ``(task_fn, payload)`` is pickled once per worker as it starts;
    every ``map`` pays the interpreters' start-up.
    """

    name = "spawn"
    isolated = True
    replays_counters = True

    @classmethod
    def available(cls) -> bool:
        return "spawn" in multiprocessing.get_all_start_methods()

    def map(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: Iterable[Any],
        *,
        workers: int = 1,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisionOutcome:
        return _process_map("spawn", task_fn, payload, tasks, workers, policy)


class ThreadLaneBackend(ExecutorBackend):
    """Thread-pool execution for store-hit-heavy and I/O-bound work.

    Pure-Python CPU-bound tasks gain nothing here (the GIL); tasks
    that wait — on disk, sockets, or child processes — overlap fully.
    A new thread starts outside the caller's contextvar capture, so
    counters a task captured come back with its result and the caller
    replays them (``replays_counters``).  A task past its deadline is
    *abandoned*, not killed (Python threads are uninterruptible): it
    may still complete into the void while its retry runs — ``map``
    does not wait for it — so tasks must be idempotent, which
    store-first service work is.
    """

    name = "thread-lane"
    isolated = False
    replays_counters = True

    def map(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: Iterable[Any],
        *,
        workers: int = 1,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisionOutcome:
        policy = policy or SupervisionPolicy()
        outcome = SupervisionOutcome(results={}, failed={})
        tasks = list(tasks)
        if not tasks:
            return outcome
        cap = max(1, workers)
        pending: List[Tuple[Any, int]] = [(task, 0) for task in tasks]
        running: Dict[Any, Tuple[Any, int, Optional[float]]] = {}
        abandoned = False
        pool = ThreadPoolExecutor(
            max_workers=cap, thread_name_prefix="repro-exec-lane"
        )
        try:
            while pending or running:
                while pending and len(running) < cap:
                    task, attempt = pending.pop(0)
                    future = pool.submit(task_fn, payload, task, attempt)
                    deadline = (
                        time.monotonic() + policy.timeout_s
                        if policy.timeout_s is not None
                        else None
                    )
                    running[future] = (task, attempt, deadline)
                done, _ = _futures_wait(
                    set(running), timeout=policy.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                for future in list(running):
                    task, attempt, deadline = running[future]
                    if future in done:
                        del running[future]
                        try:
                            outcome.results[task] = future.result()
                        except Exception as exc:
                            _settle_failure(
                                outcome, policy, pending, task, attempt,
                                EXCEPTION, type(exc).__name__, str(exc),
                                traceback_digest(exc),
                            )
                    elif deadline is not None and now >= deadline:
                        del running[future]
                        if not future.cancel():
                            abandoned = True
                        _settle_failure(
                            outcome, policy, pending, task, attempt, HANG,
                            "WorkerHang",
                            f"no result within {policy.timeout_s}s "
                            f"(thread abandoned)", "",
                        )
        finally:
            # Abandoned (hung) attempts must not block the caller.
            pool.shutdown(wait=not (abandoned or running))
        return outcome


_REGISTRY: Dict[str, type] = {
    "inline": InlineBackend,
    "fork": ForkBackend,
    "spawn": SpawnBackend,
    "thread-lane": ThreadLaneBackend,
    "thread": ThreadLaneBackend,  # convenience alias
}


def auto_backend() -> ExecutorBackend:
    """The default process backend: fork where available, else spawn.

    Fork ships state for free (inheritance); spawn pays one pickle per
    worker but runs everywhere — so spawn-only platforms get a real
    pool instead of silently degrading to in-process execution.
    """
    if ForkBackend.available():
        return ForkBackend()
    return SpawnBackend()


def create_backend(
    spec: Union[None, str, ExecutorBackend] = None,
) -> ExecutorBackend:
    """Resolve a backend: an instance passes through, a name constructs
    one, ``None`` auto-selects (:func:`auto_backend`)."""
    if isinstance(spec, ExecutorBackend):
        return spec
    if spec is None:
        return auto_backend()
    name = str(spec).strip().lower().replace("_", "-")
    cls = _REGISTRY.get(name)
    if cls is None:
        known = sorted(set(BACKENDS))
        raise ValueError(
            f"unknown execution backend {spec!r}; available: {known}"
        )
    return cls()
