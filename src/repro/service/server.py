"""The multi-tenant campaign daemon: ``python -m repro serve``.

The paper's economics only pay off when fault grading is cheap enough
to run *constantly* — which means a long-lived shared service, not a
per-developer CLI invocation.  :class:`CampaignService` is that
service: an asyncio job-queue daemon in front of the content-addressed
:class:`~repro.store.ResultStore`.

Architecture (one process, one event loop):

* **Connections** — each client connection carries one request
  (:mod:`repro.service.protocol`) and gets a stream of JSON-line
  events back.  Submissions expand a :class:`~repro.campaign.spec.
  CampaignSpec` into cells; every cell streams back as soon as it
  finishes, in deterministic spec order.
* **Jobs outlive connections** — a submission becomes a :class:`Job`:
  an event buffer filled by a detached ``_run_job`` task, with every
  event carrying a job-scoped strictly-increasing ``seq`` (``accepted``
  is 0, cells 1..N, ``done`` N+1).  The connection merely *streams*
  that buffer; a dropped connection loses nothing, and the protocol-v3
  ``resume`` op re-attaches to the buffer after the client's last-seen
  ``seq`` — exact, no duplicates, no gaps.
* **Crash safety (journal-before-ack)** — every accepted job is
  appended to ``<store>/jobs.jsonl``
  (:class:`~repro.service.journal.JobJournal`) *before* the
  ``accepted`` event goes on the wire.  A daemon SIGKILLed mid-job
  replays the journal on restart and re-enqueues each open job through
  the scheduler; cells that finished before the crash are
  content-addressed store hits, so recovery only re-pays the work the
  crash actually lost, and a resuming client sees the identical
  deterministic event order.  Replay tolerates a torn final journal
  line (skip + count); an outright unreadable journal makes ``serve``
  exit with code 3 rather than run with recovery silently broken.
* **Dedupe through ``cache_key``** — a cell's identity is its content
  address.  Before scheduling, the server consults the *in-flight
  table*: if another tenant's identical cell is already executing, the
  new job attaches to the same :class:`asyncio.Future` (``shared``),
  paying zero additional work; if the store already holds the
  artifact, the job gets a warm ``hit``.  Only genuinely novel cells
  become cold ``miss`` executions.
* **N execution lanes, fair-share scheduled** — ``--lanes N`` runs N
  concurrent lane tasks, each draining the
  :class:`~repro.service.scheduler.FairShareScheduler` (per-tenant
  deficit round-robin over per-tenant priority queues, so one tenant's
  bulk campaign cannot starve another's interactive submission; the
  optional ``priority`` field biases order within a
  tenant).  Lane telemetry is safe because
  :func:`repro.telemetry.capture` is contextvar-scoped and re-entrant
  across threads.  With more than one lane, cold cells execute in a
  :mod:`repro.exec` *process* backend (fork where available, else
  spawn) so lanes actually overlap on CPU-bound work instead of
  serializing on the GIL — store hits stay in the lane thread, where
  they overlap on I/O.  Intra-cell parallelism still comes from the
  sharded executor (``workers=N`` per cell).
* **Tenant isolation** — a poisoned netlist fails *its* cell: the
  failure is retried per :class:`~repro.resilience.RetryPolicy`, then
  recorded as a :class:`~repro.resilience.FailureRecord` and streamed
  to the waiting job(s) while the queue moves on
  (:class:`~repro.resilience.FailurePolicy` ``quarantine``, the
  daemon default).  Under ``raise`` the *job* aborts after the failed
  cell — the daemon itself never dies on tenant input.
* **Store lifecycle** — the store runs under a
  :class:`~repro.store.LifecyclePolicy`: every cold put may trigger an
  LRU pass, but keys of scheduled/streaming cells are *pinned*, so an
  in-flight job can never lose its own artifacts to eviction.
* **Quotas** — cold executions charge their artifact bytes to the
  submitting tenant; a tenant at or over ``tenant_quota_bytes`` has
  further submissions rejected (cache hits are free — shared results
  are the whole point).  Charges are journaled to
  ``<store>/tenants.jsonl`` (:class:`~repro.service.accounting.
  TenantLedger`) and replayed on start, so quotas survive daemon
  restarts.
* **Daemon chaos** — a :class:`~repro.resilience.ChaosConfig` can turn
  the service's own failure modes on, seeded: abort a client
  connection mid-stream (``drop_client_rate``; the client resumes),
  crash, hang or fail a cold cell's worker with the shard workers'
  ``crash_rate`` / ``hang_rate`` / ``exception_rate`` (one
  retry-budget attempt, charged once), SIGKILL the whole daemon after
  N cold cells
  (``daemon_kill_after_cells``; restart recovery replays the
  journal), and tear the journal tail mid-append
  (``corrupt_journal_rate``; replay skips it).  Chaos runs must end
  byte-identical to clean runs — that is what the recovery tests
  assert.

On shutdown (SIGTERM/SIGINT or the ``shutdown`` op) the daemon stops
accepting, drains its queue so no client is cut off mid-stream, and
writes a validated :class:`~repro.telemetry.RunManifest` with a
``service`` section to ``<store>/service/manifest.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import telemetry
from ..campaign.runner import cell_cache_key, encode_cell_result, execute_cell
from ..campaign.spec import CampaignCell, CampaignSpec
from ..exec.backends import ExecutorBackend, create_backend
from ..resilience import ChaosConfig, FailurePolicy, RetryPolicy, failure_record
from ..resilience.supervisor import SupervisionPolicy
from ..store import KIND_CAMPAIGN_CELL, LifecyclePolicy, ResultStore
from ..store.store import write_atomic
from .accounting import TenantLedger
from .journal import JobJournal
from .scheduler import FairShareScheduler
from .protocol import (
    DEFAULT_PRIORITY,
    DEFAULT_TENANT,
    EVENT_ACCEPTED,
    EVENT_BYE,
    EVENT_CELL,
    EVENT_DONE,
    EVENT_ERROR,
    EVENT_STATUS,
    MAX_LINE_BYTES,
    OP_RESUME,
    OP_SHUTDOWN,
    OP_STATUS,
    OP_SUBMIT,
    PROTOCOL_SCHEMA,
    ProtocolError,
    decode_line,
    encode_line,
    validate_request,
)

__all__ = [
    "ServiceConfig",
    "ServiceStats",
    "Job",
    "CampaignService",
    "run_service",
]


class CellExecutionError(Exception):
    """A cold cell failed inside a process backend (crash/hang/raise)."""


def _cold_cell_task(
    payload: Tuple[
        CampaignCell, Dict[str, Any], int, str, Optional[str],
        Optional[ChaosConfig], int,
    ],
    task: int,
    attempt: int,
) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """Backend task: run one cold cell in a child process.

    Module-level so the spawn backend can pickle it.  The child runs
    under its own :func:`telemetry.capture` and returns the counters
    alongside the encoded payload — the parent lane replays them (the
    exec fold-back contract; child-process counters would otherwise
    vanish with the child).  Worker chaos (crash/hang/exception) is
    shipped in the payload and injected *here*, in the child, with the
    lane's retry attempt — never in the daemon process.
    """
    del task, attempt  # one cell per map call; retries live in the lane
    (cell, params, workers, key, backend_spec, chaos, lane_attempt) = payload
    if chaos is not None:
        chaos.inject_worker(f"cell:{cell.cell_id}", lane_attempt)
    with telemetry.capture() as session:
        result = execute_cell(
            cell, params, workers=workers, key=key, backend=backend_spec
        )
        encoded = encode_cell_result(result)
        counters = dict(session.counters)
    return encoded, counters


@dataclass
class ServiceConfig:
    """Everything one daemon instance needs to know."""

    store_root: Union[str, Path] = ".repro-store"
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; discover via the ready file
    workers: int = 1  # per-cell sharding (execute_cell workers=N)
    lanes: int = 1  # concurrent execution lanes (fair-share scheduled)
    exec_backend: Optional[str] = None  # repro.exec backend; None = auto
    max_retries: int = 0
    failure_policy: Union[str, FailurePolicy] = FailurePolicy.QUARANTINE
    size_budget_bytes: Optional[int] = None
    quarantine_max_files: int = 64
    quarantine_max_age_s: Optional[float] = None
    tenant_quota_bytes: Optional[int] = None
    ready_file: Optional[Union[str, Path]] = None
    drain_timeout_s: float = 120.0
    #: Journal accepted jobs to <store>/jobs.jsonl (journal-before-ack)
    #: and recover open jobs on start.  Off = session-local jobs only.
    job_journal: bool = True
    #: Finished jobs kept resumable (event buffers retained).  Open
    #: jobs are never evicted from the resume table.
    job_history: int = 64
    #: Per-attempt wall-clock bound for a cold cell in a process
    #: backend (supervision timeout — how hung lane workers die).
    #: None = unbounded; inline execution cannot be deadlined.
    cell_deadline_s: Optional[float] = None

    def lifecycle(self) -> LifecyclePolicy:
        """The store lifecycle policy this config implies."""
        return LifecyclePolicy(
            size_budget_bytes=self.size_budget_bytes,
            quarantine_max_files=self.quarantine_max_files,
            quarantine_max_age_s=self.quarantine_max_age_s,
        )


@dataclass
class ServiceStats:
    """One daemon lifetime's traffic counters.

    ``cells`` counts requested cell-slots across all jobs; of those,
    ``hits`` were served from disk, ``misses`` were computed cold,
    ``shared`` attached to an already-in-flight identical execution,
    and ``failed`` failed permanently.  ``hits + misses + failed`` is
    the number of actual executions; ``shared / cells`` is the dedupe
    ratio concurrent duplicate traffic achieved on top of the store.
    ``recovered`` jobs were replayed from the journal on start,
    ``resumed`` counts ``resume`` re-attachments, ``retries`` counts
    per-cell re-attempts, and ``dropped`` counts chaos-aborted client
    connections.
    """

    jobs: int = 0
    cells: int = 0
    hits: int = 0
    misses: int = 0
    shared: int = 0
    failed: int = 0
    rejected: int = 0
    evicted: int = 0
    recovered: int = 0
    resumed: int = 0
    retries: int = 0
    dropped: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe copy for status events and the service manifest."""
        return asdict(self)


class Job:
    """One accepted submission, decoupled from any connection.

    The job's ``_run_job`` task appends events (each stamped with the
    next ``seq``) to :attr:`events` and notifies :attr:`cond`; any
    number of streamers — the submitting connection, later ``resume``
    connections — replay the buffer from their own offset and then
    follow live.  The buffer is the resume source of truth, so it is
    retained after :attr:`finished` until the job ages out of the
    daemon's bounded history.
    """

    __slots__ = (
        "job_id", "tenant", "priority", "return_payloads", "spec",
        "recovered", "events", "next_seq", "finished", "drops", "cond",
        "task",
    )

    def __init__(
        self,
        job_id: str,
        tenant: str,
        priority: int,
        return_payloads: bool,
        spec: Dict[str, Any],
        recovered: bool = False,
    ) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.priority = priority
        self.return_payloads = return_payloads
        self.spec = spec
        self.recovered = recovered
        self.events: List[Dict[str, Any]] = []
        self.next_seq = 0
        self.finished = False
        #: How often a streamer of this job was chaos-dropped — feeds
        #: ChaosConfig.decide_drop_client so first_attempt_only chaos
        #: never re-drops the post-resume replay of the same event.
        self.drops = 0
        self.cond: Optional[asyncio.Condition] = None
        self.task: Optional["asyncio.Task[None]"] = None


class CampaignService:
    """Asyncio job-queue daemon over one shared :class:`ResultStore`."""

    def __init__(
        self,
        config: ServiceConfig,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.config = config
        self.chaos = chaos
        self.store = ResultStore(config.store_root, config.lifecycle())
        self.failure_policy = FailurePolicy.coerce(config.failure_policy)
        self.retry = RetryPolicy(max_retries=max(0, config.max_retries))
        self.stats = ServiceStats()
        self.lanes = max(1, int(config.lanes))
        # Per-tenant accounting and accepted jobs survive restarts:
        # replay <store>/tenants.jsonl and <store>/jobs.jsonl now (each
        # raises JobJournalError -> serve exit code 3 if unreadable);
        # open jobs found here are re-enqueued in start().
        self.ledger = TenantLedger(self.store.root)
        self.journal = JobJournal(
            self.store.root, enabled=config.job_journal, chaos=chaos
        )
        self.scheduler = FairShareScheduler()
        self.address: Optional[Tuple[str, int]] = None
        self._inflight: Dict[str, "asyncio.Future[Any]"] = {}
        #: Every resumable job (open + bounded finished history).
        self._jobs: Dict[str, Job] = {}
        self._finished_order: List[str] = []
        self._job_tasks: set = set()
        # Created in start(): on 3.9 these primitives bind to the loop
        # that exists at construction time, which must be the running
        # one or every await dies with "attached to a different loop".
        self._work: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._stop: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._lane_tasks: List["asyncio.Task[None]"] = []
        self._busy_lanes = 0
        self._conn_tasks: set = set()
        # One executor thread per lane; lanes overlap on store I/O, and
        # cold cells escape the GIL through a process backend when
        # lanes > 1 (see _cold_backend).
        self._executor = ThreadPoolExecutor(
            max_workers=self.lanes, thread_name_prefix="repro-serve"
        )
        self._cell_backend: Optional[ExecutorBackend] = None
        # Job numbering continues across restarts (journal watermark),
        # so a recovered daemon never reuses a journaled job_id.
        self._jobs_seq = self.journal.next_job_number
        self._cold_done = 0  # chaos: daemon_kill_after_cells counter
        self._started_monotonic = 0.0

    @property
    def tenant_bytes(self) -> Dict[str, int]:
        """Per-tenant charged bytes (live view of the durable ledger)."""
        return self.ledger.tenant_bytes

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, start the lanes, recover journaled jobs, write ready.

        Recovery happens *before* the ready file appears: a client that
        waited for readiness can immediately ``resume`` a job the
        previous daemon lifetime accepted.
        """
        self._work = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stop = asyncio.Event()
        if self.lanes > 1:
            # Lanes must not serialize on the GIL for cold (CPU-bound)
            # cells: dispatch those into a process backend.  When no
            # process backend exists the lanes still overlap store I/O.
            self._cell_backend = self._resolve_cell_backend()
        # Recover journaled jobs *before* the socket binds: on a fixed
        # port a resuming client may connect the instant the port is
        # live, and it must find its job registered, not unknown_job.
        for record in list(self.journal.open_jobs.values()):
            job = Job(
                record["job_id"],
                record["tenant"],
                record["priority"],
                record["return_payloads"],
                record["spec"],
                recovered=True,
            )
            self._jobs[job.job_id] = job
            self.stats.recovered += 1
            telemetry.incr("service.job.recovered")
            self._spawn_job(job)
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._lane_tasks = [
            asyncio.ensure_future(self._lane(index))
            for index in range(self.lanes)
        ]
        self._started_monotonic = time.monotonic()
        if self.config.ready_file:
            self._write_ready_file()
        return self.address

    def _resolve_cell_backend(self) -> Optional[ExecutorBackend]:
        """A process backend for cold cells, or None (inline in lane).

        Auto-selection (``exec_backend=None``) also requires >= 2
        cores: process dispatch exists to put lanes on separate cores,
        and on a single-core machine it is pure fork/pickle overhead.
        An explicitly named backend is honored regardless.
        """
        explicit = self.config.exec_backend is not None
        if not explicit and (os.cpu_count() or 1) < 2:
            return None
        backend = create_backend(self.config.exec_backend)
        if not backend.isolated:
            # inline / thread-lane cannot escape the GIL for CPU-bound
            # cell execution; run cells directly in the lane thread.
            return None
        if not type(backend).available():
            return None
        return backend

    def _write_ready_file(self) -> None:
        host, port = self.address
        payload = {
            "schema": PROTOCOL_SCHEMA,
            "host": host,
            "port": port,
            "pid": os.getpid(),
            "store": str(self.store.root),
        }
        write_atomic(
            Path(self.config.ready_file), json.dumps(payload, sort_keys=True)
        )

    def request_stop(self) -> None:
        """Ask the daemon to drain and exit (signal-handler safe)."""
        if self._stop is not None:
            self._stop.set()

    async def serve_until_stopped(self) -> None:
        """Block until a stop request, then shut down gracefully.

        Graceful means: stop accepting, let queued executions, job
        tasks, and open response streams finish (bounded by
        ``drain_timeout_s``), then write the service manifest.  A job
        still unfinished past the timeout stays *open in the journal*,
        so the next daemon lifetime recovers it.
        """
        await self._stop.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout_s
            )
        except asyncio.TimeoutError:
            pass
        if self._job_tasks:
            await asyncio.wait(
                list(self._job_tasks), timeout=self.config.drain_timeout_s
            )
        if self._conn_tasks:
            await asyncio.wait(
                list(self._conn_tasks), timeout=self.config.drain_timeout_s
            )
        for task in list(self._job_tasks) + self._lane_tasks:
            task.cancel()
        for task in list(self._job_tasks) + self._lane_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._executor.shutdown(wait=True)
        self.write_manifest()
        if self.config.ready_file:
            try:
                os.unlink(self.config.ready_file)
            except OSError:
                pass

    def uptime_s(self) -> float:
        """Seconds since :meth:`start`."""
        if not self._started_monotonic:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    # Service manifest
    # ------------------------------------------------------------------
    def service_section(self) -> Dict[str, Any]:
        """The validated ``service`` manifest section for this lifetime."""
        return {
            "jobs": self.stats.jobs,
            "cells": self.stats.cells,
            "dedupe": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "shared": self.stats.shared,
            },
            "tenants": {
                tenant: bytes_used
                for tenant, bytes_used in sorted(self.ledger.snapshot().items())
            },
            "store": dict(
                self.store.stats.to_dict(),
                entries=len(self.store),
                size_bytes=self.store.size_bytes(),
            ),
            "recovery": {
                "recovered": self.stats.recovered,
                "resumed": self.stats.resumed,
                "retries": self.stats.retries,
                "dropped": self.stats.dropped,
                "journal": self.journal.stats_dict(),
            },
        }

    def write_manifest(self) -> Path:
        """Write ``<store>/service/manifest.json`` for this lifetime."""
        manifest = telemetry.RunManifest(
            flow="service.run",
            circuit="service",
            seed=0,
            engine="service",
            method="serve",
            limits={
                "workers": self.config.workers,
                "lanes": self.lanes,
                "exec_backend": (
                    self._cell_backend.name
                    if self._cell_backend is not None
                    else None
                ),
                "max_retries": self.config.max_retries,
                "failure_policy": self.failure_policy.value,
                "size_budget_bytes": self.config.size_budget_bytes,
                "tenant_quota_bytes": self.config.tenant_quota_bytes,
            },
            stats={
                "failed": self.stats.failed,
                "rejected": self.stats.rejected,
                "evicted": self.stats.evicted,
            },
            service=self.service_section(),
        ).validate()
        path = self.store.root / "service" / "manifest.json"
        write_atomic(path, manifest.to_json(indent=2) + "\n")
        return path

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._handle(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-stream; the job keeps running
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            # Request line exceeded MAX_LINE_BYTES: the reader buffer
            # is unusable, but the connection is ours — answer with a
            # structured error instead of dying or going silent.
            telemetry.incr("service.protocol.oversized")
            await self._send(
                writer,
                {
                    "event": EVENT_ERROR,
                    "code": "protocol",
                    "error": (
                        f"request line exceeds {MAX_LINE_BYTES} bytes"
                    ),
                },
            )
            return
        if not line:
            return
        try:
            request = validate_request(decode_line(line))
        except ProtocolError as exc:
            telemetry.incr("service.protocol.rejected")
            await self._send(
                writer,
                {"event": EVENT_ERROR, "code": "protocol", "error": str(exc)},
            )
            return
        op = request["op"]
        telemetry.incr(f"service.op.{op}")
        if op == OP_SUBMIT:
            await self._handle_submit(request, writer)
        elif op == OP_RESUME:
            await self._handle_resume(request, writer)
        elif op == OP_STATUS:
            await self._send(writer, self._status_event())
        elif op == OP_SHUTDOWN:
            await self._send(writer, {"event": EVENT_BYE})
            self.request_stop()

    async def _send(
        self, writer: asyncio.StreamWriter, event: Dict[str, Any]
    ) -> None:
        writer.write(encode_line(event))
        await writer.drain()

    def _status_event(self) -> Dict[str, Any]:
        return {
            "event": EVENT_STATUS,
            "schema": PROTOCOL_SCHEMA,
            "stats": self.stats.to_dict(),
            "store": {
                "entries": len(self.store),
                "size_bytes": self.store.size_bytes(),
                "stats": self.store.stats.to_dict(),
            },
            "tenants": dict(sorted(self.ledger.snapshot().items())),
            "inflight": len(self._inflight),
            "queued": self.scheduler.queued(),
            "lanes": self.lanes,
            "jobs_open": sum(
                1 for job in self._jobs.values() if not job.finished
            ),
            "journal": self.journal.stats_dict(),
            "uptime_s": self.uptime_s(),
        }

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------
    async def _handle_submit(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        tenant = request.get("tenant", DEFAULT_TENANT)
        return_payloads = bool(request.get("return_payloads", False))
        priority = int(request.get("priority", DEFAULT_PRIORITY))
        spec_dict = request["spec"]
        try:
            CampaignSpec.from_dict(spec_dict)
        except (KeyError, TypeError, ValueError) as exc:
            self.stats.rejected += 1
            telemetry.incr("service.rejected")
            await self._send(
                writer,
                {"event": EVENT_ERROR, "code": "bad_spec", "error": str(exc)},
            )
            return
        quota = self.config.tenant_quota_bytes
        used = self.ledger.usage(tenant)
        if quota is not None and used >= quota:
            self.stats.rejected += 1
            telemetry.incr("service.quota.rejected")
            await self._send(
                writer,
                {
                    "event": EVENT_ERROR,
                    "code": "quota",
                    "error": (
                        f"tenant {tenant!r} is over its store quota "
                        f"({used} of {quota} bytes charged)"
                    ),
                    "tenant": tenant,
                    "used_bytes": used,
                    "quota_bytes": quota,
                },
            )
            return

        number = self._jobs_seq
        self._jobs_seq += 1
        job = Job(
            f"job-{number:06d}", tenant, priority, return_payloads, spec_dict
        )
        self._jobs[job.job_id] = job
        self.stats.jobs += 1
        telemetry.incr("service.jobs")
        # Journal-before-ack: the job must be durable before the client
        # can possibly learn its job_id — an acked job_id is always
        # recoverable (or the journal is off and the client knows the
        # daemon runs session-local).
        self.journal.record_accepted(
            job.job_id, number, tenant, priority, return_payloads, spec_dict
        )
        self._spawn_job(job)
        await self._stream_job(job, writer, after_seq=-1)

    async def _handle_resume(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job = self._jobs.get(request["job_id"])
        if job is None:
            telemetry.incr("service.resume.unknown")
            await self._send(
                writer,
                {
                    "event": EVENT_ERROR,
                    "code": "unknown_job",
                    "error": (
                        f"unknown job_id {request['job_id']!r} (never "
                        "accepted, aged out of history, or lost with a "
                        "torn journal tail)"
                    ),
                    "job_id": request["job_id"],
                },
            )
            return
        self.stats.resumed += 1
        telemetry.incr("service.resumed")
        await self._stream_job(
            job, writer, after_seq=int(request.get("after_seq", -1))
        )

    # ------------------------------------------------------------------
    # Jobs (detached from connections)
    # ------------------------------------------------------------------
    def _spawn_job(self, job: Job) -> None:
        """Start the job's detached runner task and track it for drain."""
        job.cond = asyncio.Condition()
        job.task = asyncio.ensure_future(self._run_job(job))
        self._job_tasks.add(job.task)
        job.task.add_done_callback(self._job_tasks.discard)

    async def _emit(self, job: Job, event: Dict[str, Any]) -> None:
        """Stamp the next seq on ``event``, buffer it, wake streamers."""
        event["seq"] = job.next_seq
        job.next_seq += 1
        job.events.append(event)
        async with job.cond:
            job.cond.notify_all()

    async def _finish_job(self, job: Job) -> None:
        """Mark the job terminal and retire the oldest finished jobs."""
        job.finished = True
        async with job.cond:
            job.cond.notify_all()
        self._finished_order.append(job.job_id)
        while len(self._finished_order) > max(0, self.config.job_history):
            oldest = self._finished_order.pop(0)
            retired = self._jobs.get(oldest)
            if retired is not None and retired.finished:
                del self._jobs[oldest]

    async def _run_job(self, job: Job) -> None:
        """Execute one job into its event buffer, no connection needed.

        This is the only writer of ``job.events``; it journals the job
        ``done`` after the terminal event is buffered, so a crash at
        any earlier point leaves the job open for the next lifetime.
        """
        loop = asyncio.get_running_loop()
        keyed: List[Tuple[CampaignCell, str]] = []
        try:
            try:
                spec = CampaignSpec.from_dict(job.spec)
                # Expansion and key hashing build circuits — off the loop.
                cells, skipped = await loop.run_in_executor(None, spec.expand)
                keyed = await loop.run_in_executor(
                    None,
                    lambda: [
                        (cell, cell_cache_key(cell, spec.params))
                        for cell in cells
                    ],
                )
            except Exception as exc:
                # Unreachable for submissions (spec pre-validated);
                # guards recovery of a journal written by a newer/older
                # daemon whose spec no longer parses.
                await self._emit(
                    job,
                    {
                        "event": EVENT_ERROR,
                        "code": "bad_spec",
                        "error": str(exc),
                        "job_id": job.job_id,
                    },
                )
                self.journal.record_done(job.job_id)
                return
            self.stats.cells += len(keyed)
            await self._emit(
                job,
                {
                    "event": EVENT_ACCEPTED,
                    "job_id": job.job_id,
                    "tenant": job.tenant,
                    "campaign": spec.name,
                    "cells": len(keyed),
                    "skipped": len(skipped),
                    "priority": job.priority,
                    "recovered": job.recovered,
                },
            )
            # Schedule every cell up-front so duplicates inside *and
            # across* jobs collapse onto one in-flight execution, then
            # buffer each result in deterministic spec order as it
            # completes.  Keys stay pinned (per job) from scheduling
            # until their event is buffered, so an LRU pass can never
            # evict an in-flight artifact.
            slots = [
                self._ensure_cell(
                    key, cell, spec.params, job.tenant, job.priority
                )
                for cell, key in keyed
            ]
            job_hits = job_misses = job_shared = job_failed = 0
            aborted = False
            unpinned = set()
            try:
                for index, ((cell, key), (future, shared)) in enumerate(
                    zip(keyed, slots)
                ):
                    if aborted:
                        continue
                    payload, cached, failure = await asyncio.shield(future)
                    event: Dict[str, Any] = {
                        "event": EVENT_CELL,
                        "job_id": job.job_id,
                        "index": index,
                        "of": len(keyed),
                        "cell_id": cell.cell_id,
                        "key": key,
                        "cached": cached,
                        "shared": shared,
                    }
                    if failure is not None:
                        job_failed += 1
                        event["status"] = "failed"
                        event["failure"] = failure.to_dict()
                        if self.failure_policy is FailurePolicy.RAISE:
                            aborted = True
                    else:
                        event["status"] = "ok"
                        event["stats"] = payload["stats"]
                        if job.return_payloads:
                            event["payload"] = payload
                        if shared:
                            job_shared += 1
                        elif cached:
                            job_hits += 1
                        else:
                            job_misses += 1
                    await self._emit(job, event)
                    self.store.unpin(key)
                    unpinned.add(index)
            finally:
                # Aborted jobs (raise policy / cancelled drain) must
                # still drop the pins of every cell never buffered.
                for index, (_, key) in enumerate(keyed):
                    if index not in unpinned:
                        self.store.unpin(key)
            await self._emit(
                job,
                {
                    "event": EVENT_DONE,
                    "job_id": job.job_id,
                    "tenant": job.tenant,
                    "cells": len(keyed),
                    "hits": job_hits,
                    "misses": job_misses,
                    "shared": job_shared,
                    "failed": job_failed,
                    "aborted": aborted,
                    "tenant_bytes": self.ledger.usage(job.tenant),
                },
            )
            # Done is journaled only after the terminal event exists:
            # a crash anywhere before this line leaves the job open, so
            # the next lifetime re-runs it (hits-only) and a resuming
            # client still reaches its ``done``.
            self.journal.record_done(job.job_id)
        finally:
            await self._finish_job(job)

    async def _stream_job(
        self,
        job: Job,
        writer: asyncio.StreamWriter,
        after_seq: int,
    ) -> None:
        """Send ``job`` events with ``seq > after_seq``; follow live.

        Replays the buffer first (resume path), then waits on the
        job's condition for fresh events until the terminal event has
        been sent.  Chaos ``drop_client_rate`` bites here: the
        connection is aborted (hard RST, mid-stream) *before* a chosen
        event is sent, exactly what a flaky network does to a client.
        """
        cursor = 0
        while True:
            while cursor < len(job.events):
                event = job.events[cursor]
                cursor += 1
                if event["seq"] <= after_seq:
                    continue
                # Chaos drops are *mid-stream* only (seq >= 1): before
                # the accepted event the client holds no job_id to
                # resume with, so a pre-ack drop just forces a
                # resubmit — a different (and always-available) path.
                if (
                    self.chaos is not None
                    and event["seq"] >= 1
                    and self.chaos.decide_drop_client(
                        job.job_id, event["seq"], job.drops
                    )
                ):
                    job.drops += 1
                    self.stats.dropped += 1
                    telemetry.incr("service.chaos.dropped")
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
                    return
                await self._send(writer, event)
            if job.finished and cursor >= len(job.events):
                return
            async with job.cond:
                if cursor >= len(job.events) and not job.finished:
                    await job.cond.wait()

    def _ensure_cell(
        self,
        key: str,
        cell: CampaignCell,
        params: Dict[str, Any],
        tenant: str,
        priority: int = DEFAULT_PRIORITY,
    ) -> Tuple["asyncio.Future[Any]", bool]:
        """The future resolving ``key``; shared when already in flight."""
        self.store.pin(key)
        future = self._inflight.get(key)
        if future is not None:
            telemetry.incr("service.cell.shared")
            self.stats.shared += 1
            return future, True
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self.scheduler.push(
            tenant, priority, (key, cell, dict(params), tenant, future)
        )
        self._idle.clear()
        self._work.set()
        return future, False

    # ------------------------------------------------------------------
    # Execution lanes
    # ------------------------------------------------------------------
    async def _lane(self, lane_index: int) -> None:
        """One execution lane: drain the fair-share scheduler forever.

        Scheduler pops and the busy/idle bookkeeping all happen on the
        event-loop thread (no awaits in between), so N lanes never race
        on the scheduler; only the cell execution itself leaves the
        loop, via the lane's executor thread.
        """
        loop = asyncio.get_running_loop()
        while True:
            entry = self.scheduler.pop()
            if entry is None:
                if self._busy_lanes == 0:
                    self._idle.set()
                self._work.clear()
                await self._work.wait()
                continue
            key, cell, params, tenant, future = entry.item
            self._busy_lanes += 1
            lane_start = time.monotonic()
            try:
                try:
                    outcome, retries = await loop.run_in_executor(
                        self._executor, self._execute, key, cell, params
                    )
                except Exception as exc:  # defensive: _execute catches
                    outcome, retries = (
                        None,
                        False,
                        failure_record(
                            f"cell:{cell.cell_id}",
                            exc,
                            attempts=1,
                            action=self.failure_policy.value,
                            detail={"key": key, "tenant": tenant},
                        ),
                    ), 0
                payload, cached, failure = outcome
                self.stats.retries += retries
                if failure is not None:
                    self.stats.failed += 1
                    telemetry.incr("service.cell.failed")
                elif cached:
                    self.stats.hits += 1
                    telemetry.incr("service.cell.hit")
                else:
                    self.stats.misses += 1
                    telemetry.incr("service.cell.miss")
                    self._charge(tenant, key)
                self._inflight.pop(key, None)
                if not future.done():
                    future.set_result(outcome)
            finally:
                # Deficit accounting: lane seconds drive which tenant
                # the scheduler serves next.
                self.scheduler.charge(tenant, time.monotonic() - lane_start)
                self._busy_lanes -= 1
                if self._busy_lanes == 0 and self.scheduler.queued() == 0:
                    self._idle.set()

    def _execute(
        self, key: str, cell: CampaignCell, params: Dict[str, Any]
    ) -> Tuple[
        Tuple[Optional[Dict[str, Any]], bool, Optional[Any]], int
    ]:
        """One cell, in the worker thread: store-first, retried, isolated.

        Returns ``((payload, cached, failure), retries)`` — exactly one
        of ``payload`` / ``failure`` is set.  Any exception (a poisoned
        netlist, a flow bug, injected worker chaos) becomes a
        :class:`FailureRecord` after the retry budget; it never
        propagates into the daemon.
        """
        attempt = 0
        while True:
            try:
                payload = self.store.get(key, KIND_CAMPAIGN_CELL)
                if payload is not None:
                    return (payload, True, None), attempt
                if self.chaos is not None:
                    self.chaos.check_poison_cell(cell.cell_id)
                    if self._cell_backend is None:
                        # No worker process to crash or hang: injected
                        # faults raise into this retry loop.
                        self.chaos.inject_inline(
                            f"cell:{cell.cell_id}", attempt
                        )
                payload = self._execute_cold(key, cell, params, attempt)
                self.store.put(key, KIND_CAMPAIGN_CELL, payload)
                self._maybe_kill_daemon()
                return (payload, False, None), attempt
            except Exception as exc:
                if attempt < self.retry.max_retries:
                    telemetry.incr("service.cell.retry")
                    self.retry.wait(f"cell:{cell.cell_id}", attempt)
                    attempt += 1
                    continue
                return (
                    None,
                    False,
                    failure_record(
                        f"cell:{cell.cell_id}",
                        exc,
                        attempts=attempt + 1,
                        action=self.failure_policy.value,
                        detail={"cell_id": cell.cell_id, "key": key},
                    ),
                ), attempt

    def _maybe_kill_daemon(self) -> None:
        """Chaos ``daemon_kill_after_cells``: SIGKILL-equivalent, now.

        Runs *after* the cold artifact hit the store, so the crash
        lands exactly between cells — the scenario restart recovery
        must turn into hits-only replay.  ``os._exit`` skips every
        drain/manifest/ready-file courtesy, like a real kill -9.
        """
        if self.chaos is None or self.chaos.daemon_kill_after_cells is None:
            return
        self._cold_done += 1
        if self._cold_done >= self.chaos.daemon_kill_after_cells:
            os._exit(137)

    def _execute_cold(
        self,
        key: str,
        cell: CampaignCell,
        params: Dict[str, Any],
        attempt: int = 0,
    ) -> Dict[str, Any]:
        """Run one cold cell; in a process backend when lanes demand it.

        With one lane (or no process backend) the cell runs right here
        in the lane thread.  With multiple lanes the cell ships to a
        fork/spawn child so concurrent cold cells use real cores (its
        ``workers`` shard pool nests inside that child); the child
        captures its own telemetry and the counters are replayed here
        (the exec fold-back contract — the lane thread is outside the
        connection's capture context anyway, so counters land in the
        process-global base either way).  A child failure — including
        a chaos-crashed, -hung or -failed worker, the hung one reaped
        by the ``cell_deadline_s`` supervision timeout — re-raises into
        the caller's retry loop, consuming exactly one retry-budget
        attempt.
        """
        backend = self._cell_backend
        if backend is None:
            result = execute_cell(
                cell,
                params,
                workers=self.config.workers,
                key=key,
                backend=self.config.exec_backend,
            )
            return encode_cell_result(result)
        outcome = backend.map(
            _cold_cell_task,
            (cell, dict(params), self.config.workers, key,
             self.config.exec_backend, self.chaos, attempt),
            [0],
            workers=1,
            policy=SupervisionPolicy(
                timeout_s=self.config.cell_deadline_s,
                retry=RetryPolicy(max_retries=0),
            ),
        )
        if 0 in outcome.results:
            payload, counters = outcome.results[0]
            for name, value in counters.items():
                telemetry.incr(name, value)
            return payload
        failure = outcome.failed[0]
        raise CellExecutionError(
            f"{failure.error}: {failure.message} "
            f"(kind={failure.kind}, backend={backend.name})"
        )

    def _charge(self, tenant: str, key: str) -> None:
        """Charge a cold artifact's bytes to the tenant that caused it."""
        try:
            size = self.store.path_for(key).stat().st_size
        except OSError:
            size = 0
        self.ledger.charge(tenant, size)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
async def _amain(config: ServiceConfig, chaos: Optional[ChaosConfig]) -> int:
    service = CampaignService(config, chaos=chaos)
    host, port = await service.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, service.request_stop)
        except NotImplementedError:  # non-POSIX event loops
            pass
    print(
        f"[serve] listening on {host}:{port} "
        f"store={service.store.root} pid={os.getpid()} "
        f"recovered={service.stats.recovered}",
        flush=True,
    )
    await service.serve_until_stopped()
    stats = service.stats
    print(
        f"[serve] drained: jobs={stats.jobs} cells={stats.cells} "
        f"hits={stats.hits} misses={stats.misses} shared={stats.shared} "
        f"failed={stats.failed} rejected={stats.rejected} "
        f"recovered={stats.recovered} resumed={stats.resumed}",
        flush=True,
    )
    return 0


def run_service(
    config: ServiceConfig, chaos: Optional[ChaosConfig] = None
) -> int:
    """Run the daemon until SIGTERM/SIGINT/shutdown; returns exit code.

    An unreadable jobs journal or tenant ledger
    (:class:`~repro.service.journal.JobJournalError`) propagates —
    ``python -m repro serve`` maps it to exit code 3.
    """
    try:
        return asyncio.run(_amain(config, chaos))
    except KeyboardInterrupt:
        return 0
