"""Durable job journal: accepted work survives a daemon SIGKILL.

The daemon's crash-safety contract is *journal-before-ack*: a job's
full description (spec, tenant, priority) is appended to
``<store>/jobs.jsonl`` **before** the ``accepted`` event goes on the
wire.  A client that has seen an ack therefore holds a ``job_id`` the
next daemon can find: on start, :class:`JobJournal` replays the
journal, and every *open* job (an ``accepted`` line with no matching
``done``) is re-enqueued through the scheduler.  Re-running is cheap —
cells that completed before the crash are content-addressed store
hits, so recovery only pays for the work the crash actually lost.

Journal lines (an :class:`~repro.store.store.AppendLog`, like
``tenants.jsonl`` and the store's ``index.jsonl``)::

    {"op": "accepted", "n": int, "job": {job_id, tenant, priority,
                                         return_payloads, spec}}
    {"op": "done", "job_id": str}
    {"op": "snapshot", "next_job": int, "jobs": [open job records]}

Rotation compacts rather than discards: past
:data:`~repro.store.store.LOG_ROTATE_BYTES` the journal is renamed to
``jobs.jsonl.1`` and the fresh file opens with one ``snapshot`` line
carrying every still-open job plus the job-number watermark, so a
replay never needs the rotated file and completed jobs' lines are
garbage-collected by the same move.

Replay is torn-tail tolerant: a line that fails to parse (the classic
power-loss mid-append) is *skipped* with a telemetry counter
(``service.journal.torn``) instead of failing the restart — losing one
journal line costs at most one job's recoverability, never the
daemon.  An outright unreadable journal (permissions, a directory in
the way) raises :class:`JobJournalError`, which ``python -m repro
serve`` maps to exit code 3 — refusing to silently serve with
recovery broken.

Write failures after construction are swallowed with a counter
(``service.journal.write_failed``): like the tenant ledger, the daemon
degrades to session-local job tracking rather than refusing traffic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from .. import telemetry
from ..store.store import AppendLog

__all__ = ["JobJournal", "JobJournalError", "JOBS_JOURNAL"]

#: Journal filename under the store root.
JOBS_JOURNAL = "jobs.jsonl"


class JobJournalError(Exception):
    """A durable service file (``jobs.jsonl``, ``tenants.jsonl``) exists
    but cannot be read: starting anyway would silently drop what it
    records (open jobs, tenant quotas)."""


def _valid_job(record: Any) -> Optional[Dict[str, Any]]:
    """A replayed job record, normalized — or None if malformed."""
    if not isinstance(record, dict):
        return None
    job_id = record.get("job_id")
    spec = record.get("spec")
    if not isinstance(job_id, str) or not job_id or not isinstance(spec, dict):
        return None
    tenant = record.get("tenant")
    priority = record.get("priority", 0)
    return {
        "job_id": job_id,
        "tenant": tenant if isinstance(tenant, str) and tenant else "default",
        "priority": priority if isinstance(priority, int)
        and not isinstance(priority, bool) else 0,
        "return_payloads": bool(record.get("return_payloads", False)),
        "spec": spec,
    }


class JobJournal:
    """Durable open-job set backed by a JSONL journal under the store."""

    def __init__(
        self,
        root: Union[str, Path],
        enabled: bool = True,
        chaos: Optional[Any] = None,
    ) -> None:
        self.root = Path(root)
        self.path = self.root / JOBS_JOURNAL
        self.enabled = bool(enabled)
        self.chaos = chaos
        #: job_id -> normalized job record, in acceptance order.
        self.open_jobs: Dict[str, Dict[str, Any]] = {}
        #: First job number the new daemon lifetime may assign.
        self.next_job_number = 0
        self.torn_lines = 0
        self.rotations = 0
        self.write_failures = 0
        self._append_seq = 0
        self._log = AppendLog(self.path)
        if self.enabled:
            self._load()
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise JobJournalError(
                    f"jobs journal directory {self.root} is unusable: {exc}"
                ) from exc

    # -- replay --------------------------------------------------------
    def _load(self) -> None:
        """Rebuild the open-job set from the newest journal on disk."""
        try:
            entries, torn = self._log.replay()
        except OSError as exc:
            raise JobJournalError(
                f"jobs journal exists but cannot be read: {exc}"
            ) from exc
        if torn:
            # Torn tail (or mid-file bit rot): skipped, counted — restart
            # recovery must never die on one bad line.
            self.torn_lines += torn
            telemetry.incr("service.journal.torn", torn)
        open_jobs: Dict[str, Dict[str, Any]] = {}
        next_job = 0
        for entry in entries:
            op = entry.get("op")
            if op == "accepted":
                job = _valid_job(entry.get("job"))
                if job is not None:
                    open_jobs[job["job_id"]] = job
                number = entry.get("n")
                if isinstance(number, int) and not isinstance(number, bool):
                    next_job = max(next_job, number + 1)
            elif op == "done":
                open_jobs.pop(entry.get("job_id"), None)
            elif op == "snapshot":
                jobs = entry.get("jobs")
                if isinstance(jobs, list):
                    open_jobs = {}
                    for record in jobs:
                        job = _valid_job(record)
                        if job is not None:
                            open_jobs[job["job_id"]] = job
                number = entry.get("next_job")
                if isinstance(number, int) and not isinstance(number, bool):
                    next_job = max(next_job, number)
        self.open_jobs = open_jobs
        self.next_job_number = next_job
        if open_jobs:
            telemetry.incr("service.journal.recovered", len(open_jobs))

    # -- recording -----------------------------------------------------
    def record_accepted(
        self,
        job_id: str,
        number: int,
        tenant: str,
        priority: int,
        return_payloads: bool,
        spec: Dict[str, Any],
    ) -> None:
        """Journal one accepted job — call *before* acking the client."""
        record = {
            "job_id": job_id,
            "tenant": tenant,
            "priority": int(priority),
            "return_payloads": bool(return_payloads),
            "spec": spec,
        }
        self.open_jobs[job_id] = record
        self.next_job_number = max(self.next_job_number, number + 1)
        self._append({"op": "accepted", "n": int(number), "job": record})

    def record_done(self, job_id: str) -> None:
        """Journal one finished (or abandoned) job."""
        self.open_jobs.pop(job_id, None)
        self._append({"op": "done", "job_id": job_id})

    def stats_dict(self) -> Dict[str, int]:
        """JSON-safe counters for status events and the manifest."""
        return {
            "enabled": int(self.enabled),
            "open": len(self.open_jobs),
            "torn_lines": self.torn_lines,
            "rotations": self.rotations,
            "write_failures": self.write_failures,
        }

    # -- journal -------------------------------------------------------
    def _append(self, entry: Dict[str, Any]) -> None:
        """Append one line; a rotation opens with every open job.

        The in-memory set is the running daemon's source of truth, so
        write errors degrade durability (counted, never raised).
        """
        if not self.enabled:
            return
        try:
            rotated = self._log.append(entry, lambda: {
                "op": "snapshot",
                "next_job": self.next_job_number,
                "jobs": list(self.open_jobs.values()),
            })
        except OSError:
            self.write_failures += 1
            telemetry.incr("service.journal.write_failed")
            return
        if rotated:
            self.rotations += 1
            telemetry.incr("service.journal.rotated")
        self._append_seq += 1
        if self.chaos is not None:
            self.chaos.maybe_corrupt_journal(self.path, self._append_seq)
