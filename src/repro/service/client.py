"""Synchronous client library for the campaign service.

:class:`ServiceClient` speaks the JSON-lines protocol
(:mod:`repro.service.protocol`) over one TCP connection per request.
It is deliberately synchronous — test code, benchmarks, and CI drive
it from plain threads, and the interesting concurrency lives in the
daemon, not the client.

Typical use::

    client = ServiceClient.from_ready_file(".repro-store/service.json")
    outcome = client.submit(spec, tenant="alice")
    for event in outcome.cells:
        print(event["cell_id"], event["status"], event["cached"])

Streaming consumers use :meth:`ServiceClient.submit_iter` to see each
cell the moment the daemon finishes it.

**Retry/resume (protocol v3).**  Pass ``resume_deadline_s`` (and
optionally a :class:`~repro.resilience.RetryPolicy`) to
:meth:`~ServiceClient.submit_iter` / :meth:`~ServiceClient.submit` and
the client survives dropped connections *and* daemon restarts: every
event carries a job-scoped ``seq``, so on a connection failure the
client reconnects (deterministic jittered backoff, bounded by a
wall-clock deadline) and sends a ``resume`` op with the job's id and
the last ``seq`` it saw.  The daemon replays everything after that —
the consumer observes one gapless stream with no duplicates, however
many times the wire (or the daemon) died in the middle.  If the drop
happens before ``accepted`` was seen there is no job to resume, so the
submit itself is resent (cheap: the store dedupes the cells).

Ready files carry the daemon ``pid``; :func:`read_ready_file` checks
the process is actually alive and raises :class:`StaleReadyFileError`
otherwise, so :func:`wait_for_ready` fails fast on the leftovers of a
SIGKILLed daemon instead of hanging out its full timeout.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..campaign.spec import CampaignSpec
from ..resilience import RetryPolicy
from .protocol import (
    DEFAULT_PRIORITY,
    DEFAULT_TENANT,
    EVENT_ACCEPTED,
    EVENT_BYE,
    EVENT_CELL,
    EVENT_DONE,
    EVENT_ERROR,
    EVENT_STATUS,
    ProtocolError,
    decode_line,
    encode_line,
    resume_request,
    shutdown_request,
    status_request,
    submit_request,
)

__all__ = [
    "ServiceError",
    "StaleReadyFileError",
    "SubmitOutcome",
    "ServiceClient",
    "read_ready_file",
    "wait_for_ready",
]


class ServiceError(Exception):
    """A terminal ``error`` event from the daemon (or a dead daemon).

    ``code`` carries the machine-readable reason (``"quota"``,
    ``"bad_spec"``, ``"protocol"``, ``"connection"``,
    ``"unknown_job"``, ``"stale"``).
    """

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


class StaleReadyFileError(ServiceError):
    """A ready file whose recorded daemon pid is no longer alive.

    The classic SIGKILL leftover: ``os._exit`` never unlinks the ready
    file, so discovery must distinguish "daemon still starting" (poll)
    from "daemon is dead" (fail fast, restart it).
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, code="stale")


@dataclass
class SubmitOutcome:
    """Everything one submission streamed back, already classified."""

    accepted: Dict[str, Any]
    cells: List[Dict[str, Any]] = field(default_factory=list)
    done: Dict[str, Any] = field(default_factory=dict)

    @property
    def job_id(self) -> str:
        """The daemon-assigned job identity."""
        return self.accepted["job_id"]

    @property
    def ok(self) -> bool:
        """Did every cell complete (no failures, no abort)?"""
        return not self.done.get("failed") and not self.done.get("aborted")

    @property
    def failures(self) -> List[Dict[str, Any]]:
        """Failure records of cells that failed permanently."""
        return [
            event["failure"]
            for event in self.cells
            if event.get("status") == "failed"
        ]

    def payloads(self) -> Dict[str, Dict[str, Any]]:
        """``key -> artifact payload`` for runs submitted with payloads."""
        return {
            event["key"]: event["payload"]
            for event in self.cells
            if "payload" in event
        }


class ServiceClient:
    """One daemon endpoint; every request opens its own connection."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 300.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    @classmethod
    def from_ready_file(
        cls,
        path: Union[str, Path],
        timeout: float = 300.0,
        check_pid: bool = True,
    ) -> "ServiceClient":
        """Point a client at the daemon a ready file describes.

        Raises :class:`StaleReadyFileError` when the file's daemon pid
        is dead (``check_pid=False`` skips the liveness check).
        """
        info = read_ready_file(path, check_pid=check_pid)
        return cls(host=info["host"], port=info["port"], timeout=timeout)

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def request_iter(self, message: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """Send one request; yield every event until the daemon closes.

        A *torn* final line — the stream died mid-event, so the bytes
        stop without a newline — is a connection failure (retriable),
        not a protocol violation: it is exactly what an aborted socket
        or a SIGKILLed daemon leaves behind.
        """
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {exc}",
                code="connection",
            ) from exc
        try:
            with sock, sock.makefile("rb") as stream:
                sock.sendall(encode_line(message))
                for line in stream:
                    if not line.endswith(b"\n"):
                        raise ServiceError(
                            f"stream from {self.host}:{self.port} was cut "
                            "mid-event (torn line)",
                            code="connection",
                        )
                    try:
                        event = decode_line(line)
                    except ProtocolError as exc:
                        raise ServiceError(str(exc), code="protocol") from exc
                    yield event
                    if event.get("event") in (EVENT_DONE, EVENT_ERROR,
                                              EVENT_STATUS, EVENT_BYE):
                        return
        except OSError as exc:
            raise ServiceError(
                f"connection to {self.host}:{self.port} failed mid-stream: "
                f"{exc}",
                code="connection",
            ) from exc

    def _request_one(self, message: Dict[str, Any]) -> Dict[str, Any]:
        for event in self.request_iter(message):
            if event.get("event") == EVENT_ERROR:
                raise ServiceError(
                    event.get("error", "unknown error"),
                    code=event.get("code", "error"),
                )
            return event
        raise ServiceError("daemon closed the connection without replying",
                           code="connection")

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def submit_iter(
        self,
        spec: Union[CampaignSpec, Dict[str, Any]],
        tenant: str = DEFAULT_TENANT,
        return_payloads: bool = False,
        priority: int = DEFAULT_PRIORITY,
        retry: Optional[RetryPolicy] = None,
        resume_deadline_s: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Submit a spec and yield events as the daemon streams them.

        ``priority`` biases the daemon's fair-share
        scheduler: higher runs sooner within this tenant's share.  A
        terminal ``error`` event is raised as :class:`ServiceError`
        (with its ``code``); all other events are yielded through.

        With ``resume_deadline_s`` set (or a ``retry`` policy given)
        the stream survives connection drops and daemon restarts: each
        failure triggers a reconnect after the policy's deterministic
        jittered backoff, resuming by ``job_id`` + last-seen ``seq``
        (or resubmitting if no ``accepted`` was ever seen), until
        either ``done`` arrives or the wall-clock deadline expires.
        Events are deduplicated by ``seq``, so the caller sees each
        exactly once, in order.
        """
        spec_dict = spec.to_dict() if isinstance(spec, CampaignSpec) else spec
        message = submit_request(
            spec_dict, tenant=tenant, return_payloads=return_payloads,
            priority=priority,
        )
        yield from self._stream(message, None, -1, retry, resume_deadline_s)

    def _stream(
        self, message: Optional[Dict[str, Any]], job_id: Optional[str],
        last_seq: int, retry: Optional[RetryPolicy],
        resume_deadline_s: Optional[float],
    ) -> Iterator[Dict[str, Any]]:
        """The one stream loop behind :meth:`submit_iter` and
        :meth:`resume_iter`: sends ``message`` until a ``job_id`` is
        known, then ``resume`` after the last ``seq`` seen.  With no
        retry budget (neither ``retry`` nor ``resume_deadline_s``) a
        connection error raises at once and a clean EOF ends the stream.
        """
        deadline = None
        if retry is not None or resume_deadline_s is not None:
            retry = retry or RetryPolicy()
            if resume_deadline_s is None:
                resume_deadline_s = self.timeout
            deadline = time.monotonic() + resume_deadline_s
        attempt = 0
        while True:
            request = (
                message if job_id is None else resume_request(job_id, last_seq)
            )
            try:
                for event in self.request_iter(request):
                    kind = event.get("event")
                    if kind == EVENT_ERROR:
                        raise ServiceError(
                            event.get("error", "unknown error"),
                            code=event.get("code", "error"),
                        )
                    seq = event.get("seq")
                    if isinstance(seq, int):
                        if seq <= last_seq:
                            continue  # replayed duplicate after a resume
                        last_seq = seq
                    if kind == EVENT_ACCEPTED and job_id is None:
                        job_id = event.get("job_id")
                    yield event
                    if kind == EVENT_DONE:
                        return
                if deadline is None:
                    return
                # Clean EOF without a terminal event: the daemon (or a
                # proxy) closed on us mid-job — treat as a drop.
                raise ServiceError(
                    "stream ended before the terminal done event",
                    code="connection",
                )
            except ServiceError as exc:
                if exc.code != "connection" or deadline is None:
                    raise
                site = f"service:{self.host}:{self.port}"
                if not retry.wait_until(site, attempt, deadline):
                    raise ServiceError(
                        f"gave up after {resume_deadline_s:.0f}s of "
                        f"reconnect attempts (job_id={job_id}, last seq "
                        f"{last_seq}): {exc}",
                        code="connection",
                    ) from exc
                attempt += 1

    def submit(
        self,
        spec: Union[CampaignSpec, Dict[str, Any]],
        tenant: str = DEFAULT_TENANT,
        return_payloads: bool = False,
        priority: int = DEFAULT_PRIORITY,
        retry: Optional[RetryPolicy] = None,
        resume_deadline_s: Optional[float] = None,
    ) -> SubmitOutcome:
        """Submit a spec and collect the full response stream."""
        return self._collect(self.submit_iter(
            spec, tenant=tenant, return_payloads=return_payloads,
            priority=priority, retry=retry,
            resume_deadline_s=resume_deadline_s,
        ))

    @staticmethod
    def _collect(
        events: Iterator[Dict[str, Any]],
        accepted: Optional[Dict[str, Any]] = None,
    ) -> SubmitOutcome:
        """Classify a job's stream into a :class:`SubmitOutcome`."""
        cells: List[Dict[str, Any]] = []
        done: Dict[str, Any] = {}
        for event in events:
            kind = event.get("event")
            if kind == EVENT_ACCEPTED:
                accepted = event
            elif kind == EVENT_CELL:
                cells.append(event)
            elif kind == EVENT_DONE:
                done = event
        if accepted is None or not done:
            raise ServiceError(
                "job stream ended before accepted/done", code="connection"
            )
        return SubmitOutcome(accepted=accepted, cells=cells, done=done)

    def resume_iter(
        self, job_id: str, after_seq: int = -1
    ) -> Iterator[Dict[str, Any]]:
        """Re-attach to a job's stream after ``after_seq`` (one attempt).

        Yields the replayed-then-live events; a terminal ``error``
        (including ``unknown_job``) raises :class:`ServiceError`.
        """
        yield from self._stream(None, job_id, after_seq, None, None)

    def resume(self, job_id: str, after_seq: int = -1) -> SubmitOutcome:
        """Resume a job and collect the rest of its stream.

        ``accepted`` is synthesized from ``job_id`` when the resume
        point is past the accepted event (``after_seq >= 0``).
        """
        return self._collect(
            self.resume_iter(job_id, after_seq), accepted={"job_id": job_id}
        )

    def status(self) -> Dict[str, Any]:
        """The daemon's live counters, store stats, and tenant usage."""
        return self._request_one(status_request())

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain and exit; returns the ``bye`` event."""
        return self._request_one(shutdown_request())


# ----------------------------------------------------------------------
# Ready-file discovery
# ----------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    """Is a process with this pid running (signal-0 probe)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, just not ours to signal
    except OSError:
        return True  # unknowable: err on "alive", the poll will decide
    return True


def read_ready_file(
    path: Union[str, Path], check_pid: bool = True
) -> Dict[str, Any]:
    """Parse a daemon ready file (host/port/pid/store).

    With ``check_pid`` (default) a file whose ``pid`` is no longer
    alive raises :class:`StaleReadyFileError` — a SIGKILLed daemon
    leaves its ready file behind, and connecting to its port would
    either hang or reach an unrelated process.
    """
    with open(path, "r", encoding="utf-8") as stream:
        data = json.load(stream)
    if not isinstance(data, dict) or "host" not in data or "port" not in data:
        raise ServiceError(f"malformed ready file {path}", code="protocol")
    pid = data.get("pid")
    if check_pid and isinstance(pid, int) and not _pid_alive(pid):
        raise StaleReadyFileError(
            f"ready file {path} names dead daemon pid {pid} — stale "
            "leftover of a crashed daemon; remove it and restart"
        )
    return data


def wait_for_ready(
    path: Union[str, Path],
    timeout: float = 30.0,
    interval: float = 0.05,
    check_pid: bool = True,
) -> Dict[str, Any]:
    """Poll for a daemon's ready file (daemon startup is asynchronous).

    A *missing or partial* file is polled until ``timeout`` — the
    daemon may still be starting.  A *stale* file (dead pid) fails
    fast with :class:`StaleReadyFileError` instead: no amount of
    waiting revives a SIGKILLed daemon, and the caller should restart
    it (which rewrites the ready file) rather than hang here.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            return read_ready_file(path, check_pid=check_pid)
        except StaleReadyFileError:
            raise
        except (OSError, ValueError, ServiceError):
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"service ready file {path} did not appear within "
                    f"{timeout:.0f}s",
                    code="connection",
                )
            time.sleep(interval)
