"""Supervision data types: policy, per-task failure, map outcome.

The vocabulary every :mod:`repro.exec` backend speaks.  A backend's
``map`` runs each task under a :class:`SupervisionPolicy` and
classifies every attempt:

* **ok** — the task returned its result;
* **crash** — the worker process died without a result (``os._exit``,
  signal, interpreter abort): its pipe reads EOF;
* **hang** — no result within ``timeout_s``: the worker is terminated
  (then killed) — or, on threads, abandoned — and the attempt counts
  as failed;
* **exception** — the task raised: the exception's class, message and
  traceback digest come back (the traceback itself never needs to
  pickle).

Failed attempts are retried with the policy's jittered exponential
backoff up to ``retry.max_retries`` times; a task that exhausts its
budget lands in :attr:`SupervisionOutcome.failed` for the caller to
resolve (the sharded simulator falls back to one in-process run, which
raises if the failure is deterministic).  Every
retry, crash, hang and worker exception is counted through
:mod:`repro.telemetry` (``resilience.*`` counters), so supervision
activity is visible in run manifests, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .policy import RetryPolicy

__all__ = [
    "SupervisionPolicy",
    "TaskFailure",
    "SupervisionOutcome",
]

#: Attempt outcome kinds (also the telemetry counter suffixes).
OK, CRASH, HANG, EXCEPTION = "ok", "crash", "hang", "exception"


@dataclass
class SupervisionPolicy:
    """Knobs for a supervised ``map``.

    ``timeout_s`` is the per-attempt wall-clock budget (``None``
    disables hang detection).  ``retry`` schedules re-attempts after
    any crash/hang/exception.  ``poll_interval_s`` bounds how often the
    supervisor wakes to check deadlines; ``term_grace_s`` is how long a
    terminated (hung) worker gets before being killed outright.
    """

    timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    poll_interval_s: float = 0.05
    term_grace_s: float = 5.0


@dataclass
class TaskFailure:
    """A task that exhausted its retry budget."""

    task: Any
    kind: str  # crash / hang / exception (the *last* attempt's kind)
    error: str
    message: str
    digest: str
    attempts: int


@dataclass
class SupervisionOutcome:
    """Everything one supervised ``map`` produced."""

    results: Dict[Any, Any]
    failed: Dict[Any, TaskFailure]
    retries: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)
