"""Failure policies, retry/backoff schedules, and failure records.

The paper argues a system is only trustworthy when its failure modes
are *designed*: enumerated, bounded, observable.  This module gives the
execution stack (sharded fault simulation, campaign orchestration, the
service daemon) the vocabulary for that design:

* :class:`FailurePolicy` — what a campaign or daemon does with a cell
  that fails every retry: ``raise`` (propagate, the conservative
  default) or ``quarantine`` (fail only that cell, report it in the
  run manifest's ``failures`` section, and move on).  A fault shard
  has no policy: one that fails deterministically raises.
* :class:`RetryPolicy` — bounded retries with jittered exponential
  backoff.  Delays are a pure function of ``(seed, site, attempt)`` so
  runs are reproducible, and the ``sleep``/``clock`` hooks are
  injectable so tests never actually wait.
* :class:`FailureRecord` — the manifest-ready description of one
  permanent failure (site, error class, traceback digest, attempts,
  action taken), the row format validated by
  :func:`repro.telemetry.validate_manifest`.
"""

from __future__ import annotations

import enum
import hashlib
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

__all__ = [
    "FailurePolicy",
    "RetryPolicy",
    "FailureRecord",
    "failure_record",
    "traceback_digest",
]


class FailurePolicy(enum.Enum):
    """What to do with a campaign cell that fails every retry.

    ``RAISE`` propagates the error (fail the whole run — the campaign
    runner's default, so opting into partial results is explicit).
    ``QUARANTINE`` fails only that cell, records it as a
    :class:`FailureRecord`, and lets the rest of the run go on.
    """

    RAISE = "raise"
    QUARANTINE = "quarantine"

    @classmethod
    def coerce(cls, value: Union[str, "FailurePolicy"]) -> "FailurePolicy":
        """Accept an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown failure policy {value!r}; "
                f"available: {[p.value for p in cls]}"
            ) from None


@dataclass
class RetryPolicy:
    """Bounded retries with deterministic jittered exponential backoff.

    ``max_retries`` is the number of *re*-attempts after the first try
    (0 disables retrying).  The delay before re-attempt ``attempt``
    (0-based) is ``min(max_delay_s, base_delay_s * multiplier**attempt)``
    scaled by a jitter factor in ``[1 - jitter, 1]`` drawn from an RNG
    seeded with ``(seed, site, attempt)`` — a pure function of its
    inputs, so two runs of the same campaign back off identically while
    distinct sites still decorrelate.

    ``sleep`` is injectable: tests pass a recording no-op so retry
    schedules are asserted, not waited for.
    """

    max_retries: int = 2
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def delay_for(self, site: str, attempt: int) -> float:
        """The backoff delay (seconds) before re-attempt ``attempt``."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        raw = min(
            self.max_delay_s, self.base_delay_s * (self.multiplier ** attempt)
        )
        if not self.jitter:
            return raw
        rng = random.Random(f"{self.seed}:{site}:{attempt}")
        return raw * (1.0 - self.jitter * rng.random())

    def wait(self, site: str, attempt: int) -> float:
        """Sleep the backoff delay for ``(site, attempt)``; returns it."""
        delay = self.delay_for(site, attempt)
        self.sleep(delay)
        return delay

    def wait_until(
        self, site: str, attempt: int, deadline: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> bool:
        """Deadline-bounded backoff: sleep, but never past ``deadline``.

        The service client's reconnect loop uses this: retries are
        bounded by a wall-clock budget (a restarting daemon can take
        seconds, so a fixed attempt count is the wrong unit), while the
        delays themselves stay the policy's deterministic jittered
        schedule.  ``deadline`` is a ``clock()`` timestamp.  Returns
        False — without sleeping — when the deadline has already
        passed; otherwise sleeps ``min(delay, time remaining)`` and
        returns True.
        """
        remaining = deadline - clock()
        if remaining <= 0:
            return False
        self.sleep(min(self.delay_for(site, attempt), remaining))
        return True


def traceback_digest(exc: BaseException) -> str:
    """Short stable digest of an exception's formatted traceback.

    Lets two failures be recognized as "the same crash" across runs and
    machines without shipping multi-kilobyte tracebacks into manifests.
    """
    text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass
class FailureRecord:
    """Manifest-ready description of one permanent failure.

    ``site`` names the failing cell (``"cell:c17:..."``), ``action``
    is the failure policy in force (``"quarantine"``, or ``"raise"``
    for a daemon job the failure aborted), ``attempts`` counts every
    try including the first, and ``detail`` carries cell context (its
    cache ``key``, ...).
    """

    site: str
    error: str
    message: str
    digest: str
    attempts: int
    action: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe row for the manifest ``failures`` section."""
        return {
            "site": self.site,
            "error": self.error,
            "message": self.message,
            "digest": self.digest,
            "attempts": self.attempts,
            "action": self.action,
            "detail": dict(self.detail),
        }


def failure_record(
    site: str,
    exc: BaseException,
    attempts: int,
    action: str,
    detail: Optional[Dict[str, Any]] = None,
) -> FailureRecord:
    """Build a :class:`FailureRecord` from a caught exception."""
    return FailureRecord(
        site=site,
        error=type(exc).__name__,
        message=str(exc),
        digest=traceback_digest(exc),
        attempts=attempts,
        action=action,
        detail=dict(detail or {}),
    )
