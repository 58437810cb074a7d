"""Fault-tolerant execution: supervision, retry/backoff, chaos injection.

The paper's thesis — faults must be controllable and observable *by
design* — applied to this repo's own execution stack.  Three layers:

* :mod:`~repro.resilience.policy` — :class:`FailurePolicy`
  (``raise`` / ``quarantine``, for campaign cells), :class:`RetryPolicy`
  (bounded, jittered exponential backoff, injectable sleep), and
  :class:`FailureRecord` (the manifest-ready description of a
  permanently failed cell);
* :mod:`~repro.resilience.supervisor` — the supervision data types
  (:class:`SupervisionPolicy`, :class:`TaskFailure`,
  :class:`SupervisionOutcome`) that every :mod:`repro.exec` backend's
  ``map`` takes and returns: per-attempt deadlines and retry budget in,
  results plus crash/hang/exception failures out;
* :mod:`~repro.resilience.chaos` — :class:`ChaosConfig`, the seeded
  chaos harness that injects worker crashes/hangs/exceptions (in shard
  workers and the daemon's cold-cell workers alike), poisoned faults
  and cells, store-artifact corruption, and the service daemon's own
  failure modes (dropped client connections, SIGKILL between cells,
  torn journal tails), proving end-to-end (``tests/test_chaos.py``,
  ``tests/test_service_recovery.py``) that supervised and recovered
  runs stay bit-identical to fault-free ones.
"""

from .policy import (
    FailurePolicy,
    FailureRecord,
    RetryPolicy,
    failure_record,
    traceback_digest,
)
from .supervisor import (
    SupervisionOutcome,
    SupervisionPolicy,
    TaskFailure,
)
from .chaos import (
    ChaosConfig,
    ChaosError,
    PoisonedFaultError,
    corrupt_json_file,
    corrupt_tail,
)

__all__ = [
    "FailurePolicy",
    "FailureRecord",
    "RetryPolicy",
    "failure_record",
    "traceback_digest",
    "SupervisionOutcome",
    "SupervisionPolicy",
    "TaskFailure",
    "ChaosConfig",
    "ChaosError",
    "PoisonedFaultError",
    "corrupt_json_file",
    "corrupt_tail",
]
