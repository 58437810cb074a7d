"""``repro.exec`` — pluggable execution backends.

The seam between "what to run" and "how to run it":
:class:`ExecutorBackend` (a supervised ``map`` with per-task deadlines,
retries, and a telemetry fold-back contract) with four implementations
— ``inline``, ``fork`` and ``spawn`` (one supervised process pool,
two start methods), and ``thread-lane`` (store-hit-heavy / I/O-bound
service work).  See :mod:`repro.exec.backends` for the full contract.
"""

from .backends import (
    BACKENDS,
    ExecutorBackend,
    ForkBackend,
    InlineBackend,
    SpawnBackend,
    ThreadLaneBackend,
    auto_backend,
    create_backend,
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
