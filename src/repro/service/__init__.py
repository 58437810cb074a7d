"""Multi-tenant campaign service: daemon, client, and wire protocol.

``python -m repro serve`` turns the store + campaign + resilience
stack into a long-running shared grading service: many clients submit
campaign specs over a local socket, identical submissions collapse
onto one execution through :func:`repro.netlist.hashing.cache_key`,
results stream back incrementally, and one tenant's poisoned netlist
quarantines without stalling anyone else's queue.

The service is crash-safe end to end: accepted jobs are journaled to
``<store>/jobs.jsonl`` *before* the ack (:mod:`repro.service.journal`)
and recovered on restart, every streamed event carries a job-scoped
``seq``, and clients resume by ``job_id`` + last-seen ``seq`` across
connection drops and daemon restarts (protocol v3).  See
:mod:`repro.service.server` for the architecture and
:mod:`repro.service.protocol` for the wire format.
"""

from .accounting import TENANTS_JOURNAL, TenantLedger
from .client import (
    ServiceClient,
    ServiceError,
    StaleReadyFileError,
    SubmitOutcome,
    read_ready_file,
    wait_for_ready,
)
from .journal import JOBS_JOURNAL, JobJournal, JobJournalError
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
)
from .scheduler import FairShareScheduler
from .server import (
    CampaignService,
    Job,
    ServiceConfig,
    ServiceStats,
    run_service,
)

__all__ = [
    "PROTOCOL_SCHEMA",
    "DEFAULT_PRIORITY",
    "DEFAULT_TENANT",
    "MAX_LINE_BYTES",
    "OP_SUBMIT",
    "OP_RESUME",
    "OP_STATUS",
    "OP_SHUTDOWN",
    "EVENT_ACCEPTED",
    "EVENT_CELL",
    "EVENT_DONE",
    "EVENT_ERROR",
    "EVENT_STATUS",
    "EVENT_BYE",
    "ProtocolError",
    "ServiceError",
    "StaleReadyFileError",
    "ServiceClient",
    "SubmitOutcome",
    "ServiceConfig",
    "ServiceStats",
    "Job",
    "CampaignService",
    "run_service",
    "read_ready_file",
    "wait_for_ready",
    "FairShareScheduler",
    "TenantLedger",
    "TENANTS_JOURNAL",
    "JobJournal",
    "JobJournalError",
    "JOBS_JOURNAL",
]
