"""Persistent per-tenant accounting: quotas that survive restarts.

PR 8's byte quotas lived in a daemon-local dict, so a SIGTERM (deploy,
host reboot) reset every tenant to zero — a tenant at its quota could
simply wait for the next restart.  :class:`TenantLedger` journals
every charge to ``<store>/tenants.jsonl`` (one JSON line per event, an
:class:`~repro.store.store.AppendLog` like ``jobs.jsonl`` and the
store's ``index.jsonl``) and replays the journal on daemon start, so
usage picks up exactly where the previous daemon left off.

Journal lines::

    {"op": "charge", "tenant": str, "bytes": int}
    {"op": "snapshot", "tenants": {tenant: bytes, ...}}

Rotation compacts rather than discards: when the journal passes
:data:`~repro.store.store.LOG_ROTATE_BYTES` it is renamed to
``tenants.jsonl.1`` (replacing any previous rotation) and the fresh
journal opens with a single ``snapshot`` line carrying the full
current state — so disk use stays bounded at ~2x the limit and a
replay never needs the rotated file.  Replay reads the newest file
that exists (current journal, else the rotation), applying the last
snapshot then every charge after it.

Journal write failures are swallowed (quotas degrade to session-local
accounting rather than taking the service down); replay skips a
corrupt line — e.g. a tail torn by power loss mid-append — counted as
``service.ledger.torn`` and surfaced on :attr:`TenantLedger.torn_lines`.
A journal that exists but cannot be read raises
:class:`~repro.service.journal.JobJournalError` (``python -m repro
serve`` exits 3) instead of restarting every tenant at zero.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from .. import telemetry
from ..store.store import AppendLog
from .journal import JobJournalError

__all__ = ["TenantLedger", "TENANTS_JOURNAL"]

#: Journal filename under the store root.
TENANTS_JOURNAL = "tenants.jsonl"


class TenantLedger:
    """Durable tenant -> charged-bytes map backed by a JSONL journal."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / TENANTS_JOURNAL
        self.tenant_bytes: Dict[str, int] = {}
        #: Unparseable journal lines skipped during replay (torn tail).
        self.torn_lines = 0
        self._log = AppendLog(self.path)
        self._load()

    # -- replay --------------------------------------------------------
    def _load(self) -> None:
        """Rebuild the in-memory map from the newest journal on disk."""
        try:
            entries, torn = self._log.replay()
        except OSError as exc:
            raise JobJournalError(
                f"tenant ledger exists but cannot be read: {exc}"
            ) from exc
        if torn:
            # Torn write (classic crash mid-append); later lines still
            # apply.  Count it — silent data loss is how quota drift
            # goes unnoticed.
            self.torn_lines += torn
            telemetry.incr("service.ledger.torn", torn)
        state: Dict[str, int] = {}
        for entry in entries:
            op = entry.get("op")
            if op == "snapshot" and isinstance(entry.get("tenants"), dict):
                state = {
                    str(tenant): int(value)
                    for tenant, value in entry["tenants"].items()
                    if isinstance(value, int) and not isinstance(value, bool)
                }
            elif op == "charge":
                tenant = entry.get("tenant")
                amount = entry.get("bytes")
                if (
                    isinstance(tenant, str)
                    and isinstance(amount, int)
                    and not isinstance(amount, bool)
                ):
                    state[tenant] = state.get(tenant, 0) + amount
        self.tenant_bytes = state
        if state:
            telemetry.incr("service.ledger.resumed")

    # -- accounting ----------------------------------------------------
    def usage(self, tenant: str) -> int:
        """Bytes charged to ``tenant`` so far (0 if unknown)."""
        return self.tenant_bytes.get(tenant, 0)

    def charge(self, tenant: str, amount: int) -> int:
        """Add ``amount`` bytes to a tenant; returns the new total.

        The journal line is appended *before* the in-memory update: a
        rotation snapshot taken during the append must capture the
        state without this charge, or replaying snapshot + charge line
        would double-count it.  Journal I/O errors are swallowed — the
        in-memory map is the running daemon's source of truth.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            if self._log.append(
                {"op": "charge", "tenant": tenant, "bytes": int(amount)},
                lambda: {"op": "snapshot", "tenants": dict(self.tenant_bytes)},
            ):
                telemetry.incr("service.ledger.rotated")
        except OSError:
            pass
        total = self.tenant_bytes.get(tenant, 0) + int(amount)
        self.tenant_bytes[tenant] = total
        return total

    def snapshot(self) -> Dict[str, int]:
        """Copy of the full tenant -> bytes map (for status/manifest)."""
        return dict(self.tenant_bytes)
