"""Content-addressed on-disk artifact store.

The paper's Eq. 1 economics say pattern generation and fault simulation
dominate a design's test cost precisely because they are paid
*repeatedly*.  This store makes every expensive deterministic result —
coverage reports, generated pattern sets, run manifests, whole ATPG
results, campaign cells — addressable by the
:func:`repro.netlist.hashing.cache_key` of the run that produced it, so
a result is computed once per (structure, engine, seed, params) and
served from disk forever after.

Layout under one root directory::

    <root>/objects/<key[:2]>/<key>.json   sharded artifact files
    <root>/index.jsonl                    append-only put journal
    <root>/quarantine/                    corrupt entries, moved aside
    <root>/campaigns/<name>/              campaign run reports

Guarantees:

* **Atomic writes** — artifacts are written to a temp file in the
  destination directory and ``os.replace``-d into place
  (:func:`write_atomic`), so readers never observe a half-written JSON
  file even across processes.
* **Corruption never crashes a flow** — an unreadable, unparseable, or
  schema/kind/key-mismatched entry is *quarantined* (moved into
  ``quarantine/``) and reported as a miss; the caller recomputes and
  the fresh result overwrites the slot.  The event is counted
  (``store.quarantined``) so it surfaces in run manifests as a warning
  counter rather than an exception.
* **Schema-versioned payloads** — every artifact file carries the
  envelope schema (:data:`ARTIFACT_SCHEMA`) and its kind tag, which
  embeds the payload schema version (e.g. ``coverage-report/1``); a
  format bump makes old entries read as quarantined misses, never as
  silently misdecoded data.
* **Observable** — hits, misses, puts, quarantines and evictions are
  counted per store instance (:class:`StoreStats`) *and* emitted as
  telemetry counters (``store.hit``/``store.miss``/``store.put``/
  ``store.quarantined``/``store.evict``), so cache behaviour shows up
  in campaign run manifests.
* **Bounded by a lifecycle policy** — a long-running daemon cannot let
  the store grow forever.  :class:`LifecyclePolicy` adds LRU eviction
  by artifact mtime under a configurable size budget (reads bump the
  mtime, so hot artifacts survive) and count/age caps on the
  quarantine directory.  Keys *pinned* via :meth:`ResultStore.pin`
  (in-flight jobs) are never evicted by an LRU pass.  The advisory
  ``index.jsonl`` is an :class:`AppendLog`, so it rotates to one
  ``.1`` generation at :data:`LOG_ROTATE_BYTES`.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from .. import telemetry
from ..faultsim.coverage import CoverageReport
from ..telemetry import RunManifest
from .codecs import (
    KIND_COVERAGE_REPORT,
    KIND_PATTERNS,
    KIND_RUN_MANIFEST,
    decode_manifest,
    decode_patterns,
    decode_report,
    encode_manifest,
    encode_patterns,
    encode_report,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "LOG_ROTATE_BYTES",
    "AppendLog",
    "StoreError",
    "StoreStats",
    "LifecyclePolicy",
    "ResultStore",
    "write_atomic",
]

#: Envelope schema for every artifact file the store writes.
ARTIFACT_SCHEMA = "repro.store.artifact/1"

#: Size at which an :class:`AppendLog` rotates its file to ``<name>.1``.
LOG_ROTATE_BYTES = 1 << 20


class StoreError(Exception):
    """Misuse of the store API (bad key, unserializable payload, ...)."""


@dataclass
class StoreStats:
    """Per-instance cache counters (also mirrored into telemetry)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    quarantined: int = 0
    evicted: int = 0
    index_rotations: int = 0
    quarantine_evicted: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe copy for manifests and status output."""
        return asdict(self)


@dataclass
class LifecyclePolicy:
    """Growth bounds for a store that must run unattended.

    ``size_budget_bytes`` caps the total bytes under ``objects/``;
    every :meth:`ResultStore.put` that pushes the store past it
    triggers an LRU pass (oldest artifact mtime first) that never
    touches pinned keys or the artifact just written.  ``None`` (the
    default) disables automatic eviction — CLI one-shot runs keep
    today's grow-forever behaviour.

    ``quarantine_max_files`` / ``quarantine_max_age_s`` bound the
    quarantine directory: after every quarantine move, corpses beyond
    the count cap (oldest first) or older than the age cap are deleted
    and accounted in ``StoreStats.quarantine_evicted``.
    """

    size_budget_bytes: Optional[int] = None
    quarantine_max_files: int = 64
    quarantine_max_age_s: Optional[float] = None


def _check_key(key: str) -> str:
    if not isinstance(key, str) or len(key) < 8 or not all(
        c in "0123456789abcdef" for c in key
    ):
        raise StoreError(
            f"store keys must be lowercase hex digests (>= 8 chars), got {key!r}"
        )
    return key


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path``'s contents with ``text`` in one step.

    The text goes to a temp file in the destination directory that is
    then ``os.replace``-d over ``path``, so a reader in any process sees
    the old file or the new one, never a torn mix.  A failed write
    removes its temp file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class AppendLog:
    """One JSON-lines file that grows by appends and rotates once.

    The store's ``index.jsonl`` and the service's ``jobs.jsonl`` and
    ``tenants.jsonl`` all work this way.  :meth:`append` adds one line;
    when the file already holds :data:`LOG_ROTATE_BYTES` it is first
    renamed to ``<name>.1`` (replacing the previous generation) and the
    fresh file opens with the caller's snapshot line, so disk use stays
    near twice the limit and :meth:`replay` never needs the rotated
    file while the current one exists.

    I/O errors reach the caller, which decides whether a lost line is
    fatal, counted or ignored.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.rotated_path = path.parent / (path.name + ".1")
        #: Bytes this process believes the file holds (None: unknown).
        #: Counting our own appends spares a stat() per line; the disk
        #: is asked only when the count reaches the limit, so appends
        #: from other processes still trigger the rotation.
        self._size: Optional[int] = None

    def replay(self) -> Tuple[List[Dict[str, Any]], int]:
        """``(entries, skipped)`` from the newest file that exists.

        A line that is not a JSON object (a tail torn by a crash
        mid-append, bit rot) is skipped and counted in ``skipped``.  A
        file that exists but cannot be read raises :class:`OSError`.
        """
        for path in (self.path, self.rotated_path):
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    lines = stream.readlines()
            except FileNotFoundError:
                continue
            entries: List[Dict[str, Any]] = []
            skipped = 0
            for line in filter(str.strip, lines):
                try:
                    entry = json.loads(line)
                except ValueError:
                    entry = None
                if isinstance(entry, dict):
                    entries.append(entry)
                else:
                    skipped += 1
            return entries, skipped
        return [], 0

    def append(
        self,
        entry: Dict[str, Any],
        snapshot: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> bool:
        """Append ``entry`` as one line; True when the file rotated first.

        ``snapshot`` builds the line that opens the fresh file after a
        rotation: the caller's whole current state, so a replay of the
        fresh file alone reproduces it.
        """
        line = json.dumps(entry, sort_keys=True) + "\n"
        try:
            if self._size is None or self._size >= LOG_ROTATE_BYTES:
                try:
                    self._size = os.stat(self.path).st_size
                except FileNotFoundError:
                    self._size = 0
            rotated = self._size >= LOG_ROTATE_BYTES
            if rotated:
                try:
                    os.replace(self.path, self.rotated_path)
                except FileNotFoundError:
                    pass  # another writer rotated it first
                if snapshot is not None:
                    line = json.dumps(snapshot(), sort_keys=True) + "\n" + line
                self._size = 0
            with open(self.path, "a", encoding="utf-8") as stream:
                stream.write(line)
        except OSError:
            self._size = None  # the write may be partial: re-read
            raise
        self._size += len(line)  # json.dumps output is ASCII
        return rotated


class ResultStore:
    """Content-addressed JSON artifact store rooted at one directory."""

    def __init__(
        self,
        root: Union[str, Path],
        lifecycle: Optional[LifecyclePolicy] = None,
    ) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.quarantine_dir = self.root / "quarantine"
        self.index_path = self.root / "index.jsonl"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._index_log = AppendLog(self.index_path)
        self.stats = StoreStats()
        self.lifecycle = lifecycle if lifecycle is not None else LifecyclePolicy()
        self._pins: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """On-disk location of ``key``'s artifact (sharded by prefix)."""
        _check_key(key)
        return self.objects_dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Core get / put / memoize
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Does an artifact file exist for ``key``? (No validation.)"""
        return self.path_for(key).exists()

    def get(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        """Load ``key``'s payload, or None on miss.

        Any invalid entry — unreadable file, broken JSON, wrong envelope
        schema, wrong kind, key mismatch, missing payload — is moved to
        the quarantine directory and reported as a miss, never raised.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self._miss()
            return None
        except OSError as exc:
            self._quarantine(path, f"unreadable: {exc}")
            self._miss()
            return None
        try:
            data = json.loads(text)
        except ValueError as exc:
            self._quarantine(path, f"invalid JSON: {exc}")
            self._miss()
            return None
        if (
            not isinstance(data, dict)
            or data.get("schema") != ARTIFACT_SCHEMA
            or data.get("kind") != kind
            or data.get("key") != key
            or "payload" not in data
        ):
            self._quarantine(
                path,
                f"schema/kind mismatch (schema={data.get('schema')!r} "
                f"kind={data.get('kind')!r} expected kind={kind!r})"
                if isinstance(data, dict)
                else "artifact is not a JSON object",
            )
            self._miss()
            return None
        self.stats.hits += 1
        telemetry.incr("store.hit")
        try:
            # LRU freshness: a hit makes the artifact "recently used",
            # so eviction order tracks access, not just write order.
            os.utime(path)
        except OSError:
            pass
        return data["payload"]

    def put(self, key: str, kind: str, payload: Any) -> Path:
        """Write one artifact atomically (temp file + rename)."""
        path = self.path_for(key)
        envelope = {
            "schema": ARTIFACT_SCHEMA,
            "key": key,
            "kind": kind,
            "payload": payload,
        }
        try:
            text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError) as exc:
            raise StoreError(
                f"artifact payload for {kind!r} is not JSON-serializable: {exc}"
            ) from exc
        write_atomic(path, text)
        self.stats.puts += 1
        telemetry.incr("store.put")
        self._index({"op": "put", "key": key, "kind": kind, "bytes": len(text)})
        if self.lifecycle.size_budget_bytes is not None:
            self.enforce_budget(protect=frozenset((key,)))
        return path

    def memoize(
        self,
        key: str,
        kind: str,
        compute: Callable[[], Any],
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Tuple[Any, bool]:
        """Serve ``key`` from the store, or compute-and-store it.

        Returns ``(value, cached)``; ``cached`` is True when the value
        came from disk without calling ``compute``.  ``encode``/
        ``decode`` convert between the value and its JSON payload
        (identity when omitted).
        """
        payload = self.get(key, kind)
        if payload is not None:
            return (decode(payload) if decode else payload), True
        value = compute()
        self.put(key, kind, encode(value) if encode else value)
        return value, False

    # ------------------------------------------------------------------
    # Typed convenience wrappers for the common artifact kinds
    # ------------------------------------------------------------------
    def put_report(self, key: str, report: CoverageReport) -> Path:
        """Store a :class:`CoverageReport` under ``key``."""
        return self.put(key, KIND_COVERAGE_REPORT, encode_report(report))

    def get_report(self, key: str) -> Optional[CoverageReport]:
        """Load a :class:`CoverageReport`, or None on miss."""
        payload = self.get(key, KIND_COVERAGE_REPORT)
        return decode_report(payload) if payload is not None else None

    def put_patterns(self, key: str, patterns: List[Dict[str, int]]) -> Path:
        """Store a generated pattern set under ``key``."""
        return self.put(key, KIND_PATTERNS, encode_patterns(patterns))

    def get_patterns(self, key: str) -> Optional[List[Dict[str, int]]]:
        """Load a pattern set, or None on miss."""
        payload = self.get(key, KIND_PATTERNS)
        return decode_patterns(payload) if payload is not None else None

    def put_manifest(self, key: str, manifest: RunManifest) -> Path:
        """Store a :class:`RunManifest` under ``key``."""
        return self.put(key, KIND_RUN_MANIFEST, encode_manifest(manifest))

    def get_manifest(self, key: str) -> Optional[RunManifest]:
        """Load a :class:`RunManifest`, or None on miss."""
        payload = self.get(key, KIND_RUN_MANIFEST)
        return decode_manifest(payload) if payload is not None else None

    # ------------------------------------------------------------------
    # Enumeration and eviction
    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        """All artifact keys currently on disk (sorted for determinism)."""
        if not self.objects_dir.exists():
            return
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def evict(self, key: str) -> bool:
        """Remove one artifact; True when a file was actually deleted."""
        path = self.path_for(key)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        self.stats.evicted += 1
        telemetry.incr("store.evict")
        self._index({"op": "evict", "key": key})
        return True

    def clear(self) -> int:
        """Evict every artifact; returns the number removed."""
        removed = 0
        for key in list(self.keys()):
            if self.evict(key):
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Lifecycle: pins and LRU eviction
    # ------------------------------------------------------------------
    def pin(self, key: str) -> None:
        """Protect ``key`` from LRU eviction (refcounted)."""
        _check_key(key)
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        """Drop one pin on ``key``; unpinning an unpinned key is a no-op."""
        count = self._pins.get(key, 0) - 1
        if count <= 0:
            self._pins.pop(key, None)
        else:
            self._pins[key] = count

    def is_pinned(self, key: str) -> bool:
        """Is ``key`` currently protected from eviction?"""
        return self._pins.get(key, 0) > 0

    @contextmanager
    def pinning(self, *keys: str) -> Iterator[None]:
        """Scope-bound pins: held inside the ``with``, released after."""
        for key in keys:
            self.pin(key)
        try:
            yield
        finally:
            for key in keys:
                self.unpin(key)

    def artifact_entries(self) -> List[Tuple[int, str, int]]:
        """``(mtime_ns, key, size_bytes)`` per artifact, oldest first.

        Artifacts that vanish mid-scan (concurrent eviction) are simply
        skipped — the listing reflects what is observably on disk.
        """
        entries: List[Tuple[int, str, int]] = []
        for key in self.keys():
            try:
                info = self.path_for(key).stat()
            except OSError:
                continue
            entries.append((info.st_mtime_ns, key, info.st_size))
        entries.sort()
        return entries

    def size_bytes(self) -> int:
        """Total bytes currently held under ``objects/``."""
        return sum(size for _, _, size in self.artifact_entries())

    def enforce_budget(
        self,
        budget_bytes: Optional[int] = None,
        protect: FrozenSet[str] = frozenset(),
    ) -> List[str]:
        """One LRU pass: evict oldest-mtime artifacts until under budget.

        Pinned keys and ``protect``-ed keys are never candidates, so an
        in-flight job's artifacts survive any budget squeeze (the pass
        may therefore legitimately end above budget).  Returns the keys
        evicted, oldest first.
        """
        budget = (
            budget_bytes
            if budget_bytes is not None
            else self.lifecycle.size_budget_bytes
        )
        if budget is None:
            return []
        entries = self.artifact_entries()
        total = sum(size for _, _, size in entries)
        evicted: List[str] = []
        for _, key, size in entries:
            if total <= budget:
                break
            if self.is_pinned(key) or key in protect:
                continue
            if self.evict(key):
                total -= size
                evicted.append(key)
        if evicted:
            telemetry.incr("store.lru_evicted", len(evicted))
        return evicted

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _miss(self) -> None:
        self.stats.misses += 1
        telemetry.incr("store.miss")

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside; never raises into the caller."""
        self.stats.quarantined += 1
        telemetry.incr("store.quarantined")
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / path.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = self.quarantine_dir / f"{path.stem}.{suffix}{path.suffix}"
            os.replace(path, target)
            self._index(
                {"op": "quarantine", "file": path.name, "reason": reason}
            )
            self._bound_quarantine()
        except FileNotFoundError:
            # A concurrent reader quarantined (or a writer replaced) the
            # file between our read and the move.  The corrupt evidence
            # is already preserved or gone — nothing left to do, and
            # critically nothing to unlink: a fresh artifact may already
            # occupy the slot.
            pass
        except OSError:
            # Move failed with the file still in place (permissions,
            # cross-device, ...).  Last resort: delete so the slot can
            # be rewritten rather than poisoning every future read.
            try:
                path.unlink()
            except OSError:
                pass

    def _bound_quarantine(self) -> int:
        """Delete quarantine corpses beyond the count/age caps.

        A poisoned tenant hammering a daemon with corrupt entries must
        not be able to fill the disk via the quarantine directory, so
        corpses are bounded: anything older than
        ``quarantine_max_age_s`` goes, then the oldest beyond
        ``quarantine_max_files``.  Removals are accounted in
        ``StoreStats.quarantine_evicted``; failures are swallowed (the
        quarantine dir is best-effort evidence, never load-bearing).
        """
        policy = self.lifecycle
        try:
            entries = sorted(
                (entry.stat().st_mtime_ns, entry)
                for entry in self.quarantine_dir.iterdir()
                if entry.is_file()
            )
        except OSError:
            return 0
        doomed: List[Path] = []
        if policy.quarantine_max_age_s is not None:
            cutoff_ns = (time.time() - policy.quarantine_max_age_s) * 1e9
            doomed = [entry for mtime_ns, entry in entries if mtime_ns < cutoff_ns]
            entries = [row for row in entries if row[0] >= cutoff_ns]
        excess = len(entries) - policy.quarantine_max_files
        if excess > 0:
            doomed.extend(entry for _, entry in entries[:excess])
        removed = 0
        for entry in doomed:
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            self.stats.quarantine_evicted += removed
            telemetry.incr("store.quarantine_evicted", removed)
        return removed

    def _index(self, entry: Dict[str, Any]) -> None:
        """Append one line to the advisory put/evict journal.

        The index is a convenience for humans and tooling; the objects
        directory is the source of truth, so index write failures are
        swallowed.
        """
        try:
            if self._index_log.append(entry):
                self.stats.index_rotations += 1
                telemetry.incr("store.index_rotated")
        except OSError:
            pass
