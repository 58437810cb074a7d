"""Resumable, store-memoized campaign execution.

The runner walks a :class:`~repro.campaign.spec.CampaignSpec`'s cell
grid in deterministic order and pushes every cell through the existing
flows — ``generate_tests`` for combinational ATPG cells,
``full_scan_flow`` for scan cells — with ``workers=N`` sharding inside
each cell.  Each cell is memoized through the content-addressed
:class:`~repro.store.ResultStore` under its
:func:`~repro.netlist.hashing.cache_key`, so:

* a **warm** re-run performs *zero* fault-simulation work — every cell
  is served from disk, visible in the campaign manifest as
  ``store.hit == cells`` and the complete absence of ``atpg.*`` /
  fault-sim counters;
* an **interrupted** cold run resumes where it stopped — the store is
  the only record of finished cells, so re-running recomputes only
  the cells whose artifacts are missing (the rest come back as store
  hits), and :meth:`CampaignRunner.status` counts progress by probing
  the store for each cell's key.

Every run (re)writes three files under
``<store>/campaigns/<name>/``: ``summary.txt`` (deterministic table,
no timings — cold and warm runs produce byte-identical bytes),
``cells.jsonl`` (one line per cell with its stats and full run
manifest), and ``manifest.json`` (the campaign's own validated
:class:`~repro.telemetry.RunManifest`, whose counters carry the
store's hit/miss/quarantine behaviour).

**Fault tolerance** (see :mod:`repro.resilience`): each cell runs
under a bounded retry budget with jittered backoff; a cell that keeps
failing is handled per :class:`~repro.resilience.FailurePolicy` —
``raise`` (default) propagates, ``quarantine`` records a
:class:`~repro.resilience.FailureRecord` in the manifest's validated
``failures`` section and moves on.  Failed cells are re-attempted on
every resume; ``status`` reports as failed the cells the last run's
manifest lists that are still missing from the store.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from .. import telemetry
from ..netlist.circuit import Circuit
from ..netlist.hashing import cache_key
from ..faultsim.coverage import CoverageReport
from ..resilience import (
    ChaosConfig,
    FailurePolicy,
    FailureRecord,
    RetryPolicy,
    failure_record,
)
from ..store import ResultStore
from ..store.store import write_atomic
from ..store.codecs import (
    KIND_CAMPAIGN_CELL,
    decode_manifest,
    decode_patterns,
    decode_report,
    encode_manifest,
    encode_patterns,
    encode_report,
)
from .spec import CampaignCell, CampaignSpec, build_workload

__all__ = ["CellResult", "CampaignResult", "CampaignRunner"]

#: spec.params keys forwarded to generate_tests (atpg cells).
_ATPG_PARAMS = ("method", "random_phase", "backtrack_limit", "compact",
                "reverse_compact")
#: spec.params keys forwarded to full_scan_flow (scan cells).
_SCAN_PARAMS = ("method", "random_phase", "fault_limit", "sample_seed",
                "fill", "flush", "reverse_compact")


@dataclass
class CellResult:
    """Everything one campaign cell produced (computed or loaded)."""

    cell: CampaignCell
    key: str
    patterns: List[Dict[str, int]]
    report: Optional[CoverageReport]
    manifest: telemetry.RunManifest
    core_manifest: Optional[telemetry.RunManifest]
    stats: Dict[str, Any]
    duration_s: float
    cached: bool = False

    @property
    def coverage(self) -> Optional[float]:
        """The cell's headline coverage (None when unverified)."""
        return self.stats.get("coverage")


@dataclass
class CampaignResult:
    """One campaign run: per-cell results plus the run's own manifest."""

    spec: CampaignSpec
    results: List[CellResult]
    skipped: List[CampaignCell]
    manifest: telemetry.RunManifest
    summary: str
    hits: int = 0
    misses: int = 0
    completed: int = 0
    total: int = 0
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        """Did every runnable cell complete (this run or a prior one)?"""
        return self.completed >= self.total and not self.failures


# ----------------------------------------------------------------------
# Cell execution and (de)serialization
# ----------------------------------------------------------------------
def cell_cache_key(
    cell: CampaignCell, params: Dict[str, Any], circuit: Optional[Circuit] = None
) -> str:
    """Content address of one cell's deterministic result.

    ``workers`` deliberately never reaches the key: sharded execution
    is bit-identical to single-process by contract, so caches warm on a
    laptop serve a 32-way machine and vice versa.
    """
    circuit = circuit if circuit is not None else build_workload(cell.workload)
    return cache_key(
        circuit,
        cell.engine,
        seed=cell.seed,
        params={"flow": cell.flow, "workload": cell.workload,
                "params": dict(params)},
        fault_model=cell.fault_model,
    )


def _subparams(params: Dict[str, Any], allowed: Tuple[str, ...]) -> Dict[str, Any]:
    return {k: params[k] for k in allowed if k in params}


def execute_cell(
    cell: CampaignCell,
    params: Dict[str, Any],
    workers: int = 1,
    circuit: Optional[Circuit] = None,
    key: Optional[str] = None,
    backend: Optional[Any] = None,
) -> CellResult:
    """Run one cell cold through the appropriate flow.

    ``backend`` picks the :mod:`repro.exec` execution backend for any
    sharded fault-simulation pool inside the flow; like ``workers`` it
    never reaches the cache key (same result, different execution).
    """
    from ..atpg.api import generate_tests
    from ..scan.flow import full_scan_flow

    circuit = circuit if circuit is not None else build_workload(cell.workload)
    key = key if key is not None else cell_cache_key(cell, params, circuit)
    start = time.perf_counter()
    if cell.flow == "atpg":
        result = generate_tests(
            circuit,
            seed=cell.seed,
            engine=cell.engine,
            workers=workers,
            fault_model=cell.fault_model,
            backend=backend,
            **_subparams(params, _ATPG_PARAMS),
        )
        duration = time.perf_counter() - start
        stats = {
            "patterns": len(result.patterns),
            "coverage": result.report.coverage,
            "fault_count": len(result.report.faults),
            "redundant": len(result.redundant),
            "aborted": len(result.aborted),
        }
        return CellResult(
            cell=cell,
            key=key,
            patterns=list(result.patterns),
            report=result.report,
            manifest=result.manifest,
            core_manifest=None,
            stats=stats,
            duration_s=duration,
        )
    if cell.flow == "full_scan":
        flow = full_scan_flow(
            circuit,
            seed=cell.seed,
            engine=cell.engine,
            workers=workers,
            fault_model=cell.fault_model,
            backend=backend,
            **_subparams(params, _SCAN_PARAMS),
        )
        duration = time.perf_counter() - start
        coverage = (
            flow.scan_coverage.coverage if flow.scan_coverage is not None else None
        )
        stats = {
            "patterns": len(flow.core_tests.patterns),
            "coverage": coverage,
            "fault_count": (
                len(flow.scan_coverage.faults)
                if flow.scan_coverage is not None
                else 0
            ),
            "chain_length": flow.design.chain_length,
            "total_clocks": flow.total_clocks,
            "data_volume_bits": flow.data_volume_bits,
        }
        return CellResult(
            cell=cell,
            key=key,
            patterns=list(flow.core_tests.patterns),
            report=flow.scan_coverage,
            manifest=flow.manifest,
            core_manifest=flow.core_manifest,
            stats=stats,
            duration_s=duration,
        )
    raise ValueError(f"unknown cell flow {cell.flow!r}")


def encode_cell_result(result: CellResult) -> Dict[str, Any]:
    """Cell result → JSON payload for the store."""
    return {
        "cell": {
            "workload": result.cell.workload,
            "flow": result.cell.flow,
            "engine": result.cell.engine,
            "seed": result.cell.seed,
            "fault_model": result.cell.fault_model,
        },
        "key": result.key,
        "patterns": encode_patterns(result.patterns),
        "report": (
            encode_report(result.report) if result.report is not None else None
        ),
        "manifest": encode_manifest(result.manifest),
        "core_manifest": (
            encode_manifest(result.core_manifest)
            if result.core_manifest is not None
            else None
        ),
        "stats": dict(result.stats),
        "duration_s": result.duration_s,
    }


def decode_cell_result(payload: Dict[str, Any]) -> CellResult:
    """Rebuild a :class:`CellResult` from its store payload."""
    cell = CampaignCell(
        workload=payload["cell"]["workload"],
        flow=payload["cell"]["flow"],
        engine=payload["cell"]["engine"],
        seed=payload["cell"]["seed"],
        fault_model=payload["cell"].get("fault_model", "stuck_at"),
    )
    report = payload.get("report")
    return CellResult(
        cell=cell,
        key=payload["key"],
        patterns=decode_patterns(payload["patterns"]),
        report=decode_report(report) if report is not None else None,
        manifest=decode_manifest(payload["manifest"]),
        core_manifest=decode_manifest(payload.get("core_manifest")),
        stats=dict(payload["stats"]),
        duration_s=payload["duration_s"],
        cached=True,
    )


# ----------------------------------------------------------------------
# Summary rendering (deliberately timing-free: cold and warm runs of
# the same campaign must produce byte-identical summaries)
# ----------------------------------------------------------------------
def render_summary(
    spec: CampaignSpec,
    results: List[CellResult],
    skipped: List[CampaignCell],
    total: int,
    failed: int = 0,
) -> str:
    """Fixed-format table of completed cells; no timings, no hit/miss.

    ``failed`` appears in the header only when nonzero, so a chaos run
    whose injected faults were all healed by retries stays byte-
    identical to the fault-free run.
    """
    header = (
        f"campaign {spec.name!r}: {len(results)}/{total} cells completed"
        + (f", {failed} cells FAILED" if failed else "")
        + (f", {len(skipped)} incompatible cells skipped" if skipped else "")
    )
    columns = (
        f"{'workload':<22}{'flow':<11}{'engine':<18}{'model':<16}"
        f"{'seed':>4}  {'patterns':>8}  {'coverage':>8}"
    )
    rule = "-" * len(columns)
    lines = [header, columns, rule]
    for result in results:
        coverage = result.coverage
        coverage_text = f"{coverage:.2%}" if coverage is not None else "n/a"
        lines.append(
            f"{result.cell.workload:<22}{result.cell.flow:<11}"
            f"{result.cell.engine:<18}{result.cell.fault_model:<16}"
            f"{result.cell.seed:>4}  "
            f"{result.stats.get('patterns', 0):>8}  {coverage_text:>8}"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class CampaignRunner:
    """Executes a campaign against a result store, resumably."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: Union[str, Path, ResultStore],
        workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        failure_policy: Union[str, FailurePolicy] = FailurePolicy.RAISE,
        chaos: Optional[ChaosConfig] = None,
        backend: Optional[Any] = None,
    ) -> None:
        self.spec = spec
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.workers = max(1, int(workers))
        self.backend = backend
        self.retry = retry if retry is not None else RetryPolicy()
        self.failure_policy = FailurePolicy.coerce(failure_policy)
        self.chaos = chaos
        self.state_dir = self.store.root / "campaigns" / spec.name
        self.summary_path = self.state_dir / "summary.txt"
        self.jsonl_path = self.state_dir / "cells.jsonl"
        self.manifest_path = self.state_dir / "manifest.json"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_cell(
        self, cell: CampaignCell, circuit: Circuit, key: str
    ) -> Tuple[Optional[CellResult], bool, Optional[FailureRecord]]:
        """One cell through the store with retry/backoff supervision.

        Returns ``(result, cached, failure)``.  Transient exceptions
        are retried up to ``retry.max_retries`` times with jittered
        backoff; a cell that keeps failing either re-raises
        (``FailurePolicy.RAISE``) or comes back as a
        :class:`FailureRecord` and the campaign moves on.
        """
        attempt = 0
        while True:
            chaos, this_attempt = self.chaos, attempt

            def compute() -> CellResult:
                if chaos is not None:
                    chaos.check_poison_cell(cell.cell_id)
                    chaos.inject_inline(f"cell:{cell.cell_id}", this_attempt)
                return execute_cell(
                    cell,
                    self.spec.params,
                    workers=self.workers,
                    circuit=circuit,
                    key=key,
                    backend=self.backend,
                )

            try:
                result, cached = self.store.memoize(
                    key,
                    KIND_CAMPAIGN_CELL,
                    compute,
                    encode=encode_cell_result,
                    decode=decode_cell_result,
                )
            except Exception as exc:
                if attempt < self.retry.max_retries:
                    telemetry.incr("campaign.cell.retry")
                    self.retry.wait(f"cell:{cell.cell_id}", attempt)
                    attempt += 1
                    continue
                if self.failure_policy is FailurePolicy.RAISE:
                    raise
                telemetry.incr("campaign.cell.failed")
                record = failure_record(
                    f"cell:{cell.cell_id}",
                    exc,
                    attempts=attempt + 1,
                    action=self.failure_policy.value,
                    detail={"cell_id": cell.cell_id, "key": key},
                )
                return None, False, record
            if self.chaos is not None and not cached:
                self.chaos.maybe_corrupt_store(key, self.store.path_for(key))
            return result, cached, None

    def run(self, limit: Optional[int] = None) -> CampaignResult:
        """Run (or resume) the campaign; ``limit`` caps cells this call.

        Cells already in the store come back as hits with zero
        fault-simulation work; the rest are computed and stored.  Each
        artifact is stored the moment its cell finishes, so killing the
        process at any point loses at most the in-flight cell.  Cells
        that failed in a previous run are re-attempted; cells that fail
        permanently this run are reported in
        :attr:`CampaignResult.failures` (empty means every processed
        cell completed).
        """
        cells, skipped = self.spec.expand()
        results: List[CellResult] = []
        failures: List[FailureRecord] = []
        keys: List[str] = []
        hits = misses = 0
        self.state_dir.mkdir(parents=True, exist_ok=True)
        with telemetry.capture() as session:
            with telemetry.span(
                "campaign.run", campaign=self.spec.name, workers=self.workers
            ):
                with open(
                    self.jsonl_path, "w", encoding="utf-8"
                ) as jsonl, telemetry.timed("campaign.phase.cells"):
                    for cell in cells:
                        if limit is not None and len(keys) >= limit:
                            break
                        circuit = build_workload(cell.workload)
                        key = cell_cache_key(cell, self.spec.params, circuit)
                        keys.append(key)
                        result, cached, failure = self._run_cell(
                            cell, circuit, key
                        )
                        if failure is not None:
                            failures.append(failure)
                            continue
                        result.cached = cached
                        if cached:
                            hits += 1
                        else:
                            misses += 1
                        results.append(result)
                        jsonl.write(self._jsonl_row(result))
                        jsonl.write("\n")
                        jsonl.flush()
                # The store is the only record of finished cells; cells
                # past ``limit`` count when an earlier run stored them.
                processed = len(keys)
                keys += [
                    cell_cache_key(cell, self.spec.params)
                    for cell in cells[processed:]
                ]
                completed = sum(map(self.store.contains, keys))
                with telemetry.timed("campaign.phase.summary"):
                    summary = render_summary(
                        self.spec, results, skipped, len(cells),
                        failed=len(failures),
                    )
                    write_atomic(self.summary_path, summary)
        manifest = telemetry.RunManifest(
            flow="campaign.run",
            circuit=self.spec.name,
            seed=0,
            engine=",".join(self.spec.engines),
            method="campaign",
            limits={
                "workers": self.workers,
                "backend": (
                    self.backend if isinstance(self.backend, (str, type(None)))
                    else getattr(self.backend, "name", str(self.backend))
                ),
                "limit": limit,
                "workloads": list(self.spec.workloads),
                "engines": list(self.spec.engines),
                "seeds": list(self.spec.seeds),
                "flows": list(self.spec.flows),
                "fault_models": list(self.spec.fault_models),
            },
            phases=session.phase_stats("campaign.phase."),
            counters=dict(session.counters),
            stats={
                "cells": len(cells),
                "skipped": len(skipped),
                "processed": processed,
                "completed": completed,
                "failed": len(failures),
                "hits": hits,
                "misses": misses,
                "quarantined": self.store.stats.quarantined,
                "store": self.store.stats.to_dict(),
            },
            failures=[record.to_dict() for record in failures] or None,
        ).validate()
        write_atomic(self.manifest_path, manifest.to_json(indent=2) + "\n")
        return CampaignResult(
            spec=self.spec,
            results=results,
            skipped=skipped,
            manifest=manifest,
            summary=summary,
            hits=hits,
            misses=misses,
            completed=completed,
            total=len(cells),
            failures=failures,
        )

    def _jsonl_row(self, result: CellResult) -> str:
        row = {
            "cell_id": result.cell.cell_id,
            "workload": result.cell.workload,
            "flow": result.cell.flow,
            "engine": result.cell.engine,
            "seed": result.cell.seed,
            "fault_model": result.cell.fault_model,
            "key": result.key,
            "cached": result.cached,
            "duration_s": result.duration_s,
            "stats": dict(result.stats),
            "manifest": result.manifest.to_dict(),
        }
        return json.dumps(row, sort_keys=True)

    # ------------------------------------------------------------------
    # Status / clean
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Progress snapshot read from the store (no execution).

        A cell is completed when its artifact is in the store, however
        it got there; ``failed`` lists the pending cells that the last
        run's manifest recorded as permanently failed (they will be
        re-attempted on the next ``run``).
        """
        cells, skipped = self.spec.expand()
        failed_keys = self._failed_keys()
        pending: List[str] = []
        failed: List[str] = []
        for cell in cells:
            key = cell_cache_key(cell, self.spec.params)
            if not self.store.contains(key):
                pending.append(cell.cell_id)
                if key in failed_keys:
                    failed.append(cell.cell_id)
        return {
            "campaign": self.spec.name,
            "total": len(cells),
            "completed": len(cells) - len(pending),
            "pending": pending,
            "failed": sorted(failed),
            "skipped": len(skipped),
            "store_entries": len(self.store),
            "store_root": str(self.store.root),
        }

    def _failed_keys(self) -> Set[str]:
        """Cache keys of the cells the last run's manifest lists as failed.

        A missing or torn manifest lists none: it reports the last run,
        and no later run depends on it.
        """
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return set()
        return {row["detail"]["key"] for row in manifest.get("failures") or ()}

    def campaign_keys(self) -> List[str]:
        """Cache keys of every runnable cell in this campaign's spec."""
        cells, _ = self.spec.expand()
        return [cell_cache_key(cell, self.spec.params) for cell in cells]

    def clean(self, purge_store: bool = False) -> Dict[str, int]:
        """Evict this campaign's artifacts and drop its state.

        Stores are shared: other campaigns (and, under the service,
        other tenants) keep their cells in the same objects tree, so by
        default eviction is scoped to *this* spec's cell cache keys.
        The old wipe-everything behaviour survives behind
        ``purge_store=True`` (CLI: ``campaign clean --purge-store``).
        """
        if purge_store:
            evicted = self.store.clear()
        else:
            evicted = sum(
                1 for key in self.campaign_keys() if self.store.evict(key)
            )
        removed_state = 0
        if self.state_dir.exists():
            shutil.rmtree(self.state_dir)
            removed_state = 1
        return {"evicted": evicted, "state_dirs_removed": removed_state}
