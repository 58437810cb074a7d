"""Command-line front door: ``python -m repro``.

Two command families: ``campaign``, exposing the resumable
store-backed orchestrator (:mod:`repro.campaign`), and ``serve``, the
long-running multi-tenant campaign daemon (:mod:`repro.service`):

``python -m repro campaign run [--spec FILE] [--store DIR] [--workers N]``
    Run (or resume) a campaign.  Without ``--spec`` the built-in demo
    spec runs.  Every cell is memoized through the result store, so a
    warm re-run does zero fault-simulation work and an interrupted run
    resumes by recomputing only the cells missing from the store.
    Each cell runs under a retry budget (``--retries``); what happens
    when a cell *keeps* failing is chosen by ``--failure-policy``
    (default ``raise``).  Exit code 0 means every processed cell
    completed; 2 means the campaign finished but some cells failed
    permanently (recorded in the manifest's ``failures`` section,
    re-attempted on the next run).

``python -m repro campaign status [--spec FILE] [--store DIR]``
    Show completed/pending/failed cells without running: a cell is
    completed when its artifact is in the store; failed cells come
    from the last run's manifest.

``python -m repro campaign clean [--store DIR] [--spec FILE] [--purge-store]``
    Evict this campaign's own artifacts and drop its state files.
    Stores are shared between campaigns and tenants, so only the
    spec's cell cache keys are evicted; ``--purge-store`` restores the
    old wipe-everything behaviour.

``python -m repro serve [--store DIR] [--port N] [--size-budget BYTES] ...``
    Run the multi-tenant campaign daemon: clients submit campaign
    specs over a local socket (see :mod:`repro.service`), identical
    submissions dedupe onto one execution through ``cache_key``,
    results stream back incrementally, and the store is kept bounded
    by LRU eviction under ``--size-budget``.  Accepted jobs are
    journaled to ``<store>/jobs.jsonl`` before the ack and recovered
    on restart (``--no-journal`` opts out).  SIGTERM/SIGINT drain the
    queue and exit 0; an unreadable jobs journal or tenant ledger
    exits 3 (recovery or quotas would be silently broken — fix or
    remove the file).  The
    ``--chaos-*`` flags arm the seeded daemon chaos harness
    (:class:`repro.resilience.ChaosConfig`) for recovery testing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .campaign import CampaignRunner, CampaignSpec, demo_spec
from .resilience import RetryPolicy

DEFAULT_STORE = ".repro-store"

RUN_EXIT_CODES = """\
exit codes:
  0  every processed cell completed (possibly from cache)
  1  fatal error (bad spec, or a cell failed under --failure-policy raise)
  2  partial failure: campaign finished, but one or more cells failed
     permanently; they are recorded in the manifest 'failures' section
     and will be re-attempted on the next run
"""


def _load_spec(path: Optional[str]) -> CampaignSpec:
    return CampaignSpec.from_file(path) if path else demo_spec()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec",
        metavar="FILE",
        help="JSON campaign spec (default: the built-in demo spec)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=DEFAULT_STORE,
        help=f"result store directory (default: {DEFAULT_STORE})",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Design-for-testability toolkit command line",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    campaign = commands.add_parser(
        "campaign", help="run/inspect/clean store-backed campaigns"
    )
    actions = campaign.add_subparsers(dest="action", required=True)

    run = actions.add_parser(
        "run",
        help="run or resume a campaign",
        epilog=RUN_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common(run)
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard each cell's fault simulation across N processes "
        "(results are bit-identical to N=1 and share one cache)",
    )
    run.add_argument(
        "--backend",
        choices=("fork", "spawn", "inline", "thread-lane"),
        help="execution backend for sharded fault simulation "
        "(default: auto — fork where available, else spawn)",
    )
    run.add_argument(
        "--limit",
        type=int,
        metavar="K",
        help="process at most K cells this invocation (resume later)",
    )
    run.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="R",
        help="retry a failing cell up to R times with jittered "
        "exponential backoff before giving up (default: 2)",
    )
    run.add_argument(
        "--failure-policy",
        choices=("raise", "quarantine"),
        default="raise",
        help="what to do with a cell that fails every retry: 'raise' "
        "aborts the run (exit 1), 'quarantine' records the failure "
        "and continues (exit 2); default: raise",
    )

    status = actions.add_parser(
        "status", help="show progress read from the store"
    )
    _add_common(status)

    clean = actions.add_parser(
        "clean", help="evict this campaign's artifacts + state"
    )
    _add_common(clean)
    clean.add_argument(
        "--purge-store",
        action="store_true",
        help="wipe EVERY artifact in the store, not just this "
        "campaign's cells (the store may be shared with other "
        "campaigns and tenants)",
    )

    serve = commands.add_parser(
        "serve", help="run the multi-tenant campaign daemon"
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        default=DEFAULT_STORE,
        help=f"shared result store directory (default: {DEFAULT_STORE})",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="N",
        help="TCP port (default: 0 = pick a free port; discover it "
        "via --ready-file)",
    )
    serve.add_argument(
        "--ready-file",
        metavar="FILE",
        help="write {host, port, pid, store} JSON here once listening "
        "(default: <store>/service.json)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fork-shard each cell's fault simulation across N "
        "processes (default: 1)",
    )
    serve.add_argument(
        "--lanes",
        type=int,
        default=1,
        metavar="N",
        help="run N concurrent execution lanes, fair-share scheduled "
        "across tenants; cold cells dispatch to a process backend so "
        "lanes overlap on CPU (default: 1)",
    )
    serve.add_argument(
        "--exec-backend",
        choices=("fork", "spawn", "inline", "thread-lane"),
        help="execution backend for cell work (default: auto — fork "
        "where available, else spawn)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="R",
        help="retry a failing cell up to R times before recording the "
        "failure (default: 0)",
    )
    serve.add_argument(
        "--failure-policy",
        choices=("raise", "quarantine"),
        default="quarantine",
        help="'quarantine' fails only the poisoned cell and keeps "
        "serving; 'raise' aborts the submitting job after the first "
        "failed cell (the daemon never dies); default: quarantine",
    )
    serve.add_argument(
        "--size-budget",
        type=int,
        metavar="BYTES",
        help="LRU-evict oldest artifacts once the store exceeds this "
        "many bytes (in-flight jobs' artifacts are never evicted; "
        "default: unbounded)",
    )
    serve.add_argument(
        "--tenant-quota",
        type=int,
        metavar="BYTES",
        help="reject submissions from tenants whose cold executions "
        "have already been charged this many artifact bytes "
        "(default: unlimited)",
    )
    serve.add_argument(
        "--quarantine-max-files",
        type=int,
        default=64,
        metavar="N",
        help="keep at most N quarantined corpses (default: 64)",
    )
    serve.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the jobs journal: accepted jobs are not durable "
        "and a daemon crash loses them (default: journal to "
        "<store>/jobs.jsonl and recover open jobs on start)",
    )
    serve.add_argument(
        "--job-history",
        type=int,
        default=64,
        metavar="N",
        help="keep the last N finished jobs resumable (their buffered "
        "event streams) for late 'resume' requests (default: 64)",
    )
    serve.add_argument(
        "--cell-deadline",
        type=float,
        metavar="SECONDS",
        help="per-attempt wall-clock bound for a cold cell in a "
        "process backend; hung workers are terminated and retried "
        "(default: unbounded)",
    )
    chaos_group = serve.add_argument_group(
        "chaos (seeded fault injection for recovery testing)"
    )
    chaos_group.add_argument(
        "--chaos-seed",
        type=int,
        metavar="SEED",
        help="arm the chaos harness with this seed (required for any "
        "other --chaos-* flag to take effect)",
    )
    chaos_group.add_argument(
        "--chaos-drop-client",
        type=float,
        default=0.0,
        metavar="RATE",
        help="abort client connections mid-stream with this "
        "probability per event (clients must resume; default: 0)",
    )
    chaos_group.add_argument(
        "--chaos-lane-kill",
        type=float,
        default=0.0,
        metavar="RATE",
        help="crash a cold cell's worker on the cell's first attempt "
        "with this probability (default: 0)",
    )
    chaos_group.add_argument(
        "--chaos-lane-hang",
        type=float,
        default=0.0,
        metavar="RATE",
        help="hang a cold cell's worker past --cell-deadline with "
        "this probability (default: 0)",
    )
    chaos_group.add_argument(
        "--chaos-kill-after-cells",
        type=int,
        metavar="N",
        help="SIGKILL the daemon itself (os._exit 137) after N cold "
        "cells complete — the restart-recovery scenario (default: off)",
    )
    chaos_group.add_argument(
        "--chaos-journal-corrupt",
        type=float,
        default=0.0,
        metavar="RATE",
        help="tear the jobs-journal tail mid-line after an append "
        "with this probability (default: 0)",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "serve":
        from .resilience import ChaosConfig
        from .service import JobJournalError, ServiceConfig, run_service

        ready_file = args.ready_file or str(Path(args.store) / "service.json")
        config = ServiceConfig(
            store_root=args.store,
            host=args.host,
            port=args.port,
            workers=max(1, args.workers),
            lanes=max(1, args.lanes),
            exec_backend=args.exec_backend,
            max_retries=max(0, args.retries),
            failure_policy=args.failure_policy,
            size_budget_bytes=args.size_budget,
            tenant_quota_bytes=args.tenant_quota,
            quarantine_max_files=args.quarantine_max_files,
            ready_file=ready_file,
            job_journal=not args.no_journal,
            job_history=max(1, args.job_history),
            cell_deadline_s=args.cell_deadline,
        )
        chaos = None
        if args.chaos_seed is not None:
            chaos = ChaosConfig(
                seed=args.chaos_seed,
                drop_client_rate=args.chaos_drop_client,
                crash_rate=args.chaos_lane_kill,
                hang_rate=args.chaos_lane_hang,
                daemon_kill_after_cells=args.chaos_kill_after_cells,
                corrupt_journal_rate=args.chaos_journal_corrupt,
                hang_s=(args.cell_deadline or 30.0) * 4,
            )
        try:
            return run_service(config, chaos=chaos)
        except JobJournalError as exc:
            print(f"[serve] FATAL: {exc}", file=sys.stderr, flush=True)
            return 3

    spec = _load_spec(args.spec)
    runner = CampaignRunner(
        spec,
        args.store,
        workers=getattr(args, "workers", 1),
        backend=getattr(args, "backend", None),
        retry=RetryPolicy(max_retries=max(0, getattr(args, "retries", 2))),
        failure_policy=getattr(args, "failure_policy", "raise"),
    )

    if args.action == "run":
        result = runner.run(limit=args.limit)
        sys.stdout.write(result.summary)
        print(
            f"[store] hits={result.hits} misses={result.misses} "
            f"quarantined={runner.store.stats.quarantined} "
            f"entries={len(runner.store)}"
        )
        print(f"[campaign] state: {runner.state_dir}")
        if result.completed < result.total:
            print(
                f"[campaign] {result.total - result.completed} cell(s) "
                "pending — re-run to compute what the store lacks"
            )
        if result.failures:
            for record in result.failures:
                print(
                    f"[campaign] FAILED {record.site}: {record.error}: "
                    f"{record.message} "
                    f"(digest {record.digest}, {record.attempts} attempts)"
                )
            print(
                f"[campaign] {len(result.failures)} cell(s) failed "
                "permanently — recorded in the manifest, re-attempted "
                "on the next run"
            )
            return 2
        return 0

    if args.action == "status":
        status = runner.status()
        print(
            f"campaign {status['campaign']!r}: "
            f"{status['completed']}/{status['total']} cells completed, "
            f"{len(status['failed'])} failed, "
            f"{status['skipped']} skipped, "
            f"{status['store_entries']} store entries at {status['store_root']}"
        )
        for cell_id in status["pending"]:
            print(f"  pending: {cell_id}")
        for cell_id in status["failed"]:
            print(f"  failed: {cell_id}")
        return 0

    if args.action == "clean":
        outcome = runner.clean(purge_store=args.purge_store)
        scope = "store-wide" if args.purge_store else "campaign-scoped"
        print(
            f"evicted {outcome['evicted']} artifact(s) ({scope}), "
            f"removed {outcome['state_dirs_removed']} campaign state dir(s)"
        )
        return 0

    raise AssertionError(f"unhandled action {args.action!r}")


if __name__ == "__main__":
    sys.exit(main())
