"""The campaign daemon: dedupe through cache_key, tenant isolation,
quotas, protocol errors, graceful shutdown, and the CLI smoke path.

Most tests run :class:`CampaignService` in-process on a background
thread (real sockets, real event loop) because that keeps failures
debuggable; one test drives the full ``python -m repro serve``
subprocess including SIGTERM.
"""

import asyncio
import json
import signal
import socket
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign import CampaignSpec
from repro.resilience import ChaosConfig
from repro.service import (
    PROTOCOL_SCHEMA,
    CampaignService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    wait_for_ready,
)
from repro.telemetry import validate_manifest


def tiny_spec(**overrides):
    """Two fast combinational cells (c17 × parallel_pattern × 2 seeds)."""
    options = dict(
        name="tiny",
        workloads=["c17"],
        engines=["parallel_pattern"],
        seeds=[0, 1],
        flows=["auto"],
        params={"method": "podem", "random_phase": 4},
    )
    options.update(overrides)
    return CampaignSpec(**options)


# cell_id of tiny_spec's first cell, for deterministic poisoning.
TINY_CELL_0 = "c17:atpg:parallel_pattern:stuck_at:0"
TINY_CELL_1 = "c17:atpg:parallel_pattern:stuck_at:1"


class ServiceHarness:
    """One in-process daemon on a background thread + its event loop."""

    def __init__(self, store_root, chaos=None, **config_overrides):
        options = dict(store_root=store_root, max_retries=0)
        options.update(config_overrides)
        self.config = ServiceConfig(**options)
        self.chaos = chaos
        self.service = None
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._amain())

    async def _amain(self):
        self.loop = asyncio.get_running_loop()
        self.service = CampaignService(self.config, chaos=self.chaos)
        await self.service.start()
        self._ready.set()
        await self.service.serve_until_stopped()

    def start(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "daemon did not start"
        host, port = self.service.address
        return ServiceClient(host=host, port=port, timeout=120)

    def stop(self):
        if (self._thread.is_alive() and self.loop is not None
                and self.service is not None):
            try:
                self.loop.call_soon_threadsafe(self.service.request_stop)
            except RuntimeError:
                pass  # loop already closed (shutdown op drained it)
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "daemon did not drain"


@pytest.fixture
def daemon(tmp_path):
    """``daemon(chaos=..., **config)`` -> (client, service); auto-stops."""
    harnesses = []

    def factory(chaos=None, **config_overrides):
        harness = ServiceHarness(
            tmp_path / "store", chaos=chaos, **config_overrides
        )
        harnesses.append(harness)
        client = harness.start()
        return client, harness.service

    yield factory
    for harness in harnesses:
        harness.stop()


def canonical(payloads):
    """Byte-comparable form of a ``key -> payload`` map."""
    return {
        key: json.dumps(value, sort_keys=True).encode("utf-8")
        for key, value in payloads.items()
    }


class TestSubmission:
    def test_cold_then_warm_hits_are_byte_identical(self, daemon):
        client, service = daemon()
        cold = client.submit(tiny_spec(), tenant="alice",
                             return_payloads=True)
        assert cold.ok
        assert (cold.done["hits"], cold.done["misses"]) == (0, 2)
        assert [e["index"] for e in cold.cells] == [0, 1]
        # Protocol v3: job-scoped seq is gapless — accepted=0, cells
        # 1..N, done=N+1.
        assert [e["seq"] for e in cold.cells] == [1, 2]
        assert cold.accepted["seq"] == 0
        assert cold.done["seq"] == 3
        assert [e["cell_id"] for e in cold.cells] == [TINY_CELL_0,
                                                      TINY_CELL_1]

        warm = client.submit(tiny_spec(), tenant="alice",
                             return_payloads=True)
        assert warm.ok
        assert (warm.done["hits"], warm.done["misses"]) == (2, 0)
        assert all(e["cached"] for e in warm.cells)
        assert canonical(warm.payloads()) == canonical(cold.payloads())
        assert service.stats.misses == 2 and service.stats.hits == 2

    def test_concurrent_tenants_collapse_to_one_execution(self, daemon):
        client, service = daemon()
        spec = tiny_spec()

        def submit(tenant):
            return client.submit(spec, tenant=tenant, return_payloads=True)

        with ThreadPoolExecutor(max_workers=2) as pool:
            alice, bob = pool.map(submit, ["alice", "bob"])

        assert alice.ok and bob.ok
        # Exactly one execution per unique cell, however the two jobs
        # raced: every non-miss slot was a share or a warm hit.
        assert service.stats.misses == 2
        total = {
            field: alice.done[field] + bob.done[field]
            for field in ("hits", "misses", "shared")
        }
        assert total["misses"] == 2
        assert total["hits"] + total["shared"] == 2
        # Both tenants hold byte-identical artifacts.
        assert canonical(alice.payloads()) == canonical(bob.payloads())

    def test_events_stream_incrementally(self, daemon):
        client, _ = daemon()
        kinds = [e["event"] for e in client.submit_iter(tiny_spec())]
        assert kinds == ["accepted", "cell", "cell", "done"]


class TestTenantIsolation:
    def test_poisoned_cell_fails_alone_queue_continues(self, daemon):
        client, service = daemon(
            chaos=ChaosConfig(poison_cells=(TINY_CELL_0,))
        )
        outcome = client.submit(tiny_spec(), tenant="mallory")
        assert not outcome.ok and not outcome.done["aborted"]
        by_cell = {e["cell_id"]: e for e in outcome.cells}
        assert by_cell[TINY_CELL_0]["status"] == "failed"
        assert by_cell[TINY_CELL_1]["status"] == "ok"
        failure = by_cell[TINY_CELL_0]["failure"]
        assert failure["error"] == "PoisonedFaultError"
        assert failure["action"] == "quarantine"
        # The daemon is not stalled: an unrelated clean submission
        # (different seeds, no poison match) completes normally.
        clean = client.submit(tiny_spec(seeds=[7]), tenant="alice")
        assert clean.ok
        assert service.stats.failed == 1

    def test_raise_policy_aborts_job_not_daemon(self, daemon):
        client, _ = daemon(
            chaos=ChaosConfig(poison_cells=(TINY_CELL_0,)),
            failure_policy="raise",
        )
        outcome = client.submit(tiny_spec(), tenant="mallory")
        assert outcome.done["aborted"]
        # Streaming stopped at the failed cell; the daemon survives and
        # serves the next job.
        assert [e["status"] for e in outcome.cells] == ["failed"]
        assert client.submit(tiny_spec(seeds=[7])).ok

    def test_failed_cells_are_not_cached(self, daemon):
        """A poisoned result must never become a warm hit later."""
        client, service = daemon(
            chaos=ChaosConfig(poison_cells=(TINY_CELL_0,))
        )
        first = client.submit(tiny_spec(), tenant="a")
        second = client.submit(tiny_spec(), tenant="b")
        assert first.failures and second.failures
        assert service.stats.failed == 2
        # The healthy cell, by contrast, was cached after job one.
        assert second.done["hits"] == 1


class TestQuotas:
    def test_over_quota_tenant_rejected_others_served(self, daemon):
        client, service = daemon(tenant_quota_bytes=1)
        first = client.submit(tiny_spec(), tenant="alice",
                              return_payloads=True)
        assert first.ok  # quota is checked at admission, not mid-job
        assert first.done["tenant_bytes"] > 1

        with pytest.raises(ServiceError) as excinfo:
            client.submit(tiny_spec(), tenant="alice")
        assert excinfo.value.code == "quota"
        assert service.stats.rejected == 1

        # Warm hits are free, so a different tenant under quota gets
        # the shared artifacts without being charged.
        bob = client.submit(tiny_spec(), tenant="bob",
                            return_payloads=True)
        assert bob.ok and bob.done["hits"] == 2
        assert bob.done["tenant_bytes"] == 0
        assert canonical(bob.payloads()) == canonical(first.payloads())


class TestProtocolErrors:
    def test_bad_spec_rejected(self, daemon):
        client, service = daemon()
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"name": "broken"})
        assert excinfo.value.code == "bad_spec"
        assert service.stats.rejected == 1

    def test_unknown_op_rejected(self, daemon):
        client, _ = daemon()
        events = list(
            client.request_iter({"schema": PROTOCOL_SCHEMA, "op": "nope"})
        )
        assert events[-1]["event"] == "error"
        assert events[-1]["code"] == "protocol"

    def test_garbage_line_rejected(self, daemon):
        client, _ = daemon()
        with socket.create_connection((client.host, client.port),
                                      timeout=30) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert (reply["event"], reply["code"]) == ("error", "protocol")

    def test_status_reports_counters_and_store(self, daemon):
        client, _ = daemon()
        client.submit(tiny_spec(), tenant="alice")
        status = client.status()
        assert status["stats"]["jobs"] == 1
        assert status["stats"]["misses"] == 2
        assert status["store"]["entries"] == 2
        assert status["tenants"]["alice"] > 0
        assert status["inflight"] == 0 and status["queued"] == 0


class TestLifecycleUnderLoad:
    def test_tight_budget_never_breaks_inflight_jobs(self, daemon):
        # A 1-byte budget makes *every* put trigger an LRU pass; pins
        # must keep each job's own artifacts alive until streamed.
        client, service = daemon(size_budget_bytes=1)
        outcome = client.submit(
            tiny_spec(seeds=[0, 1, 2, 3]), return_payloads=True
        )
        assert outcome.ok
        assert len(outcome.payloads()) == 4
        assert all(e["status"] == "ok" for e in outcome.cells)
        assert service.store.stats.evicted > 0
        # The drain manifest reports the store's own eviction count.
        manifest = json.loads(service.write_manifest().read_text())
        assert manifest["stats"]["evicted"] == service.store.stats.evicted

    def test_shutdown_writes_validated_service_manifest(self, daemon,
                                                        tmp_path):
        client, service = daemon()
        client.submit(tiny_spec(), tenant="alice")
        bye = client.shutdown()
        assert bye["event"] == "bye"
        # request_stop was issued by the op; wait for the drain.
        deadline = 60
        while not service._lane_tasks or not all(
            task.done() for task in service._lane_tasks
        ):
            asyncio_sleep = 0.05
            deadline -= asyncio_sleep
            assert deadline > 0, "daemon did not drain after shutdown op"
            threading.Event().wait(asyncio_sleep)
        manifest_path = tmp_path / "store" / "service" / "manifest.json"
        deadline = 60
        while not manifest_path.exists():
            deadline -= 0.05
            assert deadline > 0, "service manifest was not written"
            threading.Event().wait(0.05)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        validate_manifest(manifest)
        assert manifest["service"]["jobs"] == 1
        assert manifest["service"]["dedupe"] == {
            "hits": 0, "misses": 2, "shared": 0,
        }
        assert manifest["service"]["tenants"]["alice"] > 0
        assert manifest["service"]["store"]["entries"] == 2


class TestCliSmoke:
    def test_serve_subprocess_dedupes_and_exits_clean_on_sigterm(
        self, tmp_path
    ):
        store = tmp_path / "store"
        ready = tmp_path / "ready.json"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()),
                             encoding="utf-8")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(store),
                "--ready-file", str(ready),
                "--retries", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            info = wait_for_ready(ready, timeout=60)
            assert info["pid"] == proc.pid
            client = ServiceClient(host=info["host"], port=info["port"])
            spec = tiny_spec()

            def submit(tenant):
                return client.submit(spec, tenant=tenant,
                                     return_payloads=True)

            with ThreadPoolExecutor(max_workers=2) as pool:
                alice, bob = pool.map(submit, ["alice", "bob"])
            assert alice.ok and bob.ok
            assert alice.done["misses"] + bob.done["misses"] == 2
            assert canonical(alice.payloads()) == canonical(bob.payloads())

            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "[serve] listening on" in output
        assert "[serve] drained:" in output
        assert "misses=2" in output
        assert not ready.exists()  # ready file removed on clean exit
        manifest = json.loads(
            (store / "service" / "manifest.json").read_text(encoding="utf-8")
        )
        validate_manifest(manifest)
        assert manifest["service"]["dedupe"]["misses"] == 2


class TestTenantLedger:
    """Durable accounting: <store>/tenants.jsonl journal + rotation."""

    def test_charges_accumulate_and_survive_reload(self, tmp_path):
        from repro.service import TenantLedger

        ledger = TenantLedger(tmp_path)
        assert ledger.usage("alice") == 0
        assert ledger.charge("alice", 100) == 100
        assert ledger.charge("alice", 50) == 150
        ledger.charge("bob", 7)
        reborn = TenantLedger(tmp_path)
        assert reborn.usage("alice") == 150
        assert reborn.usage("bob") == 7
        assert reborn.snapshot() == {"alice": 150, "bob": 7}

    def test_rotation_compacts_to_snapshot_and_replays_exactly(
        self, tmp_path, monkeypatch
    ):
        from repro.service import TENANTS_JOURNAL, TenantLedger

        monkeypatch.setattr("repro.store.store.LOG_ROTATE_BYTES", 256)
        ledger = TenantLedger(tmp_path)
        for index in range(64):
            ledger.charge(f"tenant-{index % 3}", 10)
        rotated = tmp_path / (TENANTS_JOURNAL + ".1")
        assert rotated.exists(), "journal never rotated"
        # The live journal stays bounded near the threshold...
        assert (tmp_path / TENANTS_JOURNAL).stat().st_size < 4 * 256
        # ...and a replay (which never reads the rotated file when the
        # current journal exists) reproduces the exact totals.
        reborn = TenantLedger(tmp_path)
        assert reborn.snapshot() == ledger.snapshot()
        total = sum(reborn.snapshot().values())
        assert total == 64 * 10

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        from repro.service import TENANTS_JOURNAL, TenantLedger

        ledger = TenantLedger(tmp_path)
        ledger.charge("alice", 5)
        path = tmp_path / TENANTS_JOURNAL
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("{torn json line\n")
        ledger.charge("alice", 5)
        reborn = TenantLedger(tmp_path)
        assert reborn.usage("alice") == 10


class TestAccountingSurvivesRestart:
    def test_usage_resumes_from_journal_after_daemon_restart(
        self, daemon
    ):
        client1, service1 = daemon()
        outcome = client1.submit(tiny_spec(), tenant="alice")
        charged = outcome.done["tenant_bytes"]
        assert charged > 0
        # A second daemon over the same store (fixture reuses the store
        # root) replays the journal: alice's usage is back without any
        # cold execution in this daemon's lifetime.
        client2, service2 = daemon()
        assert service2.ledger.usage("alice") == charged
        assert client2.status()["tenants"]["alice"] == charged

    def test_quota_enforced_against_resumed_usage(self, daemon):
        client1, _ = daemon()
        charged = client1.submit(tiny_spec(), tenant="alice").done[
            "tenant_bytes"
        ]
        # Restarted daemon with a quota below what alice already used:
        # her next submission is rejected before it runs anything.
        client2, service2 = daemon(tenant_quota_bytes=charged)
        assert service2.stats.misses == 0
        with pytest.raises(ServiceError) as info:
            client2.submit(tiny_spec(seeds=[7]), tenant="alice")
        assert info.value.code == "quota"
        # Other tenants are unaffected.
        assert client2.submit(tiny_spec(), tenant="bob").ok


class TestPriorityScheduling:
    def test_v1_and_v2_requests_rejected(self, daemon):
        client, _ = daemon()
        from repro.service.protocol import submit_request

        for schema in ("repro.service/1", "repro.service/2"):
            message = submit_request(tiny_spec().to_dict(), tenant="old")
            message["schema"] = schema
            events = list(client.request_iter(message))
            assert [event["event"] for event in events] == ["error"]
            assert events[0]["code"] == "protocol"

    def test_bad_priority_rejected(self, daemon):
        client, _ = daemon()
        from repro.service.protocol import submit_request

        message = submit_request(tiny_spec().to_dict())
        message["priority"] = "urgent"
        events = list(client.request_iter(message))
        assert events[0]["event"] == "error"
        assert events[0]["code"] == "protocol"

    def test_high_priority_job_overtakes_queued_bulk(self, daemon):
        """One lane, one tenant: priority 10 jumps the bulk backlog."""
        client, _ = daemon()
        order = []
        bulk_accepted = threading.Event()

        def run_bulk():
            for event in client.submit_iter(
                tiny_spec(seeds=list(range(10))), tenant="alice", priority=0
            ):
                if event["event"] == "accepted":
                    bulk_accepted.set()
                elif event["event"] == "done":
                    order.append("bulk")

        bulk_thread = threading.Thread(target=run_bulk)
        bulk_thread.start()
        try:
            assert bulk_accepted.wait(timeout=60)
            interactive = client.submit(
                tiny_spec(seeds=[100]), tenant="alice", priority=10
            )
            assert interactive.ok
            order.append("interactive")
        finally:
            bulk_thread.join(timeout=300)
        assert not bulk_thread.is_alive()
        assert order == ["interactive", "bulk"], (
            "high-priority job should complete before the queued bulk"
        )


class TestExecutionLanes:
    def _run_daemon(self, store_root, **config):
        harness = ServiceHarness(store_root, **config)
        client = harness.start()
        return harness, client

    @staticmethod
    def _semantic(payloads):
        """Payloads with wall-clock noise dropped: two executions of
        the same cell differ only in ``duration_s`` fields."""

        def strip(value):
            if isinstance(value, dict):
                return {
                    key: strip(inner)
                    for key, inner in value.items()
                    if key != "duration_s"
                }
            if isinstance(value, list):
                return [strip(inner) for inner in value]
            return value

        return canonical(strip(payloads))

    def test_lanes_results_identical_to_single_lane(self, tmp_path):
        from repro.exec import ForkBackend

        spec = tiny_spec(seeds=[0, 1, 2, 3])
        payloads = {}
        for lanes in (1, 4):
            harness, client = self._run_daemon(
                tmp_path / f"store-lanes-{lanes}", lanes=lanes
            )
            try:
                outcome = client.submit(spec, return_payloads=True)
                assert outcome.ok
                assert outcome.done["misses"] == 4  # all cold
                payloads[lanes] = outcome.payloads()
            finally:
                harness.stop()
        assert self._semantic(payloads[1]) == self._semantic(payloads[4])
        if not ForkBackend.available():
            return
        # Each lane's forked cold-cell worker starts the cell's own
        # two-worker shard pool inside it.
        harness, client = self._run_daemon(
            tmp_path / "store-nested", lanes=2, workers=2,
            exec_backend="fork",
        )
        try:
            outcome = client.submit(spec, return_payloads=True)
        finally:
            harness.stop()
        assert all(event["status"] == "ok" for event in outcome.cells)
        nested = outcome.payloads()
        assert set(nested) == set(payloads[1])
        for key, payload in nested.items():
            assert payload["report"] == payloads[1][key]["report"]
            assert payload["patterns"] == payloads[1][key]["patterns"]

    def test_multilane_daemon_uses_process_backend_when_named(
        self, tmp_path
    ):
        # An explicit backend is honored regardless of core count
        # (auto-selection additionally requires >= 2 cores).
        from repro.exec import ForkBackend

        if not ForkBackend.available():
            pytest.skip("fork unavailable on this platform")
        harness, client = self._run_daemon(
            tmp_path / "store", lanes=2, exec_backend="fork"
        )
        try:
            backend = harness.service._cell_backend
            assert backend is not None and backend.isolated
            assert backend.name == "fork"
            assert client.status()["lanes"] == 2
            assert client.submit(tiny_spec()).ok
        finally:
            harness.stop()

    def test_inline_exec_backend_degrades_to_lane_thread(self, tmp_path):
        harness, client = self._run_daemon(
            tmp_path / "store", lanes=2, exec_backend="inline"
        )
        try:
            assert not harness.service._cell_backend.isolated
            assert client.submit(tiny_spec()).ok
        finally:
            harness.stop()

    def test_concurrent_tenants_across_lanes(self, tmp_path):
        harness, client = self._run_daemon(tmp_path / "store", lanes=4)
        try:
            specs = {
                tenant: tiny_spec(seeds=[index * 2, index * 2 + 1])
                for index, tenant in enumerate(["a", "b", "c"])
            }

            def submit(tenant):
                return client.submit(
                    specs[tenant], tenant=tenant, return_payloads=True
                )

            with ThreadPoolExecutor(max_workers=3) as pool:
                outcomes = list(pool.map(submit, specs))
            assert all(outcome.ok for outcome in outcomes)
            assert harness.service.stats.misses == 6
            # Every tenant consumed lane time in the scheduler ledger.
            charges = harness.service.scheduler.charges()
            assert set(charges) == {"a", "b", "c"}
            assert all(value > 0 for value in charges.values())
        finally:
            harness.stop()
