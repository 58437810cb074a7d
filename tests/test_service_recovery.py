"""Crash-safety of the campaign daemon: the durable job journal,
restart recovery, client retry/resume over protocol-v3 ``seq``, stale
ready files, protocol fuzz, and daemon-level chaos.

The contract under test (see DESIGN.md "Service recovery contract"):

* journal-before-ack — an acked ``job_id`` is always recoverable;
* every job's event stream is strictly increasing and gapless in
  ``seq`` across any number of drops, resumes, and daemon restarts;
* recovery re-runs are hits-only where cells completed pre-crash, and
  chaotic runs end byte-identical (modulo wall-clock) to clean ones;
* torn journal tails are skipped with a counter, never fatal; an
  unreadable journal exits 3 instead of serving with recovery broken.

In-process daemons (the :class:`test_service.ServiceHarness` pattern)
keep most scenarios debuggable; the SIGKILL-and-restart scenario and
the exit-code contract need real subprocesses.
"""

import json
import socket
import subprocess
import sys
import threading
import time

import pytest

from test_service import ServiceHarness, canonical, tiny_spec

from repro.resilience import ChaosConfig, RetryPolicy, corrupt_tail
from repro.service import (
    JOBS_JOURNAL,
    TENANTS_JOURNAL,
    JobJournal,
    JobJournalError,
    ServiceClient,
    ServiceError,
    StaleReadyFileError,
    TenantLedger,
    read_ready_file,
    wait_for_ready,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_SCHEMA,
    submit_request,
)


@pytest.fixture
def daemon(tmp_path):
    """Same factory as test_service: shared store, auto-stopped."""
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


def strip_durations(value):
    """Drop wall-clock noise so two executions compare byte-identical."""
    if isinstance(value, dict):
        return {
            key: strip_durations(inner)
            for key, inner in value.items()
            if key != "duration_s"
        }
    if isinstance(value, list):
        return [strip_durations(inner) for inner in value]
    return value


def charge_lines(store_root, tenant):
    """``op: charge`` journal lines for one tenant (accounting audit)."""
    lines = []
    path = store_root / TENANTS_JOURNAL
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if entry.get("op") == "charge" and entry.get("tenant") == tenant:
                lines.append(entry)
    return lines


# ----------------------------------------------------------------------
# JobJournal unit behaviour
# ----------------------------------------------------------------------
class TestJobJournal:
    def test_accepted_then_done_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path)
        spec = tiny_spec().to_dict()
        journal.record_accepted("job-000000", 0, "alice", 5, True, spec)
        journal.record_accepted("job-000001", 1, "bob", 0, False, spec)
        journal.record_done("job-000000")

        reborn = JobJournal(tmp_path)
        assert set(reborn.open_jobs) == {"job-000001"}
        record = reborn.open_jobs["job-000001"]
        assert record["tenant"] == "bob"
        assert record["priority"] == 0
        assert record["return_payloads"] is False
        assert record["spec"] == spec
        # Numbering continues past every journaled job, done or not.
        assert reborn.next_job_number == 2

    def test_rotation_compacts_open_jobs_into_snapshot(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.store.store.LOG_ROTATE_BYTES", 2048)
        spec = tiny_spec().to_dict()
        journal = JobJournal(tmp_path)
        journal.record_accepted("job-keep", 0, "alice", 0, False, spec)
        for index in range(1, 40):
            job_id = f"job-{index:06d}"
            journal.record_accepted(job_id, index, "bulk", 0, False, spec)
            journal.record_done(job_id)
        assert journal.rotations > 0
        assert (tmp_path / (JOBS_JOURNAL + ".1")).exists()
        # Live journal stays bounded near the threshold, and a replay
        # (which never needs the rotated file) still finds the one
        # open job plus the job-number watermark.
        assert (tmp_path / JOBS_JOURNAL).stat().st_size < 4 * 2048
        reborn = JobJournal(tmp_path)
        assert set(reborn.open_jobs) == {"job-keep"}
        assert reborn.next_job_number == 40

    def test_torn_tail_skipped_with_counter(self, tmp_path):
        spec = tiny_spec().to_dict()
        journal = JobJournal(tmp_path)
        journal.record_accepted("job-000000", 0, "alice", 0, False, spec)
        journal.record_accepted("job-000001", 1, "alice", 0, False, spec)
        assert corrupt_tail(tmp_path / JOBS_JOURNAL, seed=7)

        reborn = JobJournal(tmp_path)
        # The torn final line loses exactly one job's recoverability;
        # everything before it replays, and nothing raises.
        assert reborn.torn_lines == 1
        assert set(reborn.open_jobs) == {"job-000000"}

    def test_unreadable_journal_raises_job_journal_error(self, tmp_path):
        (tmp_path / JOBS_JOURNAL).mkdir()  # a directory in the way
        with pytest.raises(JobJournalError):
            JobJournal(tmp_path)

    def test_unreadable_ledger_raises_job_journal_error(self, tmp_path):
        # Replaying nothing would restart every tenant's quota at zero.
        (tmp_path / TENANTS_JOURNAL).mkdir()  # a directory in the way
        with pytest.raises(JobJournalError):
            TenantLedger(tmp_path)

    def test_disabled_journal_writes_nothing(self, tmp_path):
        journal = JobJournal(tmp_path, enabled=False)
        journal.record_accepted(
            "job-000000", 0, "alice", 0, False, tiny_spec().to_dict()
        )
        assert not (tmp_path / JOBS_JOURNAL).exists()
        assert journal.stats_dict()["enabled"] == 0

    def test_chaos_tears_exactly_the_final_line(self, tmp_path):
        chaos = ChaosConfig(seed=1, corrupt_journal_rate=1.0)
        journal = JobJournal(tmp_path, chaos=chaos)
        spec = tiny_spec().to_dict()
        journal.record_accepted("job-000000", 0, "alice", 0, False, spec)
        raw = (tmp_path / JOBS_JOURNAL).read_bytes()
        assert not raw.endswith(b"\n")  # tail torn mid-line
        # Replay survives: zero or one parseable line, never an error.
        reborn = JobJournal(tmp_path)
        assert reborn.torn_lines >= 1


class TestLedgerTornTail:
    def test_torn_ledger_line_counted_not_fatal(self, tmp_path):
        ledger = TenantLedger(tmp_path)
        ledger.charge("alice", 100)
        ledger.charge("alice", 50)
        assert corrupt_tail(tmp_path / TENANTS_JOURNAL, seed=3)
        reborn = TenantLedger(tmp_path)
        assert reborn.torn_lines == 1
        assert reborn.usage("alice") == 100  # the torn charge is lost


# ----------------------------------------------------------------------
# Recovery, resume, and the seq contract (in-process daemons)
# ----------------------------------------------------------------------
class TestRecovery:
    def test_open_journaled_job_recovered_hits_only(self, tmp_path, daemon):
        # Daemon 1 populates the store and retires its own job.
        client1, service1 = daemon()
        assert client1.submit(tiny_spec(), tenant="alice").ok
        assert service1.journal.open_jobs == {}

        # Simulate a crash-orphaned job: journaled accepted, no done.
        journal = JobJournal(tmp_path / "store")
        journal.record_accepted(
            "job-orphan", journal.next_job_number, "alice", 0, True,
            tiny_spec().to_dict(),
        )

        # Daemon 2 over the same store replays the journal on start.
        client2, service2 = daemon()
        assert service2.stats.recovered == 1
        outcome = client2.resume("job-orphan")
        assert outcome.ok
        assert outcome.accepted["recovered"] is True
        # Every cell completed before the "crash": recovery is pure
        # store hits — zero re-execution.
        assert (outcome.done["hits"], outcome.done["misses"]) == (2, 0)
        # Gapless, strictly-increasing seq across the whole stream.
        seqs = (
            [outcome.accepted["seq"]]
            + [e["seq"] for e in outcome.cells]
            + [outcome.done["seq"]]
        )
        assert seqs == [0, 1, 2, 3]
        # The recovered job is journaled done — a third daemon
        # lifetime has nothing left to recover.
        assert service2.journal.open_jobs == {}

    def test_recovered_job_torn_tail_does_not_block_start(self, tmp_path,
                                                          daemon):
        journal = JobJournal(tmp_path / "store")
        journal.record_accepted(
            "job-good", 0, "alice", 0, False, tiny_spec().to_dict()
        )
        # A second accepted line torn mid-append by the crash.
        path = tmp_path / "store" / JOBS_JOURNAL
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"op": "accepted", "n": 1, "job": {"job_id"')

        client, service = daemon()
        assert service.stats.recovered == 1
        assert service.journal.torn_lines == 1
        assert client.resume("job-good").ok
        with pytest.raises(ServiceError) as info:
            client.resume("job-000001")
        assert info.value.code == "unknown_job"

    def test_resume_after_midstream_disconnect(self, daemon):
        client, service = daemon()
        message = submit_request(tiny_spec().to_dict(), tenant="alice")
        stream = client.request_iter(message)
        seen = []
        for event in stream:
            seen.append(event)
            if event["event"] == "cell":
                break
        stream.close()  # hang up mid-job, like a flaky network would

        job_id = seen[0]["job_id"]
        rest = client.resume(job_id, after_seq=seen[-1]["seq"])
        assert rest.ok
        seqs = [e["seq"] for e in seen] + [
            e["seq"] for e in rest.cells
        ] + [rest.done["seq"]]
        assert seqs == sorted(seqs)
        assert seqs == list(range(len(seqs)))  # gapless, no dupes
        assert service.stats.resumed == 1

    def test_finished_job_replays_identically_from_history(self, daemon):
        client, _ = daemon()
        first = client.submit(tiny_spec(), tenant="alice",
                              return_payloads=True)
        replay = client.resume(first.job_id)
        assert replay.ok
        assert replay.cells == first.cells  # buffered events, verbatim
        assert replay.done == first.done

    def test_resume_unknown_job_is_structured_error(self, daemon):
        client, _ = daemon()
        with pytest.raises(ServiceError) as info:
            client.resume("job-999999")
        assert info.value.code == "unknown_job"

    def test_job_history_is_bounded(self, daemon):
        client, service = daemon(job_history=2)
        ids = [
            client.submit(tiny_spec(seeds=[seed]), tenant="alice").job_id
            for seed in range(4)
        ]
        # Oldest finished jobs aged out of the resume table...
        with pytest.raises(ServiceError) as info:
            client.resume(ids[0])
        assert info.value.code == "unknown_job"
        # ...but the most recent ones still replay.
        assert client.resume(ids[-1]).ok

    def test_journal_disabled_daemon_still_serves(self, daemon):
        client, service = daemon(job_journal=False)
        assert client.submit(tiny_spec(), tenant="alice").ok
        assert not (service.store.root / JOBS_JOURNAL).exists()
        assert client.status()["journal"]["enabled"] == 0


class TestClientRetryResume:
    def test_plain_submit_dies_on_injected_drop(self, daemon):
        client, _ = daemon(chaos=ChaosConfig(seed=3, drop_client_rate=1.0))
        with pytest.raises(ServiceError) as info:
            client.submit(tiny_spec(), tenant="alice")
        assert info.value.code == "connection"

    def test_submit_iter_survives_injected_drops(self, daemon):
        chaos = ChaosConfig(seed=3, drop_client_rate=1.0)
        client, service = daemon(chaos=chaos)
        events = list(
            client.submit_iter(
                tiny_spec(),
                tenant="alice",
                resume_deadline_s=120,
                retry=RetryPolicy(base_delay_s=0.01, max_delay_s=0.05),
            )
        )
        assert [e["event"] for e in events] == [
            "accepted", "cell", "cell", "done",
        ]
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        # The chaos actually bit: the stream was dropped mid-flight and
        # transparently resumed by job_id + last-seen seq.
        assert service.stats.dropped == 1
        assert service.stats.resumed == 1

    def test_drop_chaos_run_matches_clean_run_bytes(self, tmp_path):
        results = {}
        for label, chaos in (
            ("clean", None),
            ("chaotic", ChaosConfig(seed=11, drop_client_rate=0.7)),
        ):
            harness = ServiceHarness(tmp_path / f"store-{label}",
                                     chaos=chaos)
            client = harness.start()
            try:
                events = list(
                    client.submit_iter(
                        tiny_spec(seeds=[0, 1, 2]),
                        tenant="alice",
                        return_payloads=True,
                        resume_deadline_s=120,
                        retry=RetryPolicy(base_delay_s=0.01,
                                          max_delay_s=0.05),
                    )
                )
            finally:
                harness.stop()
            assert [e["seq"] for e in events] == list(range(len(events)))
            payloads = {
                e["key"]: e["payload"] for e in events if "payload" in e
            }
            results[label] = canonical(strip_durations(payloads))
        assert results["chaotic"] == results["clean"]

    def test_reconnect_gives_up_at_deadline(self, tmp_path):
        # Nobody listening: deadline-bounded, deterministic backoff.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = ServiceClient(host="127.0.0.1", port=dead_port, timeout=5)
        start = time.monotonic()
        with pytest.raises(ServiceError) as info:
            list(
                client.submit_iter(
                    tiny_spec(),
                    resume_deadline_s=0.5,
                    retry=RetryPolicy(base_delay_s=0.05, max_delay_s=0.1),
                )
            )
        elapsed = time.monotonic() - start
        assert info.value.code == "connection"
        assert elapsed < 10  # bounded by the deadline, not the timeout


# ----------------------------------------------------------------------
# Worker chaos in lanes: a crashed/hung/failed cell worker consumes
# exactly one attempt
# ----------------------------------------------------------------------
class TestLaneCrashAccounting:
    def _assert_one_retry_one_charge(self, client, service, tenant):
        outcome = client.submit(
            tiny_spec(seeds=[0]), tenant=tenant, return_payloads=True
        )
        assert outcome.ok and not outcome.failures
        assert outcome.done["misses"] == 1
        # The injected lane fault consumed exactly one retry-budget
        # attempt; the eventual success was charged exactly once.
        assert service.stats.retries == 1
        assert service.stats.failed == 0
        charges = charge_lines(service.store.root, tenant)
        assert len(charges) == 1
        assert charges[0]["bytes"] > 0
        assert service.ledger.usage(tenant) == charges[0]["bytes"]

    def test_inline_lane_kill_retries_once_charges_once(self, daemon):
        client, service = daemon(
            chaos=ChaosConfig(seed=5, crash_rate=1.0), max_retries=1
        )
        self._assert_one_retry_one_charge(client, service, "alice")

    def test_forked_lane_kill_retries_once_charges_once(self, tmp_path):
        from repro.exec import ForkBackend

        if not ForkBackend.available():
            pytest.skip("fork unavailable on this platform")
        # A worker that os._exits and one that raises cost the same.
        for name, chaos in (
            ("crash", ChaosConfig(seed=5, crash_rate=1.0)),
            ("exception", ChaosConfig(seed=5, exception_rate=1.0)),
        ):
            harness = ServiceHarness(
                tmp_path / f"store-{name}",
                chaos=chaos,
                max_retries=1,
                lanes=2,
                exec_backend="fork",
            )
            client = harness.start()
            try:
                self._assert_one_retry_one_charge(
                    client, harness.service, "alice"
                )
            finally:
                harness.stop()

    def test_forked_lane_hang_reaped_by_cell_deadline(self, tmp_path):
        from repro.exec import ForkBackend

        if not ForkBackend.available():
            pytest.skip("fork unavailable on this platform")
        harness = ServiceHarness(
            tmp_path / "store",
            chaos=ChaosConfig(seed=5, hang_rate=1.0, hang_s=30.0),
            max_retries=1,
            lanes=2,
            exec_backend="fork",
            cell_deadline_s=0.75,
        )
        client = harness.start()
        try:
            start = time.monotonic()
            self._assert_one_retry_one_charge(
                client, harness.service, "alice"
            )
            # The hung worker died at the deadline, not after hang_s.
            assert time.monotonic() - start < 20
        finally:
            harness.stop()

    def _assert_exhausted_fails_cleanly(self, client, service, error):
        outcome = client.submit(tiny_spec(seeds=[0]), tenant="alice")
        assert not outcome.ok
        # The failure is recorded under the task's own error.
        assert outcome.failures[0]["attempts"] == 2
        assert outcome.failures[0]["error"] == error
        assert charge_lines(service.store.root, "alice") == []
        # The daemon survives the exhausted budget and keeps serving.
        assert client.status()["stats"]["failed"] == 1

    def test_exhausted_lane_kills_fail_cleanly(self, daemon, tmp_path):
        # first_attempt_only=False keeps killing through the budget:
        # the cell fails with a FailureRecord, the daemon survives.
        client, service = daemon(
            chaos=ChaosConfig(
                seed=5, crash_rate=1.0, first_attempt_only=False
            ),
            max_retries=1,
        )
        self._assert_exhausted_fails_cleanly(client, service, "ChaosError")
        from repro.exec import ForkBackend

        if not ForkBackend.available():
            pytest.skip("fork unavailable on this platform")
        # A forked cell fails the same way, under the worker's error.
        for name, chaos, error in (
            ("exception", ChaosConfig(seed=5, exception_rate=1.0,
                                      first_attempt_only=False),
             "ChaosError"),
            ("crash", ChaosConfig(seed=5, crash_rate=1.0,
                                  first_attempt_only=False),
             "WorkerCrash"),
        ):
            harness = ServiceHarness(
                tmp_path / f"store-{name}",
                chaos=chaos,
                max_retries=1,
                lanes=2,
                exec_backend="fork",
            )
            forked_client = harness.start()
            try:
                self._assert_exhausted_fails_cleanly(
                    forked_client, harness.service, error
                )
            finally:
                harness.stop()

    def test_cli_lane_kill_flag_retries_once(self, tmp_path):
        # ``--chaos-lane-kill`` arms the workers' crash_rate.
        ready = tmp_path / "ready.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(tmp_path / "store"),
                "--ready-file", str(ready),
                "--chaos-seed", "0", "--chaos-lane-kill", "1.0",
                "--retries", "1",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            info = wait_for_ready(ready, timeout=60)
            client = ServiceClient(host=info["host"], port=info["port"],
                                   timeout=120)
            outcome = client.submit(tiny_spec(seeds=[0]), tenant="alice")
            assert outcome.ok and outcome.done["misses"] == 1
            stats = client.status()["stats"]
            assert stats["retries"] == 1
            assert stats["failed"] == 0
            client.shutdown()
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=30)


# ----------------------------------------------------------------------
# Protocol fuzz: malformed input never kills the daemon
# ----------------------------------------------------------------------
class TestProtocolFuzz:
    def _raw(self, client, payload, timeout=30):
        """Send raw bytes; return the decoded reply line (or None)."""
        try:
            with socket.create_connection(
                (client.host, client.port), timeout=timeout
            ) as sock:
                try:
                    sock.sendall(payload)
                except OSError:
                    pass  # daemon already rejected and closed: fine
                try:
                    line = sock.makefile("rb").readline()
                except OSError:
                    return None
        except OSError:
            return None
        if not line:
            return None
        return json.loads(line)

    @pytest.mark.parametrize(
        "payload",
        [
            b"this is not json\n",
            b"\n",
            b"42\n",
            b'["a", "list"]\n',
            json.dumps({"schema": PROTOCOL_SCHEMA, "op": "nope"}).encode()
            + b"\n",
            json.dumps({"schema": "bogus/9", "op": "submit"}).encode()
            + b"\n",
            json.dumps({"schema": PROTOCOL_SCHEMA, "op": "submit"}).encode()
            + b"\n",  # missing spec
            json.dumps(
                {"schema": PROTOCOL_SCHEMA, "op": "submit", "spec": {},
                 "tenant": ""}
            ).encode() + b"\n",
            json.dumps(
                {"schema": PROTOCOL_SCHEMA, "op": "submit", "spec": {},
                 "priority": "urgent"}
            ).encode() + b"\n",
            json.dumps({"schema": PROTOCOL_SCHEMA, "op": "resume"}).encode()
            + b"\n",  # missing job_id
            json.dumps(
                {"schema": PROTOCOL_SCHEMA, "op": "resume", "job_id": "x",
                 "after_seq": "zero"}
            ).encode() + b"\n",
            json.dumps(
                {"schema": PROTOCOL_SCHEMA, "op": "resume", "job_id": "x",
                 "after_seq": -2}
            ).encode() + b"\n",
        ],
    )
    def test_malformed_request_gets_structured_error(self, daemon, payload):
        client, service = daemon()
        reply = self._raw(client, payload)
        assert reply is not None, "daemon must answer, not just hang up"
        assert reply["event"] == "error"
        assert reply["code"] == "protocol"
        # The daemon survives and still does real work afterwards.
        assert client.submit(tiny_spec(), tenant="alice").ok

    def test_oversized_line_rejected_daemon_survives(self, daemon):
        client, service = daemon()
        blob = b"x" * (MAX_LINE_BYTES + 4096) + b"\n"
        reply = self._raw(client, blob, timeout=60)
        # Either the structured error arrived, or the daemon's abort
        # raced our send and the reply was lost with the RST — both
        # acceptable; what matters is the daemon neither died nor
        # leaked the connection.
        if reply is not None:
            assert reply["event"] == "error"
            assert reply["code"] == "protocol"
        status = client.status()
        assert status["stats"]["jobs"] == 0
        assert client.submit(tiny_spec(), tenant="alice").ok

    def test_fuzz_storm_leaks_no_connections(self, daemon):
        client, service = daemon()
        for seed in range(20):
            self._raw(client, b"garbage %d {{{\n" % seed)
        deadline = time.monotonic() + 30
        while service._conn_tasks and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not service._conn_tasks, "connection tasks leaked"
        assert client.submit(tiny_spec(), tenant="alice").ok


# ----------------------------------------------------------------------
# Ready-file staleness
# ----------------------------------------------------------------------
class TestStaleReadyFile:
    def _ready(self, tmp_path, pid):
        path = tmp_path / "ready.json"
        path.write_text(
            json.dumps(
                {"schema": PROTOCOL_SCHEMA, "host": "127.0.0.1",
                 "port": 1, "pid": pid, "store": str(tmp_path)}
            ),
            encoding="utf-8",
        )
        return path

    def _dead_pid(self):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait(timeout=30)
        return proc.pid

    def test_dead_pid_fails_fast_not_after_timeout(self, tmp_path):
        path = self._ready(tmp_path, self._dead_pid())
        start = time.monotonic()
        with pytest.raises(StaleReadyFileError):
            wait_for_ready(path, timeout=30)
        assert time.monotonic() - start < 5, "stale file must fail fast"
        with pytest.raises(StaleReadyFileError):
            ServiceClient.from_ready_file(path)

    def test_live_pid_accepted(self, tmp_path):
        import os

        path = self._ready(tmp_path, os.getpid())
        assert read_ready_file(path)["pid"] == os.getpid()
        assert wait_for_ready(path, timeout=5)["port"] == 1

    def test_check_can_be_disabled(self, tmp_path):
        path = self._ready(tmp_path, self._dead_pid())
        assert read_ready_file(path, check_pid=False)["port"] == 1


# ----------------------------------------------------------------------
# The full crash: SIGKILL mid-job, restart, client resumes (subprocess)
# ----------------------------------------------------------------------
class TestDaemonKillRestart:
    @staticmethod
    def _free_port():
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def _serve_args(self, store, port, ready, *extra):
        return [
            sys.executable, "-m", "repro", "serve",
            "--store", str(store),
            "--port", str(port),
            "--ready-file", str(ready),
            "--retries", "0",
            *extra,
        ]

    def test_sigkill_midjob_restart_resume_byte_identical(self, tmp_path):
        store = tmp_path / "store"
        ready = tmp_path / "ready.json"
        port = self._free_port()
        spec = tiny_spec()
        proc_a = subprocess.Popen(
            self._serve_args(
                store, port, ready,
                "--chaos-seed", "0", "--chaos-kill-after-cells", "1",
            ),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        proc_b = None
        events, errors = [], []
        try:
            info = wait_for_ready(ready, timeout=60)
            assert info["pid"] == proc_a.pid
            client = ServiceClient(host=info["host"], port=info["port"],
                                   timeout=120)

            def run_client():
                try:
                    for event in client.submit_iter(
                        spec,
                        tenant="alice",
                        return_payloads=True,
                        resume_deadline_s=120,
                        retry=RetryPolicy(base_delay_s=0.05,
                                          max_delay_s=0.25),
                    ):
                        events.append(event)
                except BaseException as exc:  # surfaced on the main thread
                    errors.append(exc)

            thread = threading.Thread(target=run_client)
            thread.start()

            # Chaos SIGKILLs the daemon after the first cold cell.
            assert proc_a.wait(timeout=120) == 137
            proc_a.communicate(timeout=30)

            # Satellite (a): the leftover ready file names a dead pid
            # and discovery fails *fast*, not after the poll timeout.
            start = time.monotonic()
            with pytest.raises(StaleReadyFileError):
                wait_for_ready(ready, timeout=30)
            assert time.monotonic() - start < 5
            ready.unlink()

            # Restart on the same port + store; recovery replays the
            # journal before the socket opens.
            proc_b = subprocess.Popen(
                self._serve_args(store, port, ready),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            info_b = wait_for_ready(ready, timeout=60)
            assert info_b["pid"] == proc_b.pid

            thread.join(timeout=180)
            assert not thread.is_alive(), "client never finished"
            assert not errors, f"client raised: {errors!r}"

            # One gapless stream across the crash: accepted, every
            # cell exactly once, done.
            assert [e["event"] for e in events] == [
                "accepted", "cell", "cell", "done",
            ]
            assert [e["seq"] for e in events] == [0, 1, 2, 3]
            done = events[-1]
            assert not done["failed"] and not done["aborted"]
            # The pre-crash cell was durable: recovery re-served it
            # from the store instead of re-executing it.
            assert done["hits"] >= 1
            assert done["hits"] + done["misses"] == 2

            status = client.status()
            assert status["stats"]["recovered"] == 1
            assert status["journal"]["torn_lines"] == 0

            client.shutdown()
            assert proc_b.wait(timeout=120) == 0
            proc_b.communicate(timeout=30)
        finally:
            for proc in (proc_a, proc_b):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.communicate(timeout=30)

        # Byte-identity: the crashed-and-recovered run produced the
        # same artifacts as an uninterrupted run (modulo wall-clock).
        harness = ServiceHarness(tmp_path / "clean-store")
        clean_client = harness.start()
        try:
            clean = clean_client.submit(spec, tenant="alice",
                                        return_payloads=True)
        finally:
            harness.stop()
        recovered_payloads = {
            e["key"]: e["payload"] for e in events if "payload" in e
        }
        assert canonical(strip_durations(recovered_payloads)) == canonical(
            strip_durations(clean.payloads())
        )

    def test_unreadable_journal_exits_3(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir(parents=True)
        (store / JOBS_JOURNAL).mkdir()  # unreadable: directory in the way
        proc = subprocess.run(
            self._serve_args(store, 0, tmp_path / "ready.json"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert "FATAL" in proc.stdout
        assert "jobs journal" in proc.stdout
