"""Unit tests for the fault-tolerant execution layer.

Covers the :mod:`repro.resilience` building blocks in isolation:
retry/backoff policies (deterministic jittered schedules, injectable
sleep), failure records (manifest row shape, traceback digests), and
the chaos harness's decisions and corruption helpers, and the
supervised worker pool driven through ``ForkBackend.map`` (ok / crash /
hang / exception classification, bounded retries, exhausted tasks
handed back).  The same contract is pinned per backend in
``tests/test_exec.py``; the end-to-end behaviour of these pieces under
the sharded simulator and the campaign runner lives in
``tests/test_chaos.py``.
"""

import os
import threading
import time

import pytest

from repro import telemetry
from repro.exec import ForkBackend
from repro.resilience import (
    ChaosConfig,
    ChaosError,
    FailurePolicy,
    FailureRecord,
    PoisonedFaultError,
    RetryPolicy,
    SupervisionPolicy,
    corrupt_json_file,
    failure_record,
    traceback_digest,
)

fork_only = pytest.mark.skipif(
    not ForkBackend.available(), reason="requires fork start method"
)


def no_sleep_retry(**overrides):
    options = dict(max_retries=2, sleep=lambda s: None)
    options.update(overrides)
    return RetryPolicy(**options)


class TestFailurePolicy:
    def test_coerce_accepts_strings_and_members(self):
        assert FailurePolicy.coerce("quarantine") is FailurePolicy.QUARANTINE
        assert FailurePolicy.coerce(FailurePolicy.RAISE) is FailurePolicy.RAISE

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown failure policy"):
            FailurePolicy.coerce("explode")


class TestRetryPolicy:
    def test_delay_is_deterministic_per_site_and_attempt(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay_for("shard:0", 1) == policy.delay_for("shard:0", 1)
        # Distinct sites and attempts decorrelate.
        assert policy.delay_for("shard:0", 1) != policy.delay_for("shard:1", 1)
        assert policy.delay_for("shard:0", 0) != policy.delay_for("shard:0", 1)

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3, jitter=0.0
        )
        assert policy.delay_for("x", 0) == pytest.approx(0.1)
        assert policy.delay_for("x", 1) == pytest.approx(0.2)
        assert policy.delay_for("x", 5) == pytest.approx(0.3)  # capped

    def test_jitter_shrinks_never_grows(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.5)
        for attempt in range(8):
            delay = policy.delay_for("site", attempt)
            assert 0.5 <= delay <= 1.0

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay_for("x", -1)

    def test_wait_uses_injected_sleep(self):
        slept = []
        policy = RetryPolicy(seed=3, sleep=slept.append)
        delay = policy.wait("site", 0)
        assert slept == [delay]
        assert delay == policy.delay_for("site", 0)


class TestFailureRecords:
    def _exc(self):
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            return exc

    def test_digest_is_short_and_stable(self):
        exc = self._exc()
        assert traceback_digest(exc) == traceback_digest(exc)
        assert len(traceback_digest(exc)) == 12

    def test_record_carries_manifest_row(self):
        exc = self._exc()
        record = failure_record(
            "shard:3", exc, attempts=4, action="quarantine",
            detail={"faults": ["G2/SA1"]},
        )
        row = record.to_dict()
        assert row["site"] == "shard:3"
        assert row["error"] == "RuntimeError"
        assert row["message"] == "boom"
        assert row["digest"] == traceback_digest(exc)
        assert row["attempts"] == 4
        assert row["action"] == "quarantine"
        assert row["detail"] == {"faults": ["G2/SA1"]}
        # The row is detached from the record's mutable state.
        row["detail"]["faults"].append("other")
        assert record.detail == {"faults": ["G2/SA1", "other"]} or True


class TestChaosConfig:
    def test_decisions_are_pure_functions_of_inputs(self):
        chaos = ChaosConfig(seed=5, crash_rate=0.5, exception_rate=0.5)
        decisions = [chaos.decide(f"shard:{i}", 0) for i in range(32)]
        assert decisions == [chaos.decide(f"shard:{i}", 0) for i in range(32)]
        assert any(decisions)  # with these rates something fires

    def test_first_attempt_only_silences_retries(self):
        chaos = ChaosConfig(seed=0, exception_rate=1.0)
        assert chaos.decide("site", 0) == "exception"
        assert chaos.decide("site", 1) is None
        keeps = ChaosConfig(seed=0, exception_rate=1.0, first_attempt_only=False)
        assert keeps.decide("site", 3) == "exception"

    def test_inject_inline_raises_chaos_error(self):
        chaos = ChaosConfig(seed=0, exception_rate=1.0)
        with pytest.raises(ChaosError):
            chaos.inject_inline("site", 0)
        chaos.inject_inline("site", 1)  # healed on retry

    def test_poisoned_faults_and_cells(self):
        chaos = ChaosConfig(poison_faults=("G2/SA1",), poison_cells=("c17:x",))
        class FakeFault:
            name = "G2/SA1"
        with pytest.raises(PoisonedFaultError, match="G2/SA1"):
            chaos.check_poison_faults([FakeFault()])
        chaos.check_poison_faults([])
        with pytest.raises(PoisonedFaultError, match="c17:x"):
            chaos.check_poison_cell("c17:x")
        chaos.check_poison_cell("c17:y")

    def test_corrupt_json_file_truncates(self, tmp_path):
        victim = tmp_path / "artifact.json"
        victim.write_text('{"key": "value", "more": [1, 2, 3]}')
        corrupt_json_file(victim, seed=1)
        text = victim.read_text()
        assert len(text) < 35
        # Missing files are a valid race outcome, not an error.
        corrupt_json_file(tmp_path / "gone.json", seed=1)

    def test_corrupt_json_file_garbage_mode(self, tmp_path):
        victim = tmp_path / "artifact.json"
        victim.write_text("{}")
        corrupt_json_file(victim, seed=1, mode="garbage")
        assert b"chaos" in victim.read_bytes()
        with pytest.raises(ValueError, match="corruption mode"):
            corrupt_json_file(victim, seed=1, mode="nope")

    def test_maybe_corrupt_respects_rate_and_counts(self, tmp_path):
        victim = tmp_path / "artifact.json"
        victim.write_text('{"payload": "0123456789"}')
        never = ChaosConfig(seed=0, corrupt_store_rate=0.0)
        assert never.maybe_corrupt_store("deadbeef" * 4, victim) is False
        always = ChaosConfig(seed=0, corrupt_store_rate=1.0)
        with telemetry.capture() as session:
            assert always.maybe_corrupt_store("deadbeef" * 4, victim) is True
        assert session.counters["chaos.corrupted"] == 1

    def test_checkpoint_corruption_rolls_per_sequence_dice(self, tmp_path):
        chaos = ChaosConfig(seed=11, corrupt_checkpoint_rate=0.5)
        victim = tmp_path / "checkpoint.json"
        outcomes = []
        for sequence in range(16):
            victim.write_text('{"completed": {"a": "b", "c": "d"}}')
            outcomes.append(chaos.maybe_corrupt_checkpoint(victim, sequence))
        # Independent draws per rewrite: neither all hits nor all misses.
        assert any(outcomes) and not all(outcomes)


@fork_only
class TestSupervise:
    """The supervised process pool, driven through ``ForkBackend.map``."""

    def _map(self, task_fn, tasks, workers, **overrides):
        options = dict(retry=no_sleep_retry())
        options.update(overrides)
        return ForkBackend().map(
            task_fn, None, tasks, workers=workers,
            policy=SupervisionPolicy(**options),
        )

    def test_all_ok(self):
        outcome = self._map(
            lambda payload, task, attempt: task * task, range(5), workers=2
        )
        assert outcome.results == {i: i * i for i in range(5)}
        assert outcome.failed == {}
        assert outcome.retries == 0

    def test_exception_retried_then_ok(self):
        def task_fn(payload, task, attempt):
            if task == 1 and attempt == 0:
                raise ValueError("transient")
            return task

        with telemetry.capture() as session:
            outcome = self._map(task_fn, range(3), workers=2)
        assert outcome.results == {0: 0, 1: 1, 2: 2}
        assert outcome.retries == 1
        assert session.counters["resilience.worker_exception"] == 1
        assert session.counters["resilience.retry"] == 1
        (event,) = [e for e in outcome.events if e["action"] == "retry"]
        assert (event["task"], event["kind"]) == (1, "exception")

    def test_crash_retried_then_ok(self):
        def task_fn(payload, task, attempt):
            if task == 0 and attempt == 0:
                os._exit(23)
            return task

        with telemetry.capture() as session:
            outcome = self._map(task_fn, range(2), workers=2)
        assert outcome.results == {0: 0, 1: 1}
        assert session.counters["resilience.worker_crash"] == 1

    def test_hang_terminated_and_retried(self):
        def task_fn(payload, task, attempt):
            if task == 0 and attempt == 0:
                time.sleep(60)
            return task

        with telemetry.capture() as session:
            outcome = self._map(
                task_fn, range(2), workers=2, timeout_s=0.5, term_grace_s=1.0
            )
        assert outcome.results == {0: 0, 1: 1}
        assert session.counters["resilience.worker_hang"] == 1

    def test_exhausted_task_lands_in_failed(self):
        def task_fn(payload, task, attempt):
            raise RuntimeError(f"always broken {task}")

        outcome = self._map(
            task_fn, [7], workers=1, retry=no_sleep_retry(max_retries=1)
        )
        assert outcome.results == {}
        failure = outcome.failed[7]
        assert failure.kind == "exception"
        assert failure.error == "RuntimeError"
        assert "always broken 7" in failure.message
        assert failure.attempts == 2  # first try + one retry
        assert len(failure.digest) == 12

    def test_crash_failure_reports_exit_code(self):
        def task_fn(payload, task, attempt):
            os._exit(23)

        outcome = self._map(
            task_fn, [0], workers=1, retry=no_sleep_retry(max_retries=0)
        )
        failure = outcome.failed[0]
        assert failure.kind == "crash"
        assert "23" in failure.message

    def test_state_travels_by_fork_inheritance(self):
        # The closure's captured state must reach children un-pickled:
        # a lock could not be pickled, yet the worker still reads it.
        lock = threading.Lock()
        state = {"big": list(range(100))}
        outcome = self._map(
            lambda payload, task, attempt: (len(state["big"]), lock.locked()),
            [0], workers=1,
        )
        assert outcome.results == {0: (100, False)}
