"""Unit tests for ``repro.telemetry`` plus the run-manifest integration.

Pins the instrumentation contracts: span nesting and counter
attribution, counter aggregation across span and standalone events,
JSONL sink round-trips, the disabled-by-default no-op path, capture()
scoping/teeing, manifest schema validation, and — end to end — that a
74181 ``generate_tests`` manifest agrees with the returned
``TestGenerationResult``.
"""

import random
import time

import pytest

from repro import telemetry
from repro.telemetry import (
    InMemorySink,
    JsonlSink,
    NullSink,
    RunManifest,
    read_jsonl,
    validate_manifest,
)
from repro.atpg import generate_tests
from repro.circuits import alu74181, c17


@pytest.fixture(autouse=True)
def _telemetry_off_afterwards():
    yield
    telemetry.disable()


class TestDisabledNoOp:
    def test_disabled_by_default(self):
        assert not telemetry.is_enabled()
        assert isinstance(telemetry.current_sink(), NullSink)

    def test_span_and_incr_are_noops_when_disabled(self):
        handle = telemetry.span("anything", extra=1)
        with handle:
            telemetry.incr("ignored", 42)
        # The null span is a shared singleton: no allocation per call.
        assert telemetry.span("other") is handle

    def test_disable_after_enable_stops_collection(self):
        sink = telemetry.enable()
        telemetry.disable()
        with telemetry.span("s"):
            telemetry.incr("c")
        assert sink.events == []
        assert sink.counters == {}


class TestSpansAndCounters:
    def test_span_nesting_parent_and_depth(self):
        sink = telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                telemetry.incr("work", 2)
            telemetry.incr("work", 1)
        inner = sink.spans("inner")[0]
        outer = sink.spans("outer")[0]
        assert inner["parent"] == "outer"
        assert inner["depth"] == 1
        assert outer["parent"] is None
        assert outer["depth"] == 0
        # Counters go to the innermost open span only.
        assert inner["counters"] == {"work": 2}
        assert outer["counters"] == {"work": 1}
        # Spans are emitted at close: inner completes before outer.
        events = sink.spans()
        assert events.index(inner) < events.index(outer)
        assert inner["duration_s"] >= 0.0
        assert outer["duration_s"] >= inner["duration_s"]

    def test_span_attrs_recorded(self):
        sink = telemetry.enable()
        with telemetry.span("run", engine="serial", circuit="c17"):
            pass
        assert sink.spans("run")[0]["attrs"] == {
            "engine": "serial",
            "circuit": "c17",
        }

    def test_counter_aggregation_across_events(self):
        sink = telemetry.enable()
        telemetry.incr("a", 5)  # no open span: standalone counter event
        with telemetry.span("s"):
            telemetry.incr("a", 3)
            telemetry.incr("b")
        assert sink.counters == {"a": 8, "b": 1}
        standalone = [e for e in sink.events if e["event"] == "counter"]
        assert standalone == [{"event": "counter", "name": "a", "value": 5}]

    def test_enable_returns_given_sink(self):
        mine = InMemorySink()
        assert telemetry.enable(mine) is mine
        assert telemetry.current_sink() is mine

    def test_clear(self):
        sink = telemetry.enable()
        telemetry.incr("x")
        sink.clear()
        assert sink.events == [] and sink.counters == {}


class TestJsonlSink:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        telemetry.enable(sink)
        with telemetry.span("outer", flavor="x"):
            telemetry.incr("n", 2)
        telemetry.incr("loose", 1)
        telemetry.disable()
        sink.close()

        events = read_jsonl(path)
        spans = [e for e in events if e["event"] == "span"]
        counters = [e for e in events if e["event"] == "counter"]
        assert len(spans) == 1 and len(counters) == 1
        assert spans[0]["name"] == "outer"
        assert spans[0]["counters"] == {"n": 2}
        assert spans[0]["attrs"] == {"flavor": "x"}
        assert counters[0] == {"event": "counter", "name": "loose", "value": 1}

    def test_jsonl_accepts_open_stream(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            sink = JsonlSink(stream)
            sink.emit({"event": "counter", "name": "k", "value": 1})
            sink.close()  # flushes but must not close a borrowed stream
            assert not stream.closed
        assert read_jsonl(str(path)) == [
            {"event": "counter", "name": "k", "value": 1}
        ]


class TestCapture:
    def test_capture_enables_and_restores_disabled_state(self):
        assert not telemetry.is_enabled()
        with telemetry.capture() as session:
            assert telemetry.is_enabled()
            with telemetry.span("w"):
                telemetry.incr("k", 7)
        assert not telemetry.is_enabled()
        assert session.counters == {"k": 7}

    def test_capture_tees_into_previous_sink(self):
        outer = telemetry.enable()
        with telemetry.capture() as session:
            with telemetry.span("w"):
                telemetry.incr("k", 7)
        assert session.counters["k"] == 7
        assert outer.counters["k"] == 7
        assert telemetry.current_sink() is outer
        assert telemetry.is_enabled()

    def test_phase_stats_rows(self):
        with telemetry.capture() as session:
            with telemetry.span("flow.phase.one"):
                telemetry.incr("c", 1)
            with telemetry.span("flow.phase.two"):
                telemetry.incr("c", 2)
            with telemetry.span("unrelated"):
                pass
        rows = session.phase_stats("flow.phase.")
        assert [r["name"] for r in rows] == ["one", "two"]
        assert rows[0]["counters"] == {"c": 1}
        assert rows[1]["counters"] == {"c": 2}
        assert all("duration_s" in r for r in rows)

    def test_concurrent_thread_captures_never_interleave(self):
        """Regression: capture is contextvar-scoped and re-entrant.

        Two threads capturing concurrently (the service's execution
        lanes) must each see exactly their own counters — the sink
        swap used to be process-global, so one thread's exit could
        steal or merge the other's session.
        """
        import threading

        barrier = threading.Barrier(2, timeout=30)
        seen = {}
        errors = []

        def lane(name, rounds):
            try:
                with telemetry.capture() as session:
                    barrier.wait()  # both captures live simultaneously
                    for _ in range(rounds):
                        telemetry.incr(f"lane.{name}")
                        time.sleep(0)  # encourage interleaved scheduling
                    barrier.wait()  # neither exits before both counted
                    seen[name] = dict(session.counters)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=lane, args=("a", 500)),
            threading.Thread(target=lane, args=("b", 300)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert seen["a"] == {"lane.a": 500}
        assert seen["b"] == {"lane.b": 300}
        assert not telemetry.is_enabled()  # both restores landed cleanly


class TestRunManifestSchema:
    def _manifest(self):
        return RunManifest(
            flow="atpg.generate_tests",
            circuit="c17",
            seed=0,
            engine="parallel_pattern",
            method="podem",
            limits={"backtrack_limit": 10},
            phases=[{"name": "random", "duration_s": 0.0, "counters": {}}],
            counters={"atpg.backtracks": 0},
            stats={"coverage": 1.0},
        )

    def test_valid_manifest_passes_and_chains(self):
        manifest = self._manifest()
        assert manifest.validate() is manifest

    def test_json_round_trip(self):
        manifest = self._manifest()
        clone = RunManifest.from_json(manifest.to_json())
        assert clone.to_dict() == manifest.to_dict()

    def test_missing_required_key_rejected(self):
        data = self._manifest().to_dict()
        del data["stats"]
        with pytest.raises(ValueError, match="missing required keys"):
            validate_manifest(data)

    def test_wrong_schema_tag_rejected(self):
        data = self._manifest().to_dict()
        data["schema"] = "something/else"
        with pytest.raises(ValueError, match="unknown manifest schema"):
            validate_manifest(data)

    def test_malformed_phase_row_rejected(self):
        data = self._manifest().to_dict()
        data["phases"] = [{"name": "random"}]
        with pytest.raises(ValueError, match="missing keys"):
            validate_manifest(data)

    def test_non_json_value_rejected(self):
        manifest = self._manifest()
        manifest.stats["bad"] = {1, 2}
        with pytest.raises(ValueError, match="not JSON-serializable"):
            manifest.validate()

    def _workers_section(self):
        return {
            "requested": 4,
            "effective": 2,
            "mode": "fork",
            "backend": "fork",
            "reason": None,
            "runs": 1,
            "shards": [
                {"shard": 0, "faults": 11, "duration_s": 0.1, "counters": {}},
                {"shard": 1, "faults": 11, "duration_s": 0.1, "counters": {}},
            ],
        }

    def test_workers_section_optional_and_valid(self):
        manifest = self._manifest()
        assert "workers" not in manifest.to_dict()
        manifest.workers = self._workers_section()
        assert manifest.validate().to_dict()["workers"]["mode"] == "fork"

    def test_workers_section_round_trips(self):
        manifest = self._manifest()
        manifest.workers = self._workers_section()
        clone = RunManifest.from_json(manifest.to_json())
        assert clone.workers == manifest.workers
        assert clone.to_dict() == manifest.to_dict()

    def test_workers_section_missing_key_rejected(self):
        manifest = self._manifest()
        manifest.workers = self._workers_section()
        del manifest.workers["mode"]
        with pytest.raises(ValueError, match="workers section missing"):
            manifest.validate()

    def test_workers_shard_row_missing_key_rejected(self):
        manifest = self._manifest()
        manifest.workers = self._workers_section()
        del manifest.workers["shards"][1]["duration_s"]
        with pytest.raises(ValueError, match="shard row"):
            manifest.validate()


class TestGenerateTestsManifest:
    def test_alu74181_manifest_agrees_with_result(self):
        result = generate_tests(alu74181(), random_phase=32, seed=0)
        manifest = result.manifest
        assert manifest is not None
        manifest.validate()

        assert manifest.flow == "atpg.generate_tests"
        assert manifest.circuit == result.circuit_name
        assert manifest.seed == 0
        assert manifest.method == "podem"
        assert manifest.engine == "parallel_pattern"
        assert manifest.limits["random_phase"] == 32

        stats = manifest.stats
        assert stats["coverage"] == result.coverage
        assert stats["patterns"] == len(result.patterns)
        assert stats["total_backtracks"] == result.total_backtracks
        assert stats["redundant"] == len(result.redundant)
        assert stats["aborted"] == len(result.aborted)
        assert stats["random_phase_patterns"] == result.random_phase_patterns
        assert stats["detected"] == len(result.report.first_detection)
        assert stats["fault_count"] == len(result.report.faults)

        # Counter stream and result agree on effort numbers.
        assert (
            manifest.counters.get("atpg.backtracks", 0)
            == result.total_backtracks
        )
        assert manifest.counters.get("atpg.decisions", 0) > 0
        assert manifest.counters["atpg.random.kept"] == (
            result.random_phase_patterns
        )

        # All four pipeline phases report, in execution order.
        names = [p["name"] for p in manifest.phases]
        assert names[:4] == ["random", "deterministic", "compaction", "repair"]
        deterministic = manifest.phase("deterministic")
        assert deterministic["counters"].get("atpg.targets", 0) >= 1

        # The whole manifest survives a JSON round trip.
        clone = RunManifest.from_json(manifest.to_json())
        assert clone.to_dict() == manifest.to_dict()

    def test_manifest_stats_deterministic_across_runs(self):
        first = generate_tests(c17(), random_phase=8, seed=3).manifest
        second = generate_tests(c17(), random_phase=8, seed=3).manifest
        strip = lambda m: {
            **m.to_dict(),
            "phases": [
                {k: v for k, v in p.items() if k != "duration_s"}
                for p in m.to_dict()["phases"]
            ],
        }
        assert strip(first) == strip(second)

    def test_engine_counters_flow_into_manifest(self):
        manifest = generate_tests(c17(), random_phase=4, seed=1).manifest
        # The fault-sim engine ran under capture(), so its counters and
        # the compiled core's cache stats land in the same manifest.  The
        # netlist's structure is built (or found) by plan_fault_model
        # before capture starts, so inside it every lookup is a reuse.
        assert manifest.counters.get("faultsim.patterns_simulated", 0) > 0
        assert manifest.counters.get("sim.compiled.cache_hits", 0) >= 1

    def test_reverse_compact_phase_recorded(self):
        manifest = generate_tests(
            c17(), random_phase=4, seed=1, reverse_compact=True
        ).manifest
        assert manifest.limits["reverse_compact"] is True
        assert manifest.phase("reverse_compaction") is not None


class TestRandomSeedIsolation:
    def test_global_random_not_consumed(self):
        # Telemetry and manifests must not touch the global RNG.
        random.seed(1234)
        expected = random.Random(1234).random()
        with telemetry.capture():
            with telemetry.span("s"):
                telemetry.incr("c")
        assert random.random() == expected


class TestFailuresSection:
    def _manifest(self):
        return RunManifest(
            flow="campaign.run",
            circuit="tiny",
            seed=0,
            engine="parallel_pattern",
            method="campaign",
            limits={},
            phases=[],
            counters={},
            stats={},
        )

    def _failure_row(self):
        return {
            "site": "shard:3",
            "error": "PoisonedFaultError",
            "message": "poisoned fault G2/SA1",
            "digest": "2fb37a3b56d7",
            "attempts": 3,
            "action": "quarantine",
            "detail": {"faults": ["G2/SA1"]},
        }

    def test_failures_section_optional_and_valid(self):
        manifest = self._manifest()
        assert "failures" not in manifest.to_dict()
        manifest.failures = [self._failure_row()]
        data = manifest.validate().to_dict()
        assert data["failures"][0]["action"] == "quarantine"

    def test_failures_section_round_trips(self):
        manifest = self._manifest()
        manifest.failures = [self._failure_row()]
        clone = RunManifest.from_json(manifest.to_json())
        assert clone.failures == manifest.failures
        assert clone.to_dict() == manifest.to_dict()

    def test_failures_must_be_a_list(self):
        data = self._manifest().to_dict()
        data["failures"] = {"site": "shard:0"}
        with pytest.raises(ValueError, match="failures section must be a list"):
            validate_manifest(data)

    def test_failure_row_must_be_object(self):
        data = self._manifest().to_dict()
        data["failures"] = ["not a row"]
        with pytest.raises(ValueError, match="failure rows must be objects"):
            validate_manifest(data)

    def test_failure_row_missing_key_rejected(self):
        manifest = self._manifest()
        row = self._failure_row()
        del row["digest"]
        manifest.failures = [row]
        with pytest.raises(ValueError, match="failure row 'shard:3' missing"):
            manifest.validate()
