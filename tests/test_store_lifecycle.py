"""Store lifecycle: LRU eviction, pins, journal rotation, quarantine caps.

The daemon (``python -m repro serve``) keeps one store alive forever,
so the store must bound its own growth: artifacts under an LRU size
budget, the advisory ``index.jsonl`` journal under a rotation
threshold, and the quarantine directory under count/age caps — while
*never* evicting an artifact some in-flight job has pinned.  These
tests pin that contract, including the multi-process races a shared
store sees in service deployment.
"""

import json
import multiprocessing
import os

import pytest

from repro.store import KIND_PATTERNS, LifecyclePolicy, ResultStore


def make_key(index):
    """Distinct valid store keys (lowercase hex, >= 8 chars)."""
    return f"{index:02x}" + "ab" * 19


def put_sized(store, key, index, pad=40):
    """One artifact with a deterministic payload of roughly equal size."""
    return store.put(key, KIND_PATTERNS, {"i": index, "pad": "x" * pad})


def set_age(store, key, seconds):
    """Pretend ``key`` was last used ``seconds`` ago (mtime-based LRU)."""
    ns = int(seconds * 1e9)
    os.utime(store.path_for(key), ns=(ns, ns))


class TestLruEviction:
    def test_evicts_oldest_first_until_under_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [make_key(i) for i in range(4)]
        for i, key in enumerate(keys):
            put_sized(store, key, i)
            set_age(store, key, i + 1)
        size = store.size_bytes() // 4
        evicted = store.enforce_budget(budget_bytes=2 * size + size // 2)
        assert evicted == keys[:2]  # oldest mtimes go first
        assert [store.contains(k) for k in keys] == [False, False, True, True]
        assert store.stats.evicted == 2

    def test_pinned_keys_survive_any_squeeze(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [make_key(i) for i in range(3)]
        for i, key in enumerate(keys):
            put_sized(store, key, i)
            set_age(store, key, i + 1)
        store.pin(keys[0])
        evicted = store.enforce_budget(budget_bytes=0)
        assert keys[0] not in evicted
        assert store.contains(keys[0])
        assert not store.contains(keys[1]) and not store.contains(keys[2])

    def test_pin_is_refcounted(self, tmp_path):
        store = ResultStore(tmp_path)
        key = make_key(0)
        put_sized(store, key, 0)
        store.pin(key)
        store.pin(key)
        store.unpin(key)
        assert store.is_pinned(key)
        store.enforce_budget(budget_bytes=0)
        assert store.contains(key)
        store.unpin(key)
        store.enforce_budget(budget_bytes=0)
        assert not store.contains(key)

    def test_pinning_context_releases_on_exit(self, tmp_path):
        store = ResultStore(tmp_path)
        key = make_key(0)
        put_sized(store, key, 0)
        with store.pinning(key):
            assert store.is_pinned(key)
            store.enforce_budget(budget_bytes=0)
            assert store.contains(key)
        assert not store.is_pinned(key)

    def test_read_hit_refreshes_lru_position(self, tmp_path):
        store = ResultStore(tmp_path)
        old, young = make_key(0), make_key(1)
        put_sized(store, old, 0)
        put_sized(store, young, 1)
        set_age(store, old, 10)
        set_age(store, young, 20)
        # The hit makes `young` the most recently used again.
        assert store.get(young, KIND_PATTERNS) is not None
        size = store.size_bytes() // 2
        evicted = store.enforce_budget(budget_bytes=size + size // 2)
        assert evicted == [old]
        assert store.contains(young)

    def test_put_auto_enforces_configured_budget(self, tmp_path):
        store = ResultStore(
            tmp_path, LifecyclePolicy(size_budget_bytes=1)
        )
        first, second = make_key(0), make_key(1)
        put_sized(store, first, 0)
        set_age(store, first, 5)
        put_sized(store, second, 1)
        # The budget squeeze runs inside put() but never eats the
        # artifact being written.
        assert not store.contains(first)
        assert store.contains(second)

    def test_warm_read_byte_identical_after_unrelated_eviction(self, tmp_path):
        store = ResultStore(tmp_path)
        keep, lose = make_key(0), make_key(1)
        put_sized(store, keep, 0)
        put_sized(store, lose, 1)
        cold_bytes = store.path_for(keep).read_bytes()
        cold_payload = store.get(keep, KIND_PATTERNS)
        set_age(store, lose, 100)
        evicted = store.enforce_budget(budget_bytes=len(cold_bytes))
        assert evicted == [lose]
        assert store.path_for(keep).read_bytes() == cold_bytes
        assert store.get(keep, KIND_PATTERNS) == cold_payload

    def test_budget_disabled_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        put_sized(store, make_key(0), 0)
        assert store.enforce_budget() == []
        assert len(store) == 1


class TestIndexRotation:
    def test_journal_rotates_past_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.store.store.LOG_ROTATE_BYTES", 400)
        store = ResultStore(tmp_path)
        for i in range(30):
            put_sized(store, make_key(i), i)
        assert store.stats.index_rotations > 0
        rotated = tmp_path / "index.jsonl.1"
        assert rotated.exists()
        # Total journal disk stays bounded at ~2x the threshold.
        total = store.index_path.stat().st_size + rotated.stat().st_size
        assert total < 2 * 400 + 200
        # Both generations still parse as JSON lines.
        for path in (store.index_path, rotated):
            for line in path.read_text(encoding="utf-8").splitlines():
                assert json.loads(line)["op"] == "put"

    def test_rotation_replaces_previous_generation(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.store.store.LOG_ROTATE_BYTES", 200)
        store = ResultStore(tmp_path)
        for i in range(60):
            put_sized(store, make_key(i), i)
        assert store.stats.index_rotations >= 2
        # Exactly one rotated generation, never .2/.3/...
        spill = sorted(p.name for p in tmp_path.glob("index.jsonl*"))
        assert spill == ["index.jsonl", "index.jsonl.1"]

    def test_two_writers_rotate_only_full_files(self, tmp_path, monkeypatch):
        # Two stores on one root stand in for two processes: each counts
        # only its own appends, so each must re-read the size before it
        # rotates, or it would rotate the other's fresh file and clobber
        # the full generation in index.jsonl.1.
        monkeypatch.setattr("repro.store.store.LOG_ROTATE_BYTES", 400)
        writers = (ResultStore(tmp_path), ResultStore(tmp_path))
        rotated = tmp_path / "index.jsonl.1"
        for i in range(60):
            put_sized(writers[i % 2], make_key(i), i)
            assert not rotated.exists() or rotated.stat().st_size >= 400
        assert sum(w.stats.index_rotations for w in writers) >= 2

    def test_no_rotation_under_default_threshold(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(10):
            put_sized(store, make_key(i), i)
        assert store.stats.index_rotations == 0
        assert not (tmp_path / "index.jsonl.1").exists()


class TestQuarantineBounds:
    def corrupt(self, store, key):
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json", encoding="utf-8")
        assert store.get(key, KIND_PATTERNS) is None  # quarantines

    def test_count_cap_evicts_oldest_corpses(self, tmp_path):
        store = ResultStore(
            tmp_path, LifecyclePolicy(quarantine_max_files=3)
        )
        for i in range(7):
            self.corrupt(store, make_key(i))
        corpses = [p for p in store.quarantine_dir.iterdir() if p.is_file()]
        assert len(corpses) == 3
        assert store.stats.quarantined == 7
        assert store.stats.quarantine_evicted == 4

    def test_age_cap_evicts_stale_corpses(self, tmp_path):
        store = ResultStore(
            tmp_path,
            LifecyclePolicy(quarantine_max_files=100, quarantine_max_age_s=3600),
        )
        self.corrupt(store, make_key(0))
        # Make the first corpse ancient, then trigger another pass.
        for corpse in store.quarantine_dir.iterdir():
            os.utime(corpse, ns=(1, 1))
        self.corrupt(store, make_key(1))
        corpses = [p for p in store.quarantine_dir.iterdir() if p.is_file()]
        assert len(corpses) == 1
        assert store.stats.quarantine_evicted == 1

    def test_quarantine_eviction_counts_in_stats_dict(self, tmp_path):
        store = ResultStore(tmp_path, LifecyclePolicy(quarantine_max_files=1))
        for i in range(3):
            self.corrupt(store, make_key(i))
        stats = store.stats.to_dict()
        assert stats["quarantine_evicted"] == 2
        assert stats["index_rotations"] == 0


class TestConcurrentLifecycle:
    """Satellite: races a shared store sees under the daemon."""

    def test_memoize_racing_eviction_of_its_own_key(self, tmp_path):
        writer = ResultStore(tmp_path)
        evictor = ResultStore(tmp_path)
        key = make_key(0)

        def compute():
            # Another process evicts our key mid-computation (it is not
            # there yet — the evict is a no-op file-wise, but exercises
            # the window between miss and put).
            evictor.evict(key)
            return {"value": 42}

        value, cached = writer.memoize(key, KIND_PATTERNS, compute)
        assert (value, cached) == ({"value": 42}, False)
        assert writer.contains(key)
        # Now the inverse: the artifact lands, gets evicted by the
        # other handle, and the next memoize recomputes identically.
        evictor.evict(key)
        value2, cached2 = writer.memoize(
            key, KIND_PATTERNS, lambda: {"value": 42}
        )
        assert (value2, cached2) == ({"value": 42}, False)
        assert writer.get(key, KIND_PATTERNS) == value

    def test_eviction_never_breaks_other_handles_reads(self, tmp_path):
        reader = ResultStore(tmp_path)
        evictor = ResultStore(tmp_path)
        keys = [make_key(i) for i in range(8)]
        for i, key in enumerate(keys):
            put_sized(reader, key, i)
        expected = {k: reader.get(k, KIND_PATTERNS) for k in keys}
        for key in keys:
            evictor.evict(key)
            # Evicted keys read as plain misses, everything else is
            # byte-equal to the pre-eviction payload.
            for other in keys:
                payload = reader.get(other, KIND_PATTERNS)
                if keys.index(other) <= keys.index(key):
                    assert payload is None
                else:
                    assert payload == expected[other]
        assert reader.stats.quarantined == 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_multiprocess_get_put_evict_storm(self, tmp_path):
        """4 processes hammer one store; no reader ever sees torn data."""
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            outcomes = pool.starmap(
                _storm_worker, [(str(tmp_path), worker) for worker in range(4)]
            )
        assert outcomes == [[] for _ in range(4)], outcomes
        # Whatever survived the storm is valid, uncorrupted JSON.
        survivor = ResultStore(tmp_path)
        for key in survivor.keys():
            payload = survivor.get(key, KIND_PATTERNS)
            assert payload is None or payload["pad"] == "x" * 40
        assert survivor.stats.quarantined == 0


def _storm_worker(root, worker):
    """Concurrent get/put/evict/LRU traffic over an overlapping keyset.

    Returns a list of anomaly strings (empty = clean run): any
    exception, or any read that decodes to the wrong payload, counts.
    Misses are fine — eviction races are expected — but torn or
    mixed-up data never is.
    """
    store = ResultStore(root)
    anomalies = []
    keys = [make_key(i) for i in range(6)]
    try:
        for round_index in range(40):
            key = keys[(worker + round_index) % len(keys)]
            index = keys.index(key)
            put_sized(store, key, index)
            payload = store.get(key, KIND_PATTERNS)
            if payload is not None and payload["i"] != index:
                anomalies.append(f"mixed payload for {key[:4]}: {payload}")
            if round_index % 5 == worker % 5:
                store.evict(keys[(index + 3) % len(keys)])
            if round_index % 7 == 0:
                store.enforce_budget(budget_bytes=10_000)
    except Exception as exc:  # noqa: BLE001 - anomalies are the assertion
        anomalies.append(f"worker {worker}: {type(exc).__name__}: {exc}")
    return anomalies
