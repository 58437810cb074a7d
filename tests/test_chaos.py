"""Chaos-injection harness: the execution stack under deliberate fire.

The acceptance contract for the resilience layer: with transient chaos
injected — worker crashes, hangs, raised exceptions, store-artifact
corruption — ``sharded_coverage``, ``generate_tests``,
``full_scan_flow`` and ``campaign run`` produce results
**bit-identical** to the fault-free run, and every retry, fallback and
quarantined cell is visible in telemetry counters and the manifest's
validated ``failures`` section.  Only *deterministic* failures
(poisoned faults/cells, which fail in workers and in-process alike)
may change an outcome: a poisoned shard raises, and a poisoned cell
is quarantined or raises per the campaign's failure policy.
"""

import random

import pytest

from repro import telemetry
from repro.atpg import generate_tests
from repro.campaign import CampaignRunner, CampaignSpec
from repro.circuits import c17, registered_alu74181
from repro.faults import collapse_faults
from repro.faultsim import sharded_coverage
from repro.exec import ForkBackend
from repro.faultsim.sharded import ShardedFaultSimulator
from repro.scan import full_scan_flow
from repro.resilience import (
    ChaosConfig,
    ChaosError,
    PoisonedFaultError,
    RetryPolicy,
    SupervisionPolicy,
    corrupt_json_file,
)
from repro.telemetry import validate_manifest

fork_only = pytest.mark.skipif(
    not ForkBackend.available(), reason="requires fork start method"
)


def patterns_for(circuit, count=12, seed=3):
    rng = random.Random(seed)
    return [
        {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(count)
    ]


def fast_supervision(**overrides):
    """Bounded retries, no real sleeping, short hang timeout."""
    options = dict(
        timeout_s=10.0,
        retry=RetryPolicy(max_retries=2, sleep=lambda s: None),
        term_grace_s=2.0,
    )
    options.update(overrides)
    return SupervisionPolicy(**options)


def tiny_spec(**overrides):
    options = dict(
        name="chaos",
        workloads=["c17"],
        engines=["parallel_pattern"],
        seeds=[0, 1],
        flows=["auto"],
        params={"method": "podem", "random_phase": 4},
    )
    options.update(overrides)
    return CampaignSpec(**options)


@fork_only
class TestShardedUnderChaos:
    """Transient worker faults never change a sharded result."""

    def setup_method(self):
        self.circuit = c17()
        self.patterns = patterns_for(self.circuit)
        self.baseline = sharded_coverage(self.circuit, self.patterns, workers=2)

    def _chaotic_run(self, chaos):
        simulator = ShardedFaultSimulator(
            self.circuit,
            workers=2,
            supervision=fast_supervision(),
            chaos=chaos,
        )
        with telemetry.capture() as session:
            report = simulator.run(self.patterns)
        return report, simulator, session

    def test_worker_crashes_healed_by_retry(self):
        report, simulator, session = self._chaotic_run(
            ChaosConfig(seed=1, crash_rate=1.0)
        )
        assert report == self.baseline
        assert session.counters["resilience.worker_crash"] == 2
        assert session.counters["resilience.retry"] == 2
        assert simulator.workers_section()["supervision"]["crashes"] == 2

    def test_worker_exceptions_healed_by_retry(self):
        report, simulator, session = self._chaotic_run(
            ChaosConfig(seed=2, exception_rate=1.0)
        )
        assert report == self.baseline
        assert session.counters["resilience.worker_exception"] == 2

    def test_worker_hangs_terminated_and_healed(self):
        simulator = ShardedFaultSimulator(
            self.circuit,
            workers=2,
            supervision=fast_supervision(timeout_s=0.5),
            chaos=ChaosConfig(seed=3, hang_rate=1.0, hang_s=30.0),
        )
        with telemetry.capture() as session:
            report = simulator.run(self.patterns)
        assert report == self.baseline
        assert session.counters["resilience.worker_hang"] == 2
        assert simulator.workers_section()["supervision"]["hangs"] == 2

    def test_persistent_worker_faults_heal_via_inprocess_fallback(self):
        # first_attempt_only=False: every forked attempt fails, so the
        # retry budget exhausts and the shard must fall back in-process
        # (where worker chaos cannot follow) — result still identical.
        report, simulator, session = self._chaotic_run(
            ChaosConfig(seed=4, exception_rate=1.0, first_attempt_only=False)
        )
        assert report == self.baseline
        assert session.counters["resilience.fallback_inprocess"] == 2
        section = simulator.workers_section()
        assert section["supervision"]["fallbacks"] == 2
        assert {row["reason"] for row in section["fallbacks"]} == {"supervision"}

    def test_mixed_chaos_seeds_all_heal(self):
        for seed in range(5):
            chaos = ChaosConfig(
                seed=seed, crash_rate=0.4, hang_rate=0.2, exception_rate=0.4,
                hang_s=30.0,
            )
            simulator = ShardedFaultSimulator(
                self.circuit,
                workers=2,
                supervision=fast_supervision(timeout_s=1.0),
                chaos=chaos,
            )
            assert simulator.run(self.patterns) == self.baseline


class TestWideEngineUnderChaos:
    """Satellite: the wide engine heals under chaos like any other.

    Worker crashes and hangs during a sharded *wide* run must leave the
    merged report bit-identical to the fault-free wide run (which is
    itself bit-identical to the parallel-pattern engine — see
    tests/test_wide.py); the chaos must be visible in telemetry.
    """

    def setup_method(self):
        self.circuit = c17()
        self.patterns = patterns_for(self.circuit)
        self.baseline = sharded_coverage(
            self.circuit, self.patterns, engine="wide", workers=2
        )

    def test_fault_free_wide_matches_parallel_pattern(self):
        assert self.baseline == sharded_coverage(
            self.circuit, self.patterns, workers=2
        )

    def test_wide_crashes_healed_by_retry(self):
        simulator = ShardedFaultSimulator(
            self.circuit,
            "wide",
            workers=2,
            supervision=fast_supervision(),
            chaos=ChaosConfig(seed=11, crash_rate=1.0),
        )
        with telemetry.capture() as session:
            report = simulator.run(self.patterns)
        assert report == self.baseline
        assert session.counters["resilience.worker_crash"] == 2
        assert session.counters["resilience.retry"] == 2

    def test_wide_hangs_terminated_and_healed(self):
        simulator = ShardedFaultSimulator(
            self.circuit,
            "wide",
            workers=2,
            supervision=fast_supervision(timeout_s=0.5),
            chaos=ChaosConfig(seed=12, hang_rate=1.0, hang_s=30.0),
        )
        with telemetry.capture() as session:
            report = simulator.run(self.patterns)
        assert report == self.baseline
        assert session.counters["resilience.worker_hang"] == 2
        assert simulator.workers_section()["supervision"]["hangs"] == 2


class TestPoisonedShards:
    """A deterministic shard failure raises, pooled or in-process."""

    def setup_method(self):
        self.circuit = c17()
        self.patterns = patterns_for(self.circuit)
        self.faults = collapse_faults(self.circuit)
        self.poison = self.faults[3].name

    def _simulator(self, workers=2, shards=None):
        return ShardedFaultSimulator(
            self.circuit,
            faults=self.faults,
            workers=workers,
            shards=shards,
            supervision=fast_supervision(),
            chaos=ChaosConfig(seed=0, poison_faults=(self.poison,)),
        )

    def test_raise_policy_propagates(self):
        with pytest.raises(PoisonedFaultError, match=self.poison):
            self._simulator().run(self.patterns)

    def test_poisoned_shard_raises_inprocess_too(self):
        # The in-process shard/merge path has no pool to retry in.
        with pytest.raises(PoisonedFaultError, match=self.poison):
            self._simulator(workers=1, shards=2).run(self.patterns)


@fork_only
class TestAtpgFlowUnderChaos:
    def test_generate_tests_bit_identical_and_manifest_clean(self):
        circuit = c17()
        baseline = generate_tests(circuit, random_phase=8, workers=2)
        chaotic = generate_tests(
            circuit,
            random_phase=8,
            workers=2,
            supervision=fast_supervision(),
            chaos=ChaosConfig(seed=5, crash_rate=0.5, exception_rate=0.5),
        )
        assert chaotic.patterns == baseline.patterns
        assert chaotic.report == baseline.report
        manifest = chaotic.manifest.to_dict()
        validate_manifest(manifest)
        assert "failures" not in manifest  # everything healed
        supervision = manifest["workers"]["supervision"]
        assert (
            supervision["crashes"]
            + supervision["exceptions"]
            + supervision["retries"]
        ) > 0


@fork_only
class TestScanFlowUnderChaos:
    def test_full_scan_flow_bit_identical_and_crashes_healed(self):
        """Only the core ATPG's pool can crash; the verifier is in-process."""
        clean = full_scan_flow(registered_alu74181(), seed=1)
        chaotic = full_scan_flow(
            registered_alu74181(),
            seed=1,
            workers=2,
            supervision=fast_supervision(),
            chaos=ChaosConfig(seed=0, crash_rate=1.0),
        )
        assert chaotic.scan_coverage == clean.scan_coverage
        assert chaotic.core_tests.patterns == clean.core_tests.patterns
        assert chaotic.schedule == clean.schedule
        assert chaotic.manifest.stats == clean.manifest.stats
        assert chaotic.manifest.workers is None
        core = chaotic.core_manifest.to_dict()
        validate_manifest(core)
        assert "failures" not in core  # everything healed
        supervision = core["workers"]["supervision"]
        assert supervision["crashes"] > 0
        assert supervision["retries"] == supervision["crashes"]
        assert supervision["fallbacks"] == 0
        assert core["counters"]["resilience.worker_crash"] == supervision["crashes"]


class TestCampaignUnderChaos:
    def _runner(self, store, chaos=None, policy="quarantine", spec=None):
        return CampaignRunner(
            spec or tiny_spec(),
            store,
            retry=RetryPolicy(max_retries=2, sleep=lambda s: None),
            failure_policy=policy,
            chaos=chaos,
        )

    def test_transient_cell_chaos_is_invisible_in_outputs(self, tmp_path):
        baseline = CampaignRunner(tiny_spec(), tmp_path / "a").run()
        chaotic = self._runner(
            tmp_path / "b", chaos=ChaosConfig(seed=1, exception_rate=1.0)
        ).run()
        assert chaotic.failures == []
        assert chaotic.summary == baseline.summary  # byte-identical
        assert chaotic.manifest.counters["campaign.cell.retry"] == 2
        assert "failures" not in chaotic.manifest.to_dict()
        for before, after in zip(baseline.results, chaotic.results):
            assert after.patterns == before.patterns
            assert after.stats == before.stats

    def test_poisoned_cell_recorded_and_healed_on_resume(self, tmp_path):
        baseline = CampaignRunner(tiny_spec(), tmp_path / "a").run()
        cells, _ = tiny_spec().expand()
        poisoned = self._runner(
            tmp_path / "b",
            chaos=ChaosConfig(seed=0, poison_cells=(cells[0].cell_id,)),
        ).run()
        (record,) = poisoned.failures
        assert record.site == f"cell:{cells[0].cell_id}"
        assert record.attempts == 3
        assert poisoned.manifest.stats["failed"] == 1
        assert poisoned.manifest.to_dict()["failures"][0]["action"] == "quarantine"
        validate_manifest(poisoned.manifest.to_dict())
        assert f"1 cells FAILED" in poisoned.summary
        assert not poisoned.finished
        # The manifest remembers the failure for the next run...
        runner = self._runner(tmp_path / "b")
        assert runner.status()["failed"] == [cells[0].cell_id]
        # ...and a poison-free resume re-attempts and heals it.
        healed = runner.run()
        assert healed.failures == []
        assert healed.finished
        assert healed.summary == baseline.summary

    def test_raise_policy_aborts_campaign(self, tmp_path):
        cells, _ = tiny_spec().expand()
        runner = self._runner(
            tmp_path / "s",
            chaos=ChaosConfig(seed=0, poison_cells=(cells[0].cell_id,)),
            policy="raise",
        )
        with pytest.raises(PoisonedFaultError):
            runner.run()

    def test_store_corruption_chaos_heals_across_runs(self, tmp_path):
        baseline = CampaignRunner(tiny_spec(), tmp_path / "a").run()
        store = tmp_path / "b"
        # Every freshly computed artifact is corrupted on disk...
        first = self._runner(
            store, chaos=ChaosConfig(seed=2, corrupt_store_rate=1.0)
        ).run()
        assert first.summary == baseline.summary  # in-memory results fine
        assert first.manifest.counters["chaos.corrupted"] == 2
        # ...so the next (chaos-free) run quarantines and recomputes.
        second = self._runner(store).run()
        assert second.summary == baseline.summary
        assert second.manifest.counters["store.quarantined"] == 2
        # Third run is a clean warm hit: the heal is durable.
        third = self._runner(store).run()
        assert third.hits == 2
        assert third.summary == baseline.summary

    def test_full_chaos_storm_converges(self, tmp_path):
        """Everything at once: worker faults, cell faults, corruption.

        However many runs it takes, the campaign must converge to the
        fault-free summary without ever crashing, and each run's
        manifest must validate.
        """
        baseline = CampaignRunner(tiny_spec(), tmp_path / "a").run()
        store = tmp_path / "storm"
        chaos = ChaosConfig(
            seed=13,
            exception_rate=0.5,
            corrupt_store_rate=0.3,
        )
        last = None
        for _ in range(4):
            last = self._runner(store, chaos=chaos).run()
            validate_manifest(last.manifest.to_dict())
        clean = self._runner(store).run()
        assert clean.failures == []
        assert clean.summary == baseline.summary


class TestCorruptJsonHelper:
    def test_truncation_is_seed_deterministic(self, tmp_path):
        # Same seed and file name (the cut point hashes both) -> same cut.
        a = tmp_path / "one" / "artifact.json"
        b = tmp_path / "two" / "artifact.json"
        payload = '{"k": "' + "x" * 64 + '"}'
        for victim in (a, b):
            victim.parent.mkdir()
            victim.write_text(payload)
            corrupt_json_file(victim, seed=9)
        assert a.read_bytes() != payload.encode()
        assert a.read_bytes() == b.read_bytes()
