"""Chaos-injection harness: the execution stack under deliberate fire.

The acceptance contract for the resilience layer: with transient chaos
injected — worker crashes, hangs, raised exceptions, store/checkpoint
corruption — ``sharded_coverage`` and ``campaign run`` produce results
**bit-identical** to the fault-free run, and every retry, fallback,
quarantine and degradation is visible in telemetry counters and the
manifest's validated ``failures`` section.  Only *deterministic*
failures (poisoned faults/cells, which fail in workers and in-process
alike) may change a result, and then only by the recorded exclusion.
"""

import random

import pytest

from repro import telemetry
from repro.atpg import generate_tests
from repro.campaign import CampaignRunner, CampaignSpec
from repro.circuits import c17
from repro.faults import collapse_faults
from repro.faultsim import sharded_coverage
from repro.exec import ForkBackend
from repro.faultsim.sharded import ShardedFaultSimulator
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
        assert simulator.failures == []
        assert session.counters["resilience.worker_crash"] == 2
        assert session.counters["resilience.retry"] == 2
        assert simulator.workers_section()["supervision"]["crashes"] == 2

    def test_worker_exceptions_healed_by_retry(self):
        report, simulator, session = self._chaotic_run(
            ChaosConfig(seed=2, exception_rate=1.0)
        )
        assert report == self.baseline
        assert session.counters["resilience.worker_exception"] == 2
        assert simulator.failures == []

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
        assert simulator.failures == []
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
            assert simulator.failures == []


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
        assert simulator.failures == []
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
    """Deterministic failures: bisection, quarantine, degrade, raise."""

    def setup_method(self):
        self.circuit = c17()
        self.patterns = patterns_for(self.circuit)
        self.faults = collapse_faults(self.circuit)
        self.baseline = sharded_coverage(
            self.circuit, self.patterns, faults=self.faults, workers=2
        )
        self.poison = self.faults[3].name

    def _simulator(self, failure_policy, workers=2):
        return ShardedFaultSimulator(
            self.circuit,
            faults=self.faults,
            workers=workers,
            supervision=fast_supervision(),
            failure_policy=failure_policy,
            chaos=ChaosConfig(seed=0, poison_faults=(self.poison,)),
        )

    def test_raise_policy_propagates(self):
        with pytest.raises(PoisonedFaultError, match=self.poison):
            self._simulator("raise").run(self.patterns)

    @fork_only
    def test_quarantine_bisects_to_single_fault(self):
        simulator = self._simulator("quarantine")
        with telemetry.capture() as session:
            report = simulator.run(self.patterns)
        # Exactly the poisoned fault is excluded; every other fault's
        # row matches the baseline bit for bit.
        assert [f.name for f in report.faults] == [
            f.name for f in self.baseline.faults if f.name != self.poison
        ]
        for fault in report.faults:
            assert report.first_detection.get(fault) == (
                self.baseline.first_detection.get(fault)
            )
        (record,) = simulator.failures
        assert record.action == "quarantine"
        assert record.detail["faults"] == [self.poison]
        assert record.error == "PoisonedFaultError"
        assert session.counters["resilience.quarantined_faults"] == 1
        assert session.counters["resilience.bisect_runs"] > 1

    @fork_only
    def test_degrade_excludes_whole_shard(self):
        simulator = self._simulator("degrade")
        report = simulator.run(self.patterns)
        (record,) = simulator.failures
        assert record.action == "degrade"
        assert self.poison in record.detail["faults"]
        excluded = set(record.detail["faults"])
        assert len(excluded) > 1  # coarser than quarantine
        assert [f.name for f in report.faults] == [
            f.name for f in self.baseline.faults if f.name not in excluded
        ]

    def test_quarantine_works_without_fork_too(self):
        # The in-process shard/merge path applies the same policy.
        simulator = ShardedFaultSimulator(
            self.circuit,
            faults=self.faults,
            workers=1,
            shards=2,
            failure_policy="quarantine",
            chaos=ChaosConfig(seed=0, poison_faults=(self.poison,)),
        )
        report = simulator.run(self.patterns)
        assert self.poison not in {f.name for f in report.faults}
        assert len(report.faults) == len(self.faults) - 1

    def test_every_fault_poisoned_yields_empty_report(self):
        simulator = ShardedFaultSimulator(
            self.circuit,
            faults=self.faults,
            workers=1,
            shards=2,
            failure_policy="degrade",
            chaos=ChaosConfig(
                seed=0, poison_faults=tuple(f.name for f in self.faults)
            ),
        )
        report = simulator.run(self.patterns)
        assert report.faults == []
        assert report.num_patterns == len(self.patterns)
        assert len(simulator.failures) == 2


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

    def test_generate_tests_quarantine_reported_in_manifest(self):
        circuit = c17()
        poison = collapse_faults(circuit)[0].name
        result = generate_tests(
            circuit,
            random_phase=8,
            workers=2,
            supervision=fast_supervision(),
            failure_policy="quarantine",
            chaos=ChaosConfig(seed=0, poison_faults=(poison,)),
        )
        manifest = result.manifest.to_dict()
        validate_manifest(manifest)
        rows = manifest["failures"]
        assert rows and all(row["action"] == "quarantine" for row in rows)
        assert all(row["detail"]["faults"] == [poison] for row in rows)
        assert poison not in {f.name for f in result.report.faults}


class TestCampaignUnderChaos:
    def _runner(self, store, chaos=None, policy="degrade", spec=None):
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
        assert poisoned.manifest.to_dict()["failures"][0]["action"] == "degrade"
        validate_manifest(poisoned.manifest.to_dict())
        assert f"1 cells FAILED" in poisoned.summary
        assert not poisoned.finished
        # The checkpoint remembers the failure for the next run...
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

    def test_checkpoint_corruption_chaos_rebuilds_from_store(self, tmp_path):
        baseline = CampaignRunner(tiny_spec(), tmp_path / "a").run()
        store = tmp_path / "b"
        first = self._runner(
            store, chaos=ChaosConfig(seed=7, corrupt_checkpoint_rate=1.0)
        ).run()
        assert first.summary == baseline.summary
        # The final checkpoint write was corrupted; the resume rebuilds
        # completed state from the content-addressed store instead of
        # recomputing (or worse, crashing).
        second = self._runner(store).run()
        assert second.manifest.counters["campaign.checkpoint.rebuilt"] == 1
        assert second.hits == 2 and second.misses == 0
        assert second.summary == baseline.summary

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
            corrupt_checkpoint_rate=0.3,
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
