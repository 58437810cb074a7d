"""The campaign orchestrator: memoized cells, resume from the store,
warm runs doing zero fault-simulation work, corruption survival, CLI."""

import json

import pytest

from repro import telemetry
from repro.__main__ import main as cli_main
from repro.campaign import (
    CampaignCell,
    CampaignRunner,
    CampaignSpec,
    build_workload,
    cell_cache_key,
    demo_spec,
    execute_cell,
)
from repro.store import ResultStore
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


def fault_sim_counters(manifest):
    return sorted(
        name
        for name in manifest.counters
        if name.startswith(("atpg.", "faultsim.", "scan."))
    )


class TestSpec:
    def test_auto_flow_resolution(self):
        spec = tiny_spec(workloads=["c17", "shift_register4"])
        cells = spec.cells()
        flows = {cell.workload: cell.flow for cell in cells}
        assert flows == {"c17": "atpg", "shift_register4": "full_scan"}

    def test_incompatible_cells_skipped_not_run(self):
        spec = tiny_spec(flows=["full_scan"])  # c17 has no flip-flops
        cells, skipped = spec.expand()
        assert cells == []
        assert len(skipped) == 2

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            tiny_spec(workloads=["not_a_circuit"])

    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert CampaignSpec.from_file(str(path)).to_dict() == spec.to_dict()

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict(
                {"name": "x", "workloads": ["c17"], "engines": ["serial"],
                 "typo": 1}
            )

    def test_demo_spec_is_two_by_two(self):
        cells = demo_spec().cells()
        assert len(cells) == 4
        assert {c.flow for c in cells} == {"atpg", "full_scan"}


class TestRunner:
    def test_cold_then_warm(self, tmp_path):
        spec = tiny_spec()
        runner = CampaignRunner(spec, tmp_path / "store")
        cold = runner.run()
        assert (cold.hits, cold.misses) == (0, 2)
        assert cold.finished
        # Cold run did real work: ATPG counters present.
        assert fault_sim_counters(cold.manifest)

        warm_runner = CampaignRunner(spec, tmp_path / "store")
        warm = warm_runner.run()
        assert (warm.hits, warm.misses) == (2, 0)
        # Zero fault-simulation work on the warm run: every cell served
        # from the store, no ATPG/fault-sim/scan counters at all.
        assert fault_sim_counters(warm.manifest) == []
        assert warm.manifest.counters["store.hit"] == 2
        # Summaries are byte-identical (they carry no timings).
        assert warm.summary == cold.summary
        # Cached cells reproduce the cold run's results exactly.
        for before, after in zip(cold.results, warm.results):
            assert after.cached and not before.cached
            assert after.key == before.key
            assert after.patterns == before.patterns
            assert after.stats == before.stats
            assert after.manifest.to_dict() == before.manifest.to_dict()

    def test_interrupted_run_resumes_from_checkpoint(self, tmp_path):
        spec = tiny_spec()
        store = tmp_path / "store"
        partial = CampaignRunner(spec, store).run(limit=1)
        assert (partial.hits, partial.misses) == (0, 1)
        assert not partial.finished
        assert partial.completed == 1

        resumed = CampaignRunner(spec, store).run()
        assert (resumed.hits, resumed.misses) == (1, 1)
        assert resumed.finished
        # Only the unfinished cell was re-executed.
        assert [r.cached for r in resumed.results] == [True, False]

    def test_scan_flow_cell(self, tmp_path):
        spec = tiny_spec(workloads=["shift_register4"], seeds=[0])
        result = CampaignRunner(spec, tmp_path / "store").run()
        (cell_result,) = result.results
        assert cell_result.cell.flow == "full_scan"
        assert cell_result.report is not None
        assert cell_result.core_manifest is not None
        assert cell_result.stats["chain_length"] == 4
        assert 0.0 < cell_result.coverage <= 1.0
        warm = CampaignRunner(spec, tmp_path / "store").run()
        assert warm.hits == 1
        assert warm.summary == result.summary

    def test_workers_share_one_cache(self, tmp_path):
        # workers is execution strategy, not identity: a cache warmed at
        # workers=1 must serve a workers=2 run entirely from disk.
        spec = tiny_spec(seeds=[0])
        cold = CampaignRunner(spec, tmp_path / "store", workers=1).run()
        warm = CampaignRunner(spec, tmp_path / "store", workers=2).run()
        assert (warm.hits, warm.misses) == (1, 0)
        assert warm.summary == cold.summary

    def test_campaign_manifest_validates(self, tmp_path):
        runner = CampaignRunner(tiny_spec(), tmp_path / "store")
        result = runner.run()
        validate_manifest(result.manifest.to_dict())
        on_disk = json.loads(runner.manifest_path.read_text(encoding="utf-8"))
        validate_manifest(on_disk)
        assert on_disk["stats"]["cells"] == 2

    def test_jsonl_rows_parse_and_validate(self, tmp_path):
        runner = CampaignRunner(tiny_spec(), tmp_path / "store")
        runner.run()
        lines = runner.jsonl_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            row = json.loads(line)
            validate_manifest(row["manifest"])
            assert row["cached"] is False
            assert row["stats"]["patterns"] > 0

    def test_status_and_clean(self, tmp_path):
        runner = CampaignRunner(tiny_spec(), tmp_path / "store")
        assert runner.status()["completed"] == 0
        runner.run(limit=1)
        status = runner.status()
        assert (status["completed"], status["total"]) == (1, 2)
        assert len(status["pending"]) == 1
        outcome = runner.clean()
        assert outcome["evicted"] == 1
        assert runner.status()["completed"] == 0


class TestScopedClean:
    """``clean`` must not nuke a shared store (other campaigns/tenants
    keep their artifacts); ``--purge-store`` restores the full wipe."""

    def run_two_campaigns(self, tmp_path):
        store = tmp_path / "store"
        mine = CampaignRunner(tiny_spec(name="mine"), store)
        theirs = CampaignRunner(
            tiny_spec(name="theirs", seeds=[7, 8]), store
        )
        assert mine.run().misses == 2
        assert theirs.run().misses == 2
        return mine, theirs

    def test_clean_scoped_to_own_cells(self, tmp_path):
        mine, theirs = self.run_two_campaigns(tmp_path)
        outcome = mine.clean()
        assert outcome == {"evicted": 2, "state_dirs_removed": 1}
        # The other campaign's artifacts survived: a warm re-run does
        # zero fault-simulation work.
        assert len(theirs.store) == 2
        rerun = CampaignRunner(
            tiny_spec(name="theirs", seeds=[7, 8]), tmp_path / "store"
        ).run()
        assert (rerun.hits, rerun.misses) == (2, 0)
        # While the cleaned campaign is genuinely cold again.
        recold = CampaignRunner(
            tiny_spec(name="mine"), tmp_path / "store"
        ).run()
        assert (recold.hits, recold.misses) == (0, 2)

    def test_clean_is_idempotent(self, tmp_path):
        mine, _ = self.run_two_campaigns(tmp_path)
        assert mine.clean()["evicted"] == 2
        assert mine.clean() == {"evicted": 0, "state_dirs_removed": 0}

    def test_purge_store_wipes_everything(self, tmp_path):
        mine, theirs = self.run_two_campaigns(tmp_path)
        outcome = mine.clean(purge_store=True)
        assert outcome["evicted"] == 4
        assert len(mine.store) == 0
        assert len(theirs.store) == 0

    def test_campaign_keys_match_store_contents(self, tmp_path):
        mine, _ = self.run_two_campaigns(tmp_path)
        for key in mine.campaign_keys():
            assert mine.store.contains(key)

    def test_cli_clean_scoped_vs_purge(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        for name, seeds in (("mine", [0, 1]), ("theirs", [7, 8])):
            spec_path = tmp_path / f"{name}.json"
            spec_path.write_text(
                json.dumps(tiny_spec(name=name, seeds=seeds).to_dict()),
                encoding="utf-8",
            )
            assert cli_main(
                ["campaign", "run", "--spec", str(spec_path),
                 "--store", store]
            ) == 0
        capsys.readouterr()

        assert cli_main(
            ["campaign", "clean", "--spec", str(tmp_path / "mine.json"),
             "--store", store]
        ) == 0
        assert "evicted 2 artifact(s) (campaign-scoped)" in (
            capsys.readouterr().out
        )

        assert cli_main(
            ["campaign", "clean", "--spec", str(tmp_path / "theirs.json"),
             "--store", store, "--purge-store"]
        ) == 0
        assert "evicted 2 artifact(s) (store-wide)" in capsys.readouterr().out
        assert len(ResultStore(store)) == 0


class TestFaultModelAxis:
    MODELS = ["stuck_at", "bridging", "transition"]

    def test_axis_expands_and_ids_carry_the_model(self):
        spec = tiny_spec(seeds=[0], fault_models=self.MODELS)
        cells = spec.cells()
        assert [cell.fault_model for cell in cells] == self.MODELS
        assert cells[1].cell_id == "c17:atpg:parallel_pattern:bridging:0"

    def test_full_scan_cells_skip_non_stuck_at(self):
        spec = tiny_spec(
            workloads=["shift_register4"], seeds=[0], fault_models=self.MODELS
        )
        cells, skipped = spec.expand()
        assert [cell.fault_model for cell in cells] == ["stuck_at"]
        assert sorted(cell.fault_model for cell in skipped) == [
            "bridging",
            "transition",
        ]

    def test_unknown_fault_model_rejected(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            tiny_spec(fault_models=["delay"])

    def test_spec_round_trips_fault_models(self):
        spec = tiny_spec(fault_models=self.MODELS)
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt.fault_models == self.MODELS
        # pre-axis spec dicts (no fault_models key) default to stuck_at
        legacy = {k: v for k, v in spec.to_dict().items()
                  if k != "fault_models"}
        assert CampaignSpec.from_dict(legacy).fault_models == ["stuck_at"]

    def test_cache_key_separates_models(self):
        keys = {
            cell_cache_key(
                CampaignCell("c17", "atpg", "serial", 0, fault_model=model), {}
            )
            for model in self.MODELS
        }
        assert len(keys) == 3
        # the default-model cell key equals the explicit stuck_at key
        assert cell_cache_key(CampaignCell("c17", "atpg", "serial", 0), {}) in keys

    def test_multi_model_warm_run_is_byte_identical_and_workless(self, tmp_path):
        spec = tiny_spec(seeds=[0], fault_models=self.MODELS)
        cold = CampaignRunner(spec, tmp_path / "store").run()
        assert (cold.hits, cold.misses) == (0, 3)
        assert cold.finished
        warm = CampaignRunner(spec, tmp_path / "store").run()
        assert (warm.hits, warm.misses) == (3, 0)
        assert fault_sim_counters(warm.manifest) == []
        assert warm.summary == cold.summary
        for before, after in zip(cold.results, warm.results):
            assert after.cell == before.cell
            assert after.patterns == before.patterns
            assert after.manifest.to_dict() == before.manifest.to_dict()
            assert after.manifest.fault_model["model"] == before.cell.fault_model


class TestCorruptionRobustness:
    def test_corrupt_artifact_is_quarantined_and_recomputed(self, tmp_path):
        """Satellite regression: a corrupt on-disk artifact must be
        quarantined and recomputed — a warning counter, not a crash."""
        spec = tiny_spec()
        store_dir = tmp_path / "store"
        cold = CampaignRunner(spec, store_dir).run()

        store = ResultStore(store_dir)
        victim_key = cold.results[0].key
        store.path_for(victim_key).write_text(
            '{"schema": "repro.store.artifact/1", "truncated...',
            encoding="utf-8",
        )

        runner = CampaignRunner(spec, store_dir)
        warm = runner.run()
        assert warm.finished
        assert (warm.hits, warm.misses) == (1, 1)
        assert warm.manifest.counters["store.quarantined"] == 1
        assert warm.manifest.stats["quarantined"] == 1
        assert warm.summary == cold.summary
        quarantined = list(runner.store.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        # The recomputed artifact is valid again for the next run.
        third = CampaignRunner(spec, store_dir).run()
        assert (third.hits, third.misses) == (2, 0)


class TestCellIdentity:
    def test_cache_key_varies_with_cell_axes(self):
        params = {"method": "podem", "random_phase": 4}
        base = cell_cache_key(CampaignCell("c17", "atpg", "serial", 0), params)
        assert cell_cache_key(
            CampaignCell("c17", "atpg", "serial", 1), params
        ) != base
        assert cell_cache_key(
            CampaignCell("c17", "atpg", "deductive", 0), params
        ) != base
        assert cell_cache_key(
            CampaignCell("c17", "atpg", "serial", 0), {"random_phase": 8}
        ) != base

    def test_execute_cell_rejects_unknown_flow(self):
        with pytest.raises(ValueError, match="unknown cell flow"):
            execute_cell(CampaignCell("c17", "nope", "serial", 0), {})

    def test_build_workload_unknown_name(self):
        with pytest.raises(ValueError, match="unknown workload"):
            build_workload("missing")


class TestCli:
    def test_run_status_clean(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()), encoding="utf-8")
        store = str(tmp_path / "store")
        args = ["campaign", "run", "--spec", str(spec_path), "--store", store]

        assert cli_main(args) == 0
        cold_out = capsys.readouterr().out
        assert "misses=2" in cold_out

        assert cli_main(args) == 0
        warm_out = capsys.readouterr().out
        assert "hits=2" in warm_out
        # Everything above the [store] line is the deterministic summary.
        assert cold_out.split("[store]")[0] == warm_out.split("[store]")[0]

        assert cli_main(
            ["campaign", "status", "--spec", str(spec_path), "--store", store]
        ) == 0
        assert "2/2 cells completed" in capsys.readouterr().out

        assert cli_main(
            ["campaign", "clean", "--spec", str(spec_path), "--store", store]
        ) == 0
        assert "evicted 2" in capsys.readouterr().out

    def test_run_with_limit_reports_pending(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()), encoding="utf-8")
        assert cli_main(
            ["campaign", "run", "--spec", str(spec_path),
             "--store", str(tmp_path / "store"), "--limit", "1"]
        ) == 0
        assert "pending" in capsys.readouterr().out


class TestCheckpointRecovery:
    """Progress is read from the store, the only record of finished
    cells, so ``status`` cannot disagree with what ``run`` does next."""

    @staticmethod
    def evict_one(store):
        runner = CampaignRunner(tiny_spec(), store)
        runner.run()
        runner.store.evict(runner.campaign_keys()[1])
        return runner, [tiny_spec().cells()[1].cell_id]

    @staticmethod
    def clean_shared_cell(store):
        # Campaign "a" shares seed 0 with "b"; cleaning "a" evicts it.
        shared = CampaignRunner(tiny_spec(name="a", seeds=[0]), store)
        shared.run()
        runner = CampaignRunner(tiny_spec(name="b"), store)
        runner.run()
        shared.clean()
        return runner, [tiny_spec().cells()[0].cell_id]

    @staticmethod
    def truncate_manifest(store):
        runner = CampaignRunner(tiny_spec(), store)
        runner.run()
        text = runner.manifest_path.read_text(encoding="utf-8")
        runner.manifest_path.write_text(text[: len(text) // 3],
                                        encoding="utf-8")
        return runner, []

    @pytest.mark.parametrize(
        "scenario", ["evict_one", "clean_shared_cell", "truncate_manifest"]
    )
    def test_status_reads_the_store(self, tmp_path, scenario):
        runner, pending = getattr(self, scenario)(tmp_path / "store")
        status = runner.status()
        assert status["pending"] == pending
        assert status["completed"] == 2 - len(pending)
        assert status["failed"] == []
        resumed = runner.run()
        assert (resumed.hits, resumed.misses) == (2 - len(pending), len(pending))
        assert resumed.finished

    def test_spec_change_is_fresh_start_not_rebuild(self, tmp_path):
        store = tmp_path / "store"
        CampaignRunner(tiny_spec(), store).run()
        other = tiny_spec(seeds=[5])
        runner = CampaignRunner(other, store)
        status = runner.status()
        assert status["completed"] == 0  # valid checkpoint, different spec
        assert "campaign.checkpoint.rebuilt" not in runner.run().manifest.counters


class TestFailedCells:
    def _broken_runner(self, store, monkeypatch, policy="degrade", retries=0):
        from repro.resilience import RetryPolicy

        def explode(cell, params, workers=1, circuit=None, key=None,
                    backend=None):
            raise RuntimeError(f"cell exploded: {cell.cell_id}")

        monkeypatch.setattr("repro.campaign.runner.execute_cell", explode)
        return CampaignRunner(
            tiny_spec(), store,
            retry=RetryPolicy(max_retries=retries, sleep=lambda s: None),
            failure_policy=policy,
        )

    def test_failed_cells_recorded_with_digest_and_resumed(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        broken = self._broken_runner(store, monkeypatch, retries=1)
        result = broken.run()
        assert len(result.failures) == 2
        for record in result.failures:
            assert record.error == "RuntimeError"
            assert record.attempts == 2
            assert len(record.digest) == 12
        status = broken.status()
        assert len(status["failed"]) == 2
        assert status["completed"] == 0
        # Fixed code (monkeypatch undone by a fresh runner): all heal.
        monkeypatch.undo()
        fixed = CampaignRunner(tiny_spec(), store)
        healed = fixed.run()
        assert healed.failures == [] and healed.finished
        assert fixed.status()["failed"] == []

    def test_retry_budget_spent_before_recording(self, tmp_path, monkeypatch):
        broken = self._broken_runner(tmp_path / "s", monkeypatch, retries=2)
        result = broken.run()
        assert result.manifest.counters["campaign.cell.retry"] == 4
        assert result.manifest.counters["campaign.cell.failed"] == 2
        assert all(record.attempts == 3 for record in result.failures)

    def test_raise_policy_propagates(self, tmp_path, monkeypatch):
        broken = self._broken_runner(tmp_path / "s", monkeypatch, policy="raise")
        with pytest.raises(RuntimeError, match="cell exploded"):
            broken.run()


class TestCliFailureSurface:
    def _spec_path(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()), encoding="utf-8")
        return str(spec_path)

    def test_partial_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def explode(cell, params, workers=1, circuit=None, key=None,
                    backend=None):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr("repro.campaign.runner.execute_cell", explode)
        code = cli_main(
            ["campaign", "run", "--spec", self._spec_path(tmp_path),
             "--store", str(tmp_path / "store"),
             "--retries", "0", "--failure-policy", "degrade"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "FAILED" in out and "RuntimeError" in out
        assert "2 cell(s) failed permanently" in out

    def test_default_raise_policy_propagates(self, tmp_path, monkeypatch):
        def explode(cell, params, workers=1, circuit=None, key=None,
                    backend=None):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr("repro.campaign.runner.execute_cell", explode)
        with pytest.raises(RuntimeError):
            cli_main(
                ["campaign", "run", "--spec", self._spec_path(tmp_path),
                 "--store", str(tmp_path / "store"), "--retries", "0"]
            )

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["campaign", "run", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "partial failure" in out
        assert "--failure-policy" in out and "--retries" in out
