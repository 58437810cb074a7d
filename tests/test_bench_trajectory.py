"""Where benchmarks look for their committed ``BENCH_<name>.json``."""

import os

from repro.bench_trajectory import default_baseline_path

#: A bench name no directory above a tmp tree holds a file for.
BENCH = "trajectory_probe"
FILE = f"BENCH_{BENCH}.json"


class TestDefaultBaselinePath:
    def test_file_at_root_found_without_git(self, tmp_path):
        # A ``git archive`` export: the file sits at the root, no .git.
        (tmp_path / FILE).write_text("{}")
        start = tmp_path / "benchmarks"
        start.mkdir()
        assert default_baseline_path(BENCH, start=str(start)) == str(
            tmp_path / FILE
        )

    def test_git_root_anchors_a_missing_file(self, tmp_path):
        (tmp_path / ".git").mkdir()
        start = tmp_path / "benchmarks" / "nested"
        start.mkdir(parents=True)
        assert default_baseline_path(BENCH, start=str(start)) == str(
            tmp_path / FILE
        )

    def test_neither_present_falls_back_to_start(self, tmp_path):
        start = tmp_path / "benchmarks"
        start.mkdir()
        assert default_baseline_path(BENCH, start=str(start)) == os.path.join(
            str(start), FILE
        )
