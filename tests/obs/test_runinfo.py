"""Run identity: process-stable run ids and journal stamping."""

import json
import re
import subprocess

from repro.obs import BenchJournal, current_run_id, run_context, runinfo
from repro.obs.runinfo import git_sha


class TestRunId:
    def test_stable_within_process(self):
        assert current_run_id() == current_run_id()

    def test_shape(self):
        assert re.fullmatch(r"[0-9a-f]{12}", current_run_id())


class TestGitSha:
    def test_short_sha_or_none(self):
        sha = git_sha()
        assert sha is None or re.fullmatch(r"[0-9a-f]{4,40}(-dirty)?", sha)

    def test_cached_across_calls(self):
        assert git_sha() == git_sha()

    def test_uncommitted_change_is_marked_dirty(self, tmp_path, monkeypatch):
        def git(*args):
            subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True)

        git("init", "-q")
        (tmp_path / "f").write_text("a")
        (tmp_path / "BENCH_t.json").write_text("{}\n")
        git("add", "f", "BENCH_t.json")
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "c")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(runinfo, "_GIT_SHA", False)  # not probed yet
        clean = git_sha()
        assert re.fullmatch(r"[0-9a-f]{4,40}", clean)
        (tmp_path / "BENCH_t.json").write_text("{}\n{}\n")  # a record appended
        monkeypatch.setattr(runinfo, "_GIT_SHA", False)
        assert git_sha() == clean
        (tmp_path / "f").write_text("b")
        monkeypatch.setattr(runinfo, "_GIT_SHA", False)
        assert git_sha() == clean + "-dirty"


class TestRunContext:
    def test_identity_keys_present(self):
        ctx = run_context()
        assert ctx["run_id"] == current_run_id()
        assert set(ctx) == {"run_id", "git_sha", "hostname", "python"}
        assert ctx["python"].count(".") == 2

    def test_workers_included_on_request(self):
        assert run_context(workers=4)["workers"] == 4
        assert "workers" not in run_context()


class TestJournalStamping:
    def test_records_carry_run_identity(self, tmp_path):
        journal = BenchJournal(tmp_path / "BENCH_t.json")
        journal.record("bench_a", 0.5, workers=2)
        (line,) = (tmp_path / "BENCH_t.json").read_text().splitlines()
        record = json.loads(line)
        assert record["run_id"] == current_run_id()
        assert record["hostname"]
        assert record["python"]
        assert record["workers"] == 2
        assert "git_sha" in record

    def test_context_overrides_stamp(self, tmp_path):
        journal = BenchJournal(tmp_path / "BENCH_t.json", context={"python": "x"})
        record = journal.record("bench_a", 0.1)
        assert record["python"] == "x"
        assert record["run_id"] == current_run_id()

    def test_stamping_can_be_disabled(self, tmp_path):
        journal = BenchJournal(tmp_path / "BENCH_t.json", stamp_run=False)
        record = journal.record("bench_a", 0.1)
        assert "run_id" not in record
        assert "hostname" not in record
