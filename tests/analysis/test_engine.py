"""Engine mechanics: suppressions, baselines, the CLI, parse failures."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Engine,
    Scope,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.cli import main
from repro.analysis.engine import PARSE_ERROR_RULE, AnalysisError

REPO_ROOT = Path(__file__).resolve().parents[2]

# Everything-in-scope override so temp trees outside src/repro get linted.
_EVERYWHERE = {"RPR003": Scope(), "RPR006": Scope()}


def _write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(source)
    return path


def _run(tmp_path: Path, source: str, scopes=None):
    path = _write(tmp_path, "mod.py", source)
    engine = Engine(root=tmp_path, scopes=scopes or _EVERYWHERE)
    return engine.run([path])


UNSEEDED = "import numpy as np\n\ndef f():\n    return np.random.normal()\n"


class TestSuppressions:
    def test_violation_is_reported(self, tmp_path):
        findings = _run(tmp_path, UNSEEDED)
        assert [(f.line, f.rule_id) for f in findings] == [(4, "RPR003")]

    def test_rule_specific_suppression(self, tmp_path):
        findings = _run(
            tmp_path,
            UNSEEDED.replace(
                "np.random.normal()",
                "np.random.normal()  # lint: ignore[RPR003]",
            ),
        )
        assert findings == []

    def test_bare_suppression_covers_every_rule(self, tmp_path):
        findings = _run(
            tmp_path,
            UNSEEDED.replace(
                "np.random.normal()", "np.random.normal()  # lint: ignore"
            ),
        )
        assert findings == []

    def test_suppression_for_another_rule_does_not_hide(self, tmp_path):
        findings = _run(
            tmp_path,
            UNSEEDED.replace(
                "np.random.normal()",
                "np.random.normal()  # lint: ignore[RPR001]",
            ),
        )
        assert [f.rule_id for f in findings] == ["RPR003"]

    def test_suppression_on_other_line_does_not_hide(self, tmp_path):
        findings = _run(
            tmp_path, "# lint: ignore[RPR003]\n" + UNSEEDED
        )
        assert [f.rule_id for f in findings] == ["RPR003"]


class TestBaseline:
    def test_round_trip_silences_and_reappears(self, tmp_path):
        findings = _run(tmp_path, UNSEEDED)
        assert findings
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        baseline = load_baseline(baseline_path)
        assert apply_baseline(findings, baseline) == []
        # A *new* violation is not grandfathered.
        more = _run(
            tmp_path, UNSEEDED + "\ndef g():\n    return np.random.rand()\n"
        )
        fresh = apply_baseline(more, baseline)
        assert [f.line for f in fresh] == [7]

    def test_baseline_is_line_insensitive(self, tmp_path):
        findings = _run(tmp_path, UNSEEDED)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        shifted = _run(tmp_path, "\n\n" + UNSEEDED)
        assert apply_baseline(shifted, load_baseline(baseline_path)) == []

    def test_unreadable_baseline_raises(self, tmp_path):
        bad = _write(tmp_path, "baseline.json", "{not json")
        with pytest.raises(AnalysisError):
            load_baseline(bad)


class TestParseErrors:
    def test_unparsable_file_is_a_finding(self, tmp_path):
        path = _write(tmp_path, "mod.py", "def broken(:\n")
        findings = Engine(root=tmp_path).run([path])
        assert [f.rule_id for f in findings] == [PARSE_ERROR_RULE]


def _tree(tmp_path: Path, source: str = UNSEEDED) -> Path:
    """A minimal repo-shaped tree the CLI's default roots pick up."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source)
    return tmp_path


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _tree(tmp_path, "x = 1\n")
        assert main(["--root", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one_text(self, tmp_path, capsys):
        _tree(tmp_path)
        assert main(["--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "src/repro/mod.py:4: RPR003" in out

    def test_findings_json(self, tmp_path, capsys):
        _tree(tmp_path)
        assert main(["--root", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "RPR003"
        assert payload["findings"][0]["path"] == "src/repro/mod.py"

    def test_rule_filter(self, tmp_path):
        _tree(tmp_path)
        assert main(["--root", str(tmp_path), "--rule", "RPR006"]) == 0
        assert main(["--root", str(tmp_path), "--rule", "RPR003"]) == 1

    def test_unknown_rule_exits_two(self, tmp_path):
        _tree(tmp_path)
        assert main(["--root", str(tmp_path), "--rule", "RPR999"]) == 2

    def test_baseline_workflow(self, tmp_path):
        _tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            ["--root", str(tmp_path), "--write-baseline", str(baseline)]
        ) == 0
        assert main(
            ["--root", str(tmp_path), "--baseline", str(baseline)]
        ) == 0

    def test_github_format_emits_error_annotations(self, tmp_path, capsys):
        _tree(tmp_path)
        assert main(["--root", str(tmp_path), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith(
            "::error file=src/repro/mod.py,line=4,title=RPR003::"
        )
        # Workflow-command data is newline/percent escaped.
        assert "\n::" not in out.rstrip("\n")[1:]

    def test_github_format_clean_tree_prints_nothing(self, tmp_path, capsys):
        _tree(tmp_path, "x = 1\n")
        assert main(["--root", str(tmp_path), "--format", "github"]) == 0
        assert capsys.readouterr().out == ""

    def test_stale_baseline_warns_without_changing_exit(
        self, tmp_path, capsys
    ):
        root = _tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            ["--root", str(root), "--write-baseline", str(baseline)]
        ) == 0
        # Fix the violation: its baseline entry is now stale.
        (root / "src" / "repro" / "mod.py").write_text("x = 1\n")
        assert main(["--root", str(root), "--baseline", str(baseline)]) == 0
        assert "stale baseline entr" in capsys.readouterr().err

    def test_prune_baseline_rewrites_the_file(self, tmp_path, capsys):
        root = _tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["--root", str(root), "--write-baseline", str(baseline)])
        (root / "src" / "repro" / "mod.py").write_text("x = 1\n")
        assert main(
            [
                "--root", str(root),
                "--baseline", str(baseline),
                "--prune-baseline",
            ]
        ) == 0
        assert "pruned 1 stale entry" in capsys.readouterr().err
        assert json.loads(baseline.read_text())["findings"] == []
        # A second run is quiet: nothing stale remains.
        assert main(["--root", str(root), "--baseline", str(baseline)]) == 0
        assert "stale" not in capsys.readouterr().err

    def test_prune_without_baseline_exits_two(self, tmp_path):
        _tree(tmp_path)
        assert main(["--root", str(tmp_path), "--prune-baseline"]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 10):  # RPR009 went with the RW lock
            assert f"RPR{n:03d}" in out
        assert "RPR009" not in out

    def test_shipped_tree_is_clean_via_cli(self, capsys):
        assert main(["--root", str(REPO_ROOT)]) == 0
