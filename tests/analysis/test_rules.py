"""Every rule is demonstrated by a fixture of known violations.

Each ``fixtures/rprNNN_*.py`` file marks its deliberate violations with
``# expect: RPRNNN`` comments.  For each fixture we assert that running the
full rule set reports exactly the marked (line, rule) pairs — no misses, no
extras from other rules — and that disabling the fixture's rule silences
the file entirely (so each finding is attributable to its rule alone).
"""

import re
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, Engine, Scope
from repro.analysis.guards import MODULE_GUARDS
from repro.analysis.rules import get_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("rpr*.py"))

_EXPECT_RE = re.compile(r"#\s*expect:\s*(RPR\d+)")

# Every rule scoped everywhere, so fixtures outside the production scopes
# (and inside the engine's global fixture exclude) still get linted.
_ALL_SCOPES = {rule.rule_id: Scope() for rule in ALL_RULES}


@pytest.fixture(autouse=True)
def _rpr007_fixture_stands_in_for_serve_state(monkeypatch):
    """Module guards are keyed by path: bind the serve one to its fixture."""
    monkeypatch.setitem(
        MODULE_GUARDS,
        "tests/analysis/fixtures/rpr007_guarded_fields.py",
        MODULE_GUARDS["src/repro/serve/state.py"],
    )


def _expected(path: Path) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            out.append((lineno, match.group(1)))
    return out


def test_every_rule_has_a_fixture():
    covered = {_expected(path)[0][1] for path in FIXTURES}
    assert covered == {rule.rule_id for rule in ALL_RULES}


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_triggers_exactly_its_markers(path):
    expected = _expected(path)
    assert expected, f"fixture {path.name} has no # expect markers"
    engine = Engine(root=REPO_ROOT, scopes=_ALL_SCOPES, excludes=())
    found = [(f.line, f.rule_id) for f in engine.run([path])]
    assert found == expected


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_is_silent_with_its_rule_disabled(path):
    rule_id = _expected(path)[0][1]
    others = [rule for rule in ALL_RULES if rule.rule_id != rule_id]
    engine = Engine(
        root=REPO_ROOT, rules=others, scopes=_ALL_SCOPES, excludes=()
    )
    assert engine.run([path]) == []


def test_get_rules_rejects_unknown_ids():
    from repro.analysis import AnalysisError

    with pytest.raises(AnalysisError):
        get_rules(["RPR999"])


def test_rpr001_lets_the_storage_layer_map_files_but_not_zip_them(tmp_path):
    """Internals and mappings are the storage layer's own; ``np.savez`` /
    ``np.load`` are flagged there too, with no per-file exemption."""
    source = (
        "import mmap\n"
        "import numpy as np\n"
        "def read(store, f, path):\n"
        "    store._meta\n"
        "    mmap.mmap(f.fileno(), 0)\n"
        "    np.memmap(path)\n"
        "    np.load(path)\n"
        "    np.savez_compressed(path)\n"
    )
    found = {}
    for layer in ("storage", "core"):
        path = tmp_path / "src" / "repro" / layer / "cubetables.py"
        path.parent.mkdir(parents=True)
        path.write_text(source)
        engine = Engine(root=tmp_path, rules=get_rules(["RPR001"]))
        found[layer] = [f.line for f in engine.run([path])]
    assert found == {"storage": [7, 8], "core": [4, 5, 6, 7, 8]}
