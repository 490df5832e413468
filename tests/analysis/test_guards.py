"""The guard map machinery: classification, the lock graph, module guards.

The fixtures cover the rules end to end; these tests pin the shared
vocabulary underneath them — how ``with`` items map to canonical lock
names, how the one-hop graph extraction sees call chains, and that
:data:`MODULE_GUARDS` binds module globals to their lock.
"""

import ast
import textwrap

from repro.analysis import Engine, Scope
from repro.analysis.guards import (
    MODULE_GUARDS,
    SERVE_INSTRUMENT,
    SERVE_STATE_WRITER,
    ModuleGuard,
    classify_lock_acquisition,
    extract_lock_edges,
)


def _lock(source: str, class_name=None):
    expr = ast.parse(source, mode="eval").body
    return classify_lock_acquisition(expr, class_name)


class TestClassification:
    def test_serve_writer_mutex(self):
        assert _lock("self._writer", "ServerState") == SERVE_STATE_WRITER

    def test_instrument_global(self):
        assert _lock("_INSTRUMENT_LOCK") == SERVE_INSTRUMENT

    def test_generic_lock_suffix_fallback(self):
        assert _lock("self._io_lock", "Anything") == "Anything._io_lock"

    def test_non_locks_are_none(self):
        assert _lock("self.store", "ServerState") is None
        assert _lock("self._writer", "SomethingElse") is None
        assert _lock("open(path)") is None


class TestLockGraph:
    def test_nested_withs_record_edges(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def f(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass
                """
            )
        )
        graph = extract_lock_edges(tree, "mod.py")
        assert ("<module>._a_lock", "<module>._b_lock") in graph.edges

    def test_one_call_hop_adds_edges(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                class C:
                    def outer(self):
                        with self._a_lock:
                            self.inner()

                    def inner(self):
                        with self._b_lock:
                            pass
                """
            )
        )
        graph = extract_lock_edges(tree, "mod.py")
        assert ("C._a_lock", "C._b_lock") in graph.edges

    def test_self_edges_are_skipped(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                class ServerState:
                    def f(self):
                        with self._writer:
                            self.g()

                    def g(self):
                        with self._writer:
                            pass
                """
            )
        )
        assert extract_lock_edges(tree, "mod.py").edges == {}


class TestModuleGuards:
    def test_instrument_global_outside_lock_is_flagged(
        self, tmp_path, monkeypatch
    ):
        source = textwrap.dedent(
            """
            _HITS = None
            _MY_LOCK = None

            def bump():
                _HITS.inc()

            def bump_locked_properly():
                with _MY_LOCK:
                    _HITS.inc()
            """
        )
        path = tmp_path / "mod.py"
        path.write_text(source)
        monkeypatch.setitem(
            MODULE_GUARDS,
            "mod.py",
            ModuleGuard(
                lock_global="_MY_LOCK",
                lock_name="<module>._MY_LOCK",
                guarded=frozenset({"_HITS"}),
            ),
        )
        engine = Engine(root=tmp_path, scopes={"RPR007": Scope()})
        findings = [
            (f.line, f.rule_id)
            for f in engine.run([path])
            if f.rule_id == "RPR007"
        ]
        assert findings == [(6, "RPR007")]
