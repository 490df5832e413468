"""The declarative guard map and static lock-scope machinery.

This module is the shared vocabulary of the concurrency rules
(RPR007–RPR008) and the runtime checker (:mod:`repro.analysis.runtime`):

* **Canonical lock names.**  Every lock the serving stack takes has one
  process-wide name (``serve.state.writer``, ``serve.instrument``, ...).
  The static rules report edges between these names; the runtime
  checker's lock graph uses the same names, so a static finding and a
  runtime violation about the same inversion read identically.

* **Guard map.**  :data:`MODULE_GUARDS` binds the serve instrument
  globals to the lock that guards them.  RPR007 enforces the map.  (The
  serving state itself needs no entry: queries see it only through one
  immutable snapshot.)

* **Lock-scope classification.**  :func:`classify_lock_acquisition`
  recognizes ``with self._io_lock:`` / ``with _INSTRUMENT_LOCK:`` — every
  lock here is a plain mutex — in a ``with`` item.

* **Lock-acquisition graph.**  :func:`extract_lock_edges` walks one
  file's functions and records every (held, acquired) pair — lexical
  nesting plus one call-hop into same-module functions;
  :func:`build_lock_graph` folds the whole tree into the global DAG
  RPR008 checks for two-sided edges.

Everything here is stdlib-only and import-free with respect to the rest
of :mod:`repro` — the linter must work on trees that do not import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .callgraph import ModuleCallGraph

__all__ = [
    "AQP_JOURNAL_IO",
    "CUBE_TABLES_IO",
    "LockGraph",
    "MODULE_GUARDS",
    "ModuleGuard",
    "SERVE_INSTRUMENT",
    "SERVE_STATE_WRITER",
    "build_lock_graph",
    "classify_lock_acquisition",
    "extract_lock_edges",
    "function_lock_acquisitions",
    "iter_lock_functions",
    "parse_tree_files",
]

# ------------------------------------------------------ canonical lock names

#: ``ServerState._writer`` — serializes deltas, adoptions and cold builds.
SERVE_STATE_WRITER = "serve.state.writer"
#: ``repro.serve.state._INSTRUMENT_LOCK`` — guards the metrics registry.
SERVE_INSTRUMENT = "serve.instrument"
#: ``CubeTableStore._io_lock`` — serializes table save/load pairs.
CUBE_TABLES_IO = "storage.cubetables.io"
#: ``WorkloadJournal._lock`` — serializes journal appends.
AQP_JOURNAL_IO = "aqp.journal.io"

#: ``(class name, attribute)`` -> canonical lock name, for `with self.X:`.
_LOCK_ATTR_NAMES: dict[tuple[str, str], str] = {
    ("ServerState", "_writer"): SERVE_STATE_WRITER,
    ("CubeTableStore", "_io_lock"): CUBE_TABLES_IO,
    ("WorkloadJournal", "_lock"): AQP_JOURNAL_IO,
    ("AqpEngine", "_ilock"): SERVE_INSTRUMENT,
}

#: Module-global lock names, for ``with _INSTRUMENT_LOCK:``.
_LOCK_GLOBAL_NAMES: dict[str, str] = {
    "_INSTRUMENT_LOCK": SERVE_INSTRUMENT,
}


def _attr_lock_name(class_name: str | None, attr: str) -> str | None:
    """Canonical name for ``self.<attr>`` when it looks like a lock."""
    known = _LOCK_ATTR_NAMES.get((class_name or "", attr))
    if known is not None:
        return known
    if attr.endswith("lock"):
        # A lock outside the alias table: name it by its owner so graph
        # edges stay distinguishable.
        return f"{class_name or '<module>'}.{attr}"
    return None


def _global_lock_name(name: str) -> str | None:
    known = _LOCK_GLOBAL_NAMES.get(name)
    if known is not None:
        return known
    if "LOCK" in name or name.endswith("_lock"):
        return f"<module>.{name}"
    return None


# ----------------------------------------------------------------- guard map


@dataclass(frozen=True)
class ModuleGuard:
    """Module globals guarded by a module-level lock."""

    lock_global: str
    lock_name: str
    guarded: frozenset[str]


#: Repo-relative path -> its module guard.  The serve instruments wrap a
#: single-threaded registry; every touch outside ``_INSTRUMENT_LOCK`` is a
#: data race on plain ``+=`` counters.
MODULE_GUARDS: dict[str, ModuleGuard] = {
    "src/repro/serve/state.py": ModuleGuard(
        lock_global="_INSTRUMENT_LOCK",
        lock_name=SERVE_INSTRUMENT,
        guarded=frozenset(
            {
                "_REGISTRY",
                "_REQUESTS",
                "_ERRORS",
                "_CACHE_HITS",
                "_CACHE_MISSES",
                "_VERSION_ADOPTIONS",
                "_ZERO_SCAN_QUERIES",
                "_FULL_SCANS",
                "_LATENCY",
                "_STAGES",
            }
        ),
    ),
}


# --------------------------------------------------- lock-scope classification


def classify_lock_acquisition(
    expr: ast.expr, class_name: str | None
) -> str | None:
    """Canonical name of the lock a ``with`` item takes; None for non-locks.

    Recognized shapes::

        with self._io_lock:        # instance lock
        with _INSTRUMENT_LOCK:     # module-global lock
    """
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return _attr_lock_name(class_name, expr.attr)
    if isinstance(expr, ast.Name):
        return _global_lock_name(expr.id)
    return None


_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SKIP_NODES = (*_FUNC_NODES, ast.Lambda, ast.ClassDef)


def iter_lock_functions(tree: ast.Module):
    """``(node, class_name)`` for every top-level function and method."""
    for node in tree.body:
        if isinstance(node, _FUNC_NODES):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNC_NODES):
                    yield item, node.name


def function_lock_acquisitions(
    node: ast.AST, class_name: str | None
) -> set[str]:
    """Canonical names of every lock ``node``'s own body acquires."""
    acquired: set[str] = set()
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _SKIP_NODES):
            continue
        if isinstance(child, ast.With):
            for item in child.items:
                name = classify_lock_acquisition(item.context_expr, class_name)
                if name is not None:
                    acquired.add(name)
        stack.extend(ast.iter_child_nodes(child))
    return acquired


# ------------------------------------------------------ lock-acquisition graph

#: One edge occurrence: the file and line where ``second`` was acquired
#: (or where the call that acquires it sits) while ``first`` was held.
Site = tuple[str, int]


@dataclass
class LockGraph:
    """The acquisition-order graph: (held, acquired) -> occurrence sites."""

    edges: dict[tuple[str, str], list[Site]] = field(default_factory=dict)

    def add(self, first: str, second: str, site: Site) -> None:
        if first == second:
            return
        self.edges.setdefault((first, second), []).append(site)

    def merge(self, other: "LockGraph") -> None:
        for edge, sites in other.edges.items():
            self.edges.setdefault(edge, []).extend(sites)

    def reversed_sites(self, first: str, second: str) -> list[Site]:
        return self.edges.get((second, first), [])


def extract_lock_edges(tree: ast.Module, relpath: str) -> LockGraph:
    """Every (held, acquired) lock pair one file's functions establish.

    Lexically nested ``with`` scopes yield direct edges; a call under a
    held lock to a same-module function adds edges to every lock that
    function's own body acquires (one hop, per the module call graph).
    """
    graph = LockGraph()
    cg = ModuleCallGraph(tree)
    acq_index = {
        entry.qualname: function_lock_acquisitions(entry.node, entry.class_name)
        for entry in cg.functions.values()
    }

    def walk(node: ast.AST, held: list[str], class_name: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SKIP_NODES):
                continue
            if isinstance(child, ast.With):
                entered: list[str] = []
                for item in child.items:
                    name = classify_lock_acquisition(
                        item.context_expr, class_name
                    )
                    if name is None:
                        continue
                    for h in held + entered:
                        graph.add(h, name, (relpath, child.lineno))
                    entered.append(name)
                walk(child, held + entered, class_name)
                continue
            if isinstance(child, ast.Call) and held:
                entry = cg.resolve_call(child, class_name)
                if entry is not None:
                    for acquired in acq_index.get(entry.qualname, ()):
                        for h in held:
                            graph.add(h, acquired, (relpath, child.lineno))
            walk(child, held, class_name)

    for node, class_name in iter_lock_functions(tree):
        walk(node, [], class_name)
    return graph


def build_lock_graph(files: list[tuple[str, ast.Module]]) -> LockGraph:
    """Fold per-file edges over ``(relpath, tree)`` pairs into one graph."""
    graph = LockGraph()
    for relpath, tree in files:
        graph.merge(extract_lock_edges(tree, relpath))
    return graph


def parse_tree_files(root: Path, files: list[Path]) -> list[tuple[str, ast.Module]]:
    """Parse files for the graph, skipping anything that does not parse
    (RPR000 reports those separately)."""
    out: list[tuple[str, ast.Module]] = []
    for file in files:
        try:
            source = file.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file))
        except (OSError, SyntaxError):
            continue
        out.append((file.relative_to(root).as_posix(), tree))
    return out
