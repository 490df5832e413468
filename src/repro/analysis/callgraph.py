"""A lightweight per-module call resolver for the lock-order rule.

The interprocedural reach of RPR008 is deliberately one hop: a rule
looking at a call site may ask "what does the callee do directly?" but
never chases transitive chains across modules.  That keeps the analysis
decidable on plain ASTs (no imports are executed) and its findings
explainable — every message points at one call and one callee.

Resolution is therefore conservative and purely syntactic:

* ``name(...)`` resolves to the module-level function ``name`` when the
  module defines one;
* ``self.method(...)`` inside ``class C`` resolves to ``C.method`` when
  the class defines one (inherited methods are invisible — the rules
  treat unresolved calls as opaque);
* everything else (``obj.attr(...)``, calls through imports, lambdas)
  resolves to nothing.

Unresolved calls are *not* findings; the runtime checker
(:mod:`repro.analysis.runtime`) covers what static one-hop analysis
cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = ["FunctionEntry", "ModuleCallGraph"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FunctionEntry:
    """One function or method defined at module or class top level."""

    qualname: str  # "func" or "Class.method"
    name: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef


class ModuleCallGraph:
    """Function table + same-module call resolution for one parsed file."""

    def __init__(self, tree: ast.Module):
        self.functions: dict[str, FunctionEntry] = {}
        for node in tree.body:
            if isinstance(node, _FUNC_NODES):
                self._add(node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNC_NODES):
                        self._add(item, class_name=node.name)

    def _add(self, node, class_name: str | None) -> None:
        qualname = node.name if class_name is None else f"{class_name}.{node.name}"
        self.functions[qualname] = FunctionEntry(
            qualname=qualname, name=node.name, class_name=class_name, node=node
        )

    def resolve_call(
        self, call: ast.Call, class_name: str | None
    ) -> FunctionEntry | None:
        """The same-module callee of ``call``, or None when opaque."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.functions.get(func.id)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and class_name is not None
        ):
            return self.functions.get(f"{class_name}.{func.attr}")
        return None
