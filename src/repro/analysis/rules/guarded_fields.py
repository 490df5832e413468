"""RPR007 — guarded module globals are touched only under their lock.

The :mod:`repro.obs` metrics registry is single-threaded by design (plain
``+=`` counters); the query service is its one multi-threaded client, so
every serve instrument global is touched only inside ``with
_INSTRUMENT_LOCK:``.  The binding lives in
:data:`repro.analysis.guards.MODULE_GUARDS`; this rule makes it
checkable: any reference to a guarded global from a function body
outside a scope of its lock is a finding.

The serving state proper needs no such rule — queries reach it only
through one immutable published snapshot (DESIGN §9), so there is no
guarded field left to police.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Finding, Rule, Scope
from ..guards import MODULE_GUARDS, ModuleGuard, classify_lock_acquisition

__all__ = ["GuardedFieldsRule"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SKIP_NODES = (*_FUNC_NODES, ast.Lambda, ast.ClassDef)


class GuardedFieldsRule(Rule):
    rule_id = "RPR007"
    title = "guarded module globals are accessed only under their lock"
    default_scope = Scope(
        include=("src/repro",),
        # The analysis package implements the checking machinery itself.
        exclude=("src/repro/analysis",),
    )

    def make_visitor(self, ctx: FileContext, engine) -> ast.NodeVisitor:
        raise NotImplementedError("RPR007 overrides check()")

    def check(self, ctx: FileContext, engine) -> list[Finding]:
        guard = MODULE_GUARDS.get(ctx.relpath)
        if guard is None:
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, _FUNC_NODES):
                self._check_function(ctx, guard, node, findings)
        return findings

    def _check_function(
        self, ctx: FileContext, guard: ModuleGuard, fn, findings: list[Finding]
    ) -> None:
        def walk(node: ast.AST, depth: int) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _SKIP_NODES):
                    continue
                if isinstance(child, ast.With):
                    delta = sum(
                        classify_lock_acquisition(item.context_expr, None)
                        == guard.lock_name
                        for item in child.items
                    )
                    walk(child, depth + delta)
                    continue
                if (
                    isinstance(child, ast.Name)
                    and child.id in guard.guarded
                    and depth == 0
                ):
                    findings.append(
                        ctx.finding(
                            child,
                            self.rule_id,
                            f"serve instrument {child.id} guarded by "
                            f"{guard.lock_name} touched outside "
                            f"{guard.lock_global}",
                        )
                    )
                    continue
                walk(child, depth)

        walk(fn, 0)
