"""RPR010 — storage-layer file writes are atomic (tmp + ``os.replace``).

PR 8's torn-pair tests exist because a half-written npz next to an
already-committed manifest is silent corruption: the loader sees a valid
version stamp and memmaps garbage.  ``_atomic_write`` (temp file +
``os.replace``) is the sanctioned pattern — a crash leaves the old file
or the new one, never a hybrid — and this rule generalizes RPR001's
spirit from scan accounting to durability: every file write under
``repro/storage`` and ``repro/incremental`` must either go through
``_atomic_write`` or follow the tmp-then-replace idiom by hand.

Flagged: ``.write_bytes()`` / ``.write_text()``, numpy's ``savez*`` and write-
or append-mode ``open()`` whose target is not a temp path — plus the
inverse bug, a temp write in a function that never
calls ``os.replace`` (the commit that never happens).  A path is "temp"
when its variable name contains ``tmp`` or it is a handle opened from
one; the reviewer-visible naming *is* the contract.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Finding, Rule, Scope

__all__ = ["AtomicWritesRule"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SKIP_NODES = (ast.Lambda, ast.ClassDef)

_WRITE_METHODS = {"write_bytes", "write_text"}
_SAVEZ_NAMES = {"savez", "savez_compressed", "save"}


def _is_tmp_name(node: ast.expr, tmp_names: set[str]) -> bool:
    """Does this expression name a temp path (or a handle opened from one)?"""
    if isinstance(node, ast.Name):
        return node.id in tmp_names or "tmp" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "tmp" in node.attr.lower()
    if isinstance(node, ast.Call):
        # path.with_name(... ".tmp") / with_suffix — the construction site.
        func = node.func
        return isinstance(func, ast.Attribute) and func.attr in (
            "with_name",
            "with_suffix",
        )
    return False


def _write_mode(node: ast.Call) -> str | None:
    """The mode string when this is an ``open``-style call, else None."""
    args = list(node.args)
    mode = None
    if isinstance(node.func, ast.Attribute) and node.func.attr == "open":
        mode = args[0] if args else None
    elif isinstance(node.func, ast.Name) and node.func.id == "open":
        mode = args[1] if len(args) > 1 else None
    else:
        return None
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: give the benefit of the doubt


class AtomicWritesRule(Rule):
    rule_id = "RPR010"
    title = "storage file writes go through _atomic_write or tmp+os.replace"
    default_scope = Scope(
        include=("src/repro/storage", "src/repro/incremental"),
    )

    def make_visitor(self, ctx: FileContext, engine) -> ast.NodeVisitor:
        raise NotImplementedError("RPR010 overrides check()")

    def check(self, ctx: FileContext, engine) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, _FUNC_NODES):
                self._check_function(ctx, node, findings)
        return findings

    def _check_function(self, ctx: FileContext, fn, findings) -> None:
        if fn.name == "_atomic_write":
            return  # the sanctioned implementation itself
        tmp_names: set[str] = set()
        has_replace = False
        calls: list[ast.Call] = []
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            child = stack.pop()
            if isinstance(child, (*_FUNC_NODES, *_SKIP_NODES)):
                continue
            if isinstance(child, ast.Assign) and _is_tmp_name(
                child.value, tmp_names
            ):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        tmp_names.add(target.id)
            if isinstance(child, ast.With):
                # with tmp.open("wb") as f: — f inherits tmp-ness.
                for item in child.items:
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and isinstance(item.context_expr.func, ast.Attribute)
                        and item.context_expr.func.attr == "open"
                        and _is_tmp_name(item.context_expr.func.value, tmp_names)
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        tmp_names.add(item.optional_vars.id)
            if isinstance(child, ast.Call):
                func = child.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "replace"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                ):
                    has_replace = True
                else:
                    calls.append(child)
            stack.extend(ast.iter_child_nodes(child))

        for call in calls:
            self._check_call(ctx, call, tmp_names, has_replace, findings)

    def _check_call(self, ctx, call, tmp_names, has_replace, findings) -> None:
        func = call.func
        target: ast.expr | None = None
        what = None
        if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
            target, what = func.value, f".{func.attr}()"
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _SAVEZ_NAMES
            and isinstance(func.value, ast.Name)
            and func.value.id == "np"
        ):
            target = call.args[0] if call.args else None
            what = f"np.{func.attr}()"
        else:
            mode = _write_mode(call)
            if mode is None or not any(c in mode for c in "wax+"):
                return
            if isinstance(func, ast.Attribute):
                target = func.value
            else:
                target = call.args[0] if call.args else None
            what = f"open(mode={mode!r})"
        if target is not None and _is_tmp_name(target, tmp_names):
            if not has_replace:
                findings.append(
                    ctx.finding(
                        call,
                        self.rule_id,
                        f"{what} writes a temp path but the function never "
                        "calls os.replace — the write is never committed",
                    )
                )
            return
        findings.append(
            ctx.finding(
                call,
                self.rule_id,
                f"{what} writes in place; route through _atomic_write or "
                "write a tmp sibling and os.replace it (a crash mid-write "
                "must never leave a torn file)",
            )
        )
