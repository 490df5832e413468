"""RPR001 — every block access routes through the instrumented store APIs.

Lemma 1 (one scan per tree level) and Lemma 2 (one scan per cube build) are
verified against ``store.full_scans`` / ``store.region_reads``; the obs,
bench, and conformance layers all read those counters.  A code path that
reaches into ``TrainingDataStore`` internals (``_blocks``, ``_fetch``,
``_meta``, ``_raw_columns``) or loads or maps files directly
does real I/O the counters never see — the scan-bound tests keep passing
while the claim they certify silently stops being measured.

Outside the storage layer (and :mod:`repro.obs`, which renders stats), the
rule flags:

* attribute access on the store's private internals, and
* direct ``np.memmap`` / ``mmap.mmap`` calls (``mmap.mmap`` is how
  ``DiskStore`` maps its raw column files; outside ``repro.storage`` a
  mapping bypasses ``store.columnar.chunks_read`` and the byte counters).

Everywhere under ``src/repro`` — the storage layer included, with no
per-file exemption — it flags numpy's ``load`` / ``savez`` /
``savez_compressed``: the zip codec is retired (the store's blocks in
PR 24, the cube tables in PR 28), every file the package writes is raw
buffers behind ``_write_raw`` / ``_raw_columns``, and a zip member is read
and inflated whole whatever window of it was wanted.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule, RuleVisitor, Scope

__all__ = ["ScanAccountingRule"]

_STORE_INTERNALS = {"_blocks", "_fetch", "_meta", "_raw_columns"}
_ZIP_CODEC = {"load", "savez", "savez_compressed"}
#: module name -> its functions that read or map files directly.
_NUMPY_IO = _ZIP_CODEC | {"memmap"}
_RAW_IO_CALLS = {"np": _NUMPY_IO, "numpy": _NUMPY_IO, "mmap": {"mmap"}}
#: The layers that own block I/O: internals and mappings are theirs to use.
_IO_LAYERS = ("src/repro/storage/", "src/repro/obs/")


class _Visitor(RuleVisitor):
    def __init__(self, rule, ctx, engine):
        super().__init__(rule, ctx, engine)
        self.owns_io = ctx.relpath.startswith(_IO_LAYERS)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _STORE_INTERNALS and not self.owns_io:
            self.add(
                node,
                f"store internal `.{node.attr}` bypasses I/O accounting "
                "(store.full_scans / store.region_reads); use read()/scan()",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.attr in _RAW_IO_CALLS.get(func.value.id, ())
        ):
            if func.attr in _ZIP_CODEC:
                self.add(
                    node,
                    f"{func.value.id}.{func.attr}: the zip codec is retired; "
                    "files are raw buffers behind _write_raw / _raw_columns",
                )
            elif not self.owns_io:
                self.add(
                    node,
                    f"direct {func.value.id}.{func.attr} outside repro.storage: "
                    "block I/O must go through the instrumented store APIs",
                )
        self.generic_visit(node)


class ScanAccountingRule(Rule):
    rule_id = "RPR001"
    title = "block access must route through scan-accounting store APIs"
    default_scope = Scope(
        include=("src/repro",), exclude=("src/repro/analysis",)
    )

    def make_visitor(self, ctx: FileContext, engine) -> ast.NodeVisitor:
        return _Visitor(self, ctx, engine)
