"""Output checks: every answer is diffed against a from-scratch reference.

The reference never shares state with the server: a *twin* in-memory store
is rebuilt from the fixed-seed base data, the same delta specs are replayed
on it up to the version a reply is stamped with, and a fresh
``BasicBellwetherSearch`` answers the same question by scanning it.  The
``--corrupt N`` hook misreads N replies on the client side, which must
surface as failed operations — the proof that these checks can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core import BasicBellwetherSearch

from . import inputs

#: The server answers all-items queries from rolled-up cube tables, the
#: reference from raw rows: equal up to float associativity (Theorem 1).
RMSE_REL_TOL = 1e-6


@dataclass
class Op:
    """One attempted operation and what became of it."""

    index: int
    kind: str
    t_due: float
    t_end: float
    slice_index: int
    conn: int = 0
    budget: float | None = None
    items: tuple | None = None
    version: int | None = None
    answer: tuple | None = None       # (region_str, rmse, n_feasible)
    n_bytes: int = 0
    late_s: float = 0.0               # how long after t_due it was sent
    misread: bool = False             # --corrupt touched this reply
    errors: list[str] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return (self.t_end - self.t_due) * 1e3

    @property
    def ok(self) -> bool:
        return not self.errors


class Corruptor:
    """``--corrupt N``: misread the first N results shown, on purpose."""

    def __init__(self, n: int):
        self.left = n

    def take(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True

    def maybe(self, body: dict) -> bool:
        """Misread a /bellwether reply client-side (the server said otherwise)."""
        if "bellwether" in body and self.take():
            body["bellwether"]["region_str"] = "<misread>"
            return True
        return False


class Reference:
    """From-scratch answers on the twin store, replayed to any version."""

    def __init__(self, ds, base_store, costs, delta_specs=()):
        self._ds, self._base, self._costs = ds, base_store, costs
        self._specs = list(delta_specs)
        self._searches: dict[int, BasicBellwetherSearch] = {}

    def _search(self, version: int) -> BasicBellwetherSearch:
        if version not in self._searches:
            twin = inputs.copy_store(self._base)
            for delta_spec in self._specs[:version]:
                twin.apply_delta(inputs.build_delta(self._base, delta_spec))
            if twin.version != version:
                raise ValueError(f"no delta stream reaches version {version}")
            self._searches[version] = BasicBellwetherSearch(
                self._ds.task, twin, costs=self._costs
            )
        return self._searches[version]

    def answer(self, version: int, budget: float, items) -> tuple:
        result = self._search(version).run(
            budget=budget, item_ids=None if items is None else list(items)
        )
        best = result.bellwether
        return (str(best.region), float(best.rmse), len(result.feasible))


def diff_answer(expected: tuple, got: tuple) -> list[str]:
    """Mismatches between a reference (region, rmse, n_feasible) and a reply's."""
    out = []
    if expected[0] != got[0]:
        out.append(f"region {got[0]!r} != reference {expected[0]!r}")
    if not math.isclose(expected[1], got[1], rel_tol=RMSE_REL_TOL, abs_tol=1e-12):
        out.append(f"rmse {got[1]!r} != reference {expected[1]!r}")
    if expected[2] != got[2]:
        out.append(f"n_feasible {got[2]} != reference {expected[2]}")
    return out


def read_reply(op: Op, status: int, body: dict) -> None:
    """The in-window part: status, shape and version stamp of one reply."""
    if status != 200:
        op.errors.append(f"HTTP {status}: {body.get('error')}")
        return
    op.version = body.get("store_version")
    if not isinstance(op.version, int):
        op.errors.append("reply carries no store_version")
    if op.kind.startswith("bellwether"):
        try:
            win = body["bellwether"]
            op.answer = (win["region_str"], float(win["rmse"]), int(body["n_feasible"]))
        except (KeyError, TypeError, ValueError) as exc:
            op.errors.append(f"malformed /bellwether reply: {exc!r}")
    elif op.kind == "predict":
        try:
            total = sum(p["value"] for p in body["predictions"])
            if not math.isclose(total, body["aggregate"], rel_tol=1e-9, abs_tol=1e-9):
                op.errors.append("predict aggregate is not the sum of its values")
            op.answer = (body["region_str"],)
        except (KeyError, TypeError) as exc:
            op.errors.append(f"malformed /predict reply: {exc!r}")


def check_versions(ops: list[Op], acked: list[tuple[float, int]]) -> None:
    """No connection sees the store go backwards, and a request due after
    ``apply_delta`` returned version v answers at >= v.

    ``acked`` holds (time the delta call returned, version it returned).
    """
    last: dict[int, int] = {}
    for op in sorted(ops, key=lambda o: o.t_end):
        if op.version is None:
            continue
        if op.version < last.get(op.conn, 0):
            op.errors.append(
                f"store version went backwards: v{op.version} after v{last[op.conn]}"
            )
        last[op.conn] = max(op.version, last.get(op.conn, 0))
        floor = max((v for t, v in acked if t <= op.t_due), default=0)
        if op.version < floor:
            op.errors.append(
                f"answered at v{op.version} after apply_delta returned v{floor}"
            )


def check_answers(ops: list[Op], reference: Reference) -> int:
    """Diff each bellwether/predict reply among ``ops`` against the
    reference at the version it is stamped with; returns how many were."""
    checked = 0
    for op in ops:
        if op.answer is None or not op.ok:
            continue
        expected = reference.answer(op.version, op.budget, op.items)
        if op.kind == "predict":
            if expected[0] != op.answer[0]:
                op.errors.append(
                    f"predict used {op.answer[0]!r}, reference bellwether {expected[0]!r}"
                )
        else:
            op.errors.extend(diff_answer(expected, op.answer))
        checked += 1
    return checked
