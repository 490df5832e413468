"""Unit tests for CUBE / ROLLUP."""

import numpy as np
import pytest

from repro.table import (
    ALL,
    AggregateSpec,
    Table,
    cube,
    rollup,
)
from repro.table.errors import AggregateError


@pytest.fixture()
def facts() -> Table:
    return Table(
        {
            "time": ["t1", "t1", "t2", "t2"],
            "loc": ["WI", "MD", "WI", "WI"],
            "item": [1, 2, 1, 3],
            "profit": [1.0, 2.0, 3.0, 4.0],
        }
    )


def _cell(table, **dims):
    """Find the single row matching the given dimension values."""
    mask = np.ones(table.n_rows, dtype=bool)
    for k, v in dims.items():
        mask &= table[k] == v
    idx = np.flatnonzero(mask)
    assert len(idx) == 1, f"expected one cell for {dims}, got {len(idx)}"
    return table.row(idx[0])


class TestCube:
    def test_cell_count(self, facts):
        c = cube(facts, ["time", "loc"], [AggregateSpec("sum", "profit")])
        # base cells: (t1,WI),(t1,MD),(t2,WI) = 3; time-only: 2; loc-only: 2; all: 1
        assert c.n_rows == 8

    def test_grand_total(self, facts):
        c = cube(facts, ["time", "loc"], [AggregateSpec("sum", "profit")])
        assert _cell(c, time=ALL, loc=ALL)["sum_profit"] == pytest.approx(10.0)

    def test_partial_rollup_values(self, facts):
        c = cube(facts, ["time", "loc"], [AggregateSpec("sum", "profit")])
        assert _cell(c, time="t2", loc=ALL)["sum_profit"] == pytest.approx(7.0)
        assert _cell(c, time=ALL, loc="WI")["sum_profit"] == pytest.approx(8.0)

    def test_avg_rolls_up_correctly(self, facts):
        c = cube(facts, ["loc"], [AggregateSpec("avg", "profit")])
        assert _cell(c, loc="WI")["avg_profit"] == pytest.approx(8.0 / 3)
        assert _cell(c, loc=ALL)["avg_profit"] == pytest.approx(2.5)

    def test_min_max_rollup(self, facts):
        c = cube(facts, ["time"], [AggregateSpec("min", "profit"), AggregateSpec("max", "profit")])
        top = _cell(c, time=ALL)
        assert top["min_profit"] == 1.0
        assert top["max_profit"] == 4.0

    def test_include_dims_subset(self, facts):
        c = cube(
            facts,
            ["time", "loc"],
            [AggregateSpec("sum", "profit")],
            include_dims=[("time",)],
        )
        assert set(c["loc"]) == {ALL}
        assert c.n_rows == 2

    def test_include_dims_unknown_rejected(self, facts):
        with pytest.raises(AggregateError):
            cube(facts, ["time"], [AggregateSpec("sum", "profit")], include_dims=[("bogus",)])

    def test_matches_direct_groupby(self, facts):
        """Rolled-up cells merged from base cells == recomputed from raw rows."""
        from repro.table import group_by

        c = cube(facts, ["time", "loc"], [AggregateSpec("sum", "profit")])
        direct = group_by(facts, ["time"], [AggregateSpec("sum", "profit")])
        for t, s in zip(direct["time"], direct["sum_profit"]):
            assert _cell(c, time=str(t), loc=ALL)["sum_profit"] == pytest.approx(s)

    def test_holistic_aggregate_falls_back(self, facts):
        c = cube(facts, ["loc"], [AggregateSpec("count_distinct", "item", alias="n")])
        assert _cell(c, loc=ALL)["n"] == 3
        assert _cell(c, loc="WI")["n"] == 2


class TestRollup:
    def test_prefix_groupings_only(self, facts):
        r = rollup(facts, ["time", "loc"], [AggregateSpec("sum", "profit")])
        # (time,loc): 3 cells, (time): 2, (): 1 -> 6; never loc without time
        assert r.n_rows == 6
        loc_only = (np.asarray([t == ALL for t in r["time"]])
                    & np.asarray([l != ALL for l in r["loc"]]))
        assert not loc_only.any()
