"""RowIndex.locate: one lookup for "is it indexed" and "where"."""

import numpy as np
import pytest

from repro.core.rowindex import RowIndex
from repro.storage import RegionBlock

CASES = {
    "unsorted": np.array([40, 10, 30, 20]),
    "duplicates": np.array([7, 3, 7, 5, 3]),  # the first occurrence answers
    "strings": np.array(["b", "a", "c"]),
    "unorderable": np.array([3, "x", (1, 2)], dtype=object),  # dict fallback
    "empty": np.array([], dtype=np.int64),
}


@pytest.mark.parametrize("ids", CASES.values(), ids=CASES.keys())
def test_locate_is_the_first_position_or_len(ids):
    index = RowIndex(ids)
    strangers = np.array([-1, 99], dtype=object if ids.dtype == object else None)
    if ids.dtype.kind == "U":
        strangers = np.array(["", "zz"])
    wanted = np.concatenate([ids[::-1], strangers, ids])
    want = [
        next((k for k, have in enumerate(ids.tolist()) if have == w), len(ids))
        for w in wanted.tolist()
    ]
    at = index.locate(wanted)
    assert at.dtype == np.int64 and at.tolist() == want
    assert index.contains(wanted).tolist() == [k < len(ids) for k in want]
    assert index.rows_of(ids).tolist() == want[len(ids) + 2:]
    with pytest.raises(KeyError, match="unknown item id"):
        index.rows_of(wanted)


def test_restrict_is_restrict_to_plus_positions():
    index = RowIndex(np.array([5, 1, 9]))
    rng = np.random.default_rng(0)
    ids = np.array([9, 2, 5, 5, 7, 1])
    block = RegionBlock(ids, rng.normal(size=(6, 2)), rng.normal(size=6), rng.uniform(1, 2, 6))
    sub, at = index.restrict(block)
    want = block.restrict_to(index.ids)
    assert at.tolist() == [2, 0, 0, 1]
    for name in ("item_ids", "x", "y", "weights"):
        assert getattr(sub, name).tobytes() == getattr(want, name).tobytes()
    # nothing to drop: the block itself, not a copy
    whole, at = RowIndex(np.arange(10)).restrict(block)
    assert whole is block and at.tolist() == ids.tolist()
