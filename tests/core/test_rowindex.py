"""RowIndex.locate: one lookup for "is it indexed" and "where"."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.rowindex as rowindex
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


# ---------------------------------------------------------------- the table path

_INT_DTYPES = (np.int64, np.int32, np.int16, np.uint8, np.uint32, np.uint64)


def _sorted_index(ids: np.ndarray) -> RowIndex:
    """The same index with the direct table turned off: the sorted path."""
    with mock.patch.object(rowindex, "_position_table", lambda ids: None):
        return RowIndex(ids)


@st.composite
def _int_arrays(draw, dense: bool):
    dtype = np.dtype(draw(st.sampled_from(_INT_DTYPES)))
    info = np.iinfo(dtype)
    if dense:  # small non-negative ids, duplicates likely: the table's domain
        values = st.integers(0, min(int(info.max), 60))
    else:  # anything the dtype holds: negatives, huge, sparse
        values = st.one_of(
            st.integers(int(info.min), int(info.max)),
            st.integers(max(int(info.min), -3), min(int(info.max), 40)),
        )
    return np.array(draw(st.lists(values, max_size=40)), dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(
    ids=st.one_of(_int_arrays(dense=True), _int_arrays(dense=False)),
    wanted=st.one_of(_int_arrays(dense=True), _int_arrays(dense=False)),
)
def test_table_path_is_the_sorted_path(ids, wanted):
    """Duplicates (first occurrence wins), negatives, out-of-range and huge
    ``uint64`` ids, narrow ``wanted`` dtypes and empty arrays: the one
    gather answers what the binary search answers, position for position."""
    index, reference = RowIndex(ids), _sorted_index(ids)
    assert reference._table is None
    # the indexed ids in wanted's dtype (wrapped where it is narrower)
    wanted_again = np.concatenate([ids.astype(wanted.dtype), wanted])
    for w in (wanted, wanted_again, ids):
        got = index.locate(w)
        assert got.dtype == np.int64
        assert got.tolist() == reference.locate(w).tolist()
    if index._table is not None:
        first = {}
        for k, i in enumerate(ids.tolist()):
            first.setdefault(i, k)
        want = [first.get(i, len(ids)) for i in wanted.tolist()]
        assert index.locate(wanted).tolist() == want
        assert index.rows_of(ids).tolist() == [first[i] for i in ids.tolist()]


@pytest.mark.parametrize(
    "ids, tabled",
    [
        (np.array([4, 0, 2, 2], dtype=np.uint8), True),
        (np.arange(2500)[::-1], True),
        (np.array([0, 4 * 2 + 1023]), True),  # the last id the bound admits
        (np.array([0, 4 * 2 + 1024]), False),  # sparse: one past it
        (np.array([-1, 2]), False),
        (np.array([2**63 + 5, 1], dtype=np.uint64), False),
        (np.array([], dtype=np.int64), False),
        (np.array([1.0, 2.0]), False),
        (np.array(["a", "b"]), False),
    ],
)
def test_which_id_sets_get_a_table(ids, tabled):
    index = RowIndex(ids)
    assert (index._table is not None) == tabled
    assert index.locate(ids).tolist() == _sorted_index(ids).locate(ids).tolist()


def test_table_index_answers_non_integer_wanted():
    """Float ids asked of an integer index fall back to the sorted path."""
    index = RowIndex(np.array([7, 3, 7, 5]))
    assert index._table is not None
    assert index.locate(np.array([3.0, 7.0, 4.5, -1.0])).tolist() == [1, 0, 4, 4]
    assert index.locate(np.array([], dtype=np.float64)).tolist() == []


# --------------------------------------- mixed signedness above 2**53

_BIG = 2**53


def test_uint64_lookup_of_int64_ids_above_2_53_is_exact():
    """numpy compares int64 with uint64 as float64; the lookup must not."""
    index = RowIndex(np.array([2**62, 2**62 + 1]))
    assert index._table is None
    assert index.locate(np.array([2**62 + 1], dtype=np.uint64)).tolist() == [1]


@st.composite
def _mixed_big(draw):
    """Ids around and above 2**53 of one signedness, asked in the other,
    with values only the asking dtype holds (absent by construction)."""
    common = st.one_of(
        st.integers(_BIG - 8, _BIG + 8),  # neighbours float64 cannot tell apart
        st.integers(_BIG, 2**63 - 1),
        st.integers(0, 40),
    )
    negative, above = st.integers(-(2**63), -1), st.integers(2**63, 2**64 - 1)
    signed = draw(st.booleans())
    own, only_asked = (negative, above) if signed else (above, negative)
    ids = draw(st.lists(st.one_of(common, own), max_size=30))
    asked = draw(
        st.lists(st.one_of(st.sampled_from(ids or [0]), common, only_asked), max_size=30)
    )
    kinds = (np.int64, np.uint64) if signed else (np.uint64, np.int64)
    # an indexed id the asking dtype cannot hold cannot be asked for
    info = np.iinfo(kinds[1])
    asked = [v for v in asked if info.min <= v <= info.max]
    return np.array(ids, dtype=kinds[0]), np.array(asked, dtype=kinds[1])


@settings(max_examples=300, deadline=None)
@given(_mixed_big())
def test_mixed_signedness_above_2_53_locates_exactly(case):
    """Signed ids asked with ``uint64`` values and ``uint64`` ids asked with
    signed ones, around and far above 2**53: every position is the first
    occurrence of the same integer, on the sorted path as on the table."""
    ids, wanted = case
    first = {}
    for k, i in enumerate(ids.tolist()):
        first.setdefault(i, k)
    want = [first.get(i, len(ids)) for i in wanted.tolist()]
    for index in (RowIndex(ids), _sorted_index(ids)):
        got = index.locate(wanted)
        assert got.dtype == np.int64 and got.tolist() == want
