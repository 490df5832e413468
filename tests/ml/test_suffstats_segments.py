"""StackedSuffStats.from_segments is from_data per segment — the same bits.

Problem ``k`` of ``from_segments(a, w, bounds)`` over the laid rows
``a = [x | y]`` must equal ``LinearSuffStats.from_data`` of rows
``bounds[k]:bounds[k + 1]`` in every component's ``.hex()``: weighted and
unweighted blocks, ``p = 1``, single-row segments, and empty segments first,
in the middle and last (exact zeros, ``n = 0``).  The block is validated as
``from_data`` would validate it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import FitError, LinearSuffStats, StackedSuffStats


@st.composite
def segmented_blocks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    p = draw(st.integers(1, 9))
    sizes = draw(
        st.lists(
            # empty and single-row segments are as likely as ordinary ones
            st.one_of(st.just(0), st.just(1), st.integers(2, 120)),
            min_size=0,
            max_size=12,
        )
    )
    n = sum(sizes)
    x = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=p)
    if p > 1:
        x[:, 0] = 1.0  # the intercept column every caller has
    y = rng.normal(size=n) * 10.0 ** int(rng.integers(-2, 5))
    w = rng.uniform(0.25, 4.0, size=n) if draw(st.booleans()) else None
    bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
    return x, y, w, bounds


def _bits(ytwy, xtwx, xtwy, n, sum_w):
    return (
        float(ytwy).hex(),
        [v.hex() for v in np.asarray(xtwx, dtype=float).ravel().tolist()],
        [v.hex() for v in np.asarray(xtwy, dtype=float).ravel().tolist()],
        int(n),
        float(sum_w).hex(),
    )


def _laid(x, y):
    return np.column_stack([x, y])


def _assert_equals_from_data(x, y, w, bounds):
    stack = StackedSuffStats.from_segments(_laid(x, y), w, bounds)
    assert len(stack) == len(bounds) - 1
    assert stack.p == x.shape[1]
    for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        got = stack.row(k)
        if a == b:
            want = LinearSuffStats.zeros(x.shape[1])
        else:
            # a fresh copy of the rows, as a caller's fancy index would make
            rows = np.arange(a, b)
            want = LinearSuffStats.from_data(
                x[rows], y[rows], None if w is None else w[rows]
            )
        assert _bits(got.ytwy, got.xtwx, got.xtwy, got.n, got.sum_w) == _bits(
            want.ytwy, want.xtwx, want.xtwy, want.n, want.sum_w
        ), (k, a, b)


@given(segmented_blocks())
@settings(max_examples=150, deadline=None)
def test_every_segment_has_from_data_bits(block):
    _assert_equals_from_data(*block)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize(
    "sizes",
    [
        [0, 7, 3],
        [7, 0, 3],
        [7, 3, 0],
        [0, 0, 5, 0, 0],
        [1, 1, 1],
        [0],
        [],
    ],
    ids=["empty-first", "empty-middle", "empty-last", "mostly-empty",
         "single-rows", "only-empty", "no-segments"],
)
@pytest.mark.parametrize("p", [1, 4])
def test_empty_and_single_row_segments(sizes, weighted, p):
    rng = np.random.default_rng(len(sizes) * 10 + p)
    n = sum(sizes)
    x = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    w = rng.uniform(0.5, 2.0, size=n) if weighted else None
    bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
    _assert_equals_from_data(x, y, w, bounds)
    stack = StackedSuffStats.from_segments(_laid(x, y), w, bounds)
    for k, size in enumerate(sizes):
        if size == 0:
            assert stack.n[k] == 0 and stack.sum_w[k] == 0.0
            assert stack.ytwy[k] == 0.0
            assert not stack.xtwx[k].any() and not stack.xtwy[k].any()


def test_segments_need_not_cover_the_block():
    """Rows outside every segment belong to no problem."""
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(20, 3)), rng.normal(size=20)
    stack = StackedSuffStats.from_segments(_laid(x, y), None, np.array([4, 9, 9, 15]))
    for k, (a, b) in enumerate([(4, 9), (9, 9), (9, 15)]):
        want = (
            LinearSuffStats.from_data(x[a:b].copy(), y[a:b].copy())
            if b > a
            else LinearSuffStats.zeros(3)
        )
        got = stack.row(k)
        assert _bits(got.ytwy, got.xtwx, got.xtwy, got.n, got.sum_w) == _bits(
            want.ytwy, want.xtwx, want.xtwy, want.n, want.sum_w
        )


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_non_positive_weights_raise_as_from_data_does(bad):
    x, y = np.ones((4, 2)), np.ones(4)
    w = np.array([1.0, bad, 1.0, 1.0])
    with pytest.raises(FitError) as scalar:
        LinearSuffStats.from_data(x, y, w)
    with pytest.raises(FitError) as stacked:
        StackedSuffStats.from_segments(_laid(x, y), w, np.array([0, 2, 4]))
    assert str(stacked.value) == str(scalar.value)


def test_malformed_blocks_raise():
    with pytest.raises(FitError):
        StackedSuffStats.from_segments(np.zeros(3), None, [0, 3])
    with pytest.raises(FitError):
        StackedSuffStats.from_segments(np.zeros((3, 0)), None, [0, 3])
    with pytest.raises(FitError):
        StackedSuffStats.from_segments(np.zeros((3, 3)), np.ones(4), [0, 3])
    with pytest.raises(FitError):
        StackedSuffStats.from_segments(np.zeros((3, 3)), None, [0, 2, 1])
    with pytest.raises(FitError):
        StackedSuffStats.from_segments(np.zeros((3, 3)), None, [0, 4])
