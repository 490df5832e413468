"""Property-based tests for the suffstats *delta* algebra.

Algebraic facts beyond Theorem 1's merge: scalar retraction inverts merge
(``(s + d) - d == s``), merge order never changes the answer beyond float
associativity, and the stacked rollup is the same sum the scalar path
computes.  Seeded-random generators cover the well-conditioned case and
near-/exactly-singular blocks (duplicated columns), where the pinv fallback
must stay consistent between the scalar and stacked solvers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import LinearSuffStats, StackedSuffStats, add_intercept


@st.composite
def blocks(draw, singular_allowed=True):
    """One weighted design block; sometimes (near-)singular by construction."""
    n = draw(st.integers(4, 30))
    p = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    if singular_allowed and p >= 2 and draw(st.booleans()):
        # Duplicate a column (exactly singular) or almost duplicate it
        # (near-singular): the conditioning regimes the solver must survive.
        jitter = 0.0 if draw(st.booleans()) else 1e-9
        x[:, 1] = x[:, 0] * (1.0 + jitter)
    x = add_intercept(x)
    y = x @ rng.normal(size=p + 1) + rng.normal(scale=0.5, size=n)
    w = rng.uniform(0.5, 2.0, size=n)
    return x, y, w


def _cell_stack(x, y, w, cells, n_cells) -> StackedSuffStats:
    """One problem per cell, each from ``from_data`` over the cell's rows."""
    return StackedSuffStats.from_stats(
        [
            LinearSuffStats.from_data(x[cells == c], y[cells == c], w[cells == c])
            for c in range(n_cells)
        ]
    )


def _assert_stats_close(a: LinearSuffStats, b: LinearSuffStats) -> None:
    assert a.n == b.n
    assert np.isclose(a.sum_w, b.sum_w, rtol=1e-9)
    assert np.isclose(a.ytwy, b.ytwy, rtol=1e-9, atol=1e-9)
    assert np.allclose(a.xtwx, b.xtwx, rtol=1e-9, atol=1e-9)
    assert np.allclose(a.xtwy, b.xtwy, rtol=1e-9, atol=1e-9)


@given(blocks(), st.data())
@settings(max_examples=60, deadline=None)
def test_merge_retract_round_trip(block, data):
    """(s + d) - d recovers s: retraction inverts merge."""
    x, y, w = block
    cut = data.draw(st.integers(1, len(y) - 1))
    s = LinearSuffStats.from_data(x[:cut], y[:cut], w[:cut])
    d = LinearSuffStats.from_data(x[cut:], y[cut:], w[cut:])
    back = (s + d) - d
    _assert_stats_close(back, s)


@given(blocks())
@settings(max_examples=60, deadline=None)
def test_merge_commutes_bitwise(block):
    """a + b and b + a are the *same bits*: float addition commutes."""
    x, y, w = block
    half = len(y) // 2
    a = LinearSuffStats.from_data(x[:half], y[:half], w[:half])
    b = LinearSuffStats.from_data(x[half:], y[half:], w[half:])
    ab, ba = a + b, b + a
    assert ab.ytwy == ba.ytwy
    assert np.array_equal(ab.xtwx, ba.xtwx)
    assert np.array_equal(ab.xtwy, ba.xtwy)
    assert (ab.n, ab.sum_w) == (ba.n, ba.sum_w)


@given(blocks())
@settings(max_examples=60, deadline=None)
def test_merge_associates_to_tolerance(block):
    x, y, w = block
    third = max(len(y) // 3, 1)
    a = LinearSuffStats.from_data(x[:third], y[:third], w[:third])
    b = LinearSuffStats.from_data(x[third:2 * third], y[third:2 * third], w[third:2 * third])
    c = LinearSuffStats.from_data(x[2 * third:], y[2 * third:], w[2 * third:])
    _assert_stats_close((a + b) + c, a + (b + c))


@given(blocks(), st.data())
@settings(max_examples=60, deadline=None)
def test_rollup_matches_scalar_sums(block, data):
    """StackedSuffStats.rollup == the dict-of-``+`` rollup, per target."""
    x, y, w = block
    n_cells = data.draw(st.integers(2, 6))
    n_out = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, n_cells, size=len(y))
    target = rng.integers(0, n_out, size=n_cells)
    stack = _cell_stack(x, y, w, cells, n_cells)
    rolled = stack.rollup(target, n_out)
    for out in range(n_out):
        expected = LinearSuffStats.zeros(x.shape[1])
        for cell in np.flatnonzero(target == out):
            expected = expected + stack.row(cell)
        got = rolled.row(out)
        assert got.n == expected.n
        assert np.allclose(got.xtwx, expected.xtwx, rtol=1e-9, atol=1e-12)
        assert np.allclose(got.xtwy, expected.xtwy, rtol=1e-9, atol=1e-12)
        assert np.isclose(got.ytwy, expected.ytwy, rtol=1e-9, atol=1e-12)


@given(blocks(), st.data())
@settings(max_examples=40, deadline=None)
def test_rollup_consistent_with_per_row_stats(block, data):
    """Rolling every row up as its own problem reproduces from_data."""
    x, y, w = block
    n = len(y)
    per_row = _cell_stack(x, y, w, np.arange(n), n)
    rolled = per_row.rollup(np.zeros(n, dtype=np.int64), 1).row(0)
    whole = LinearSuffStats.from_data(x, y, w)
    _assert_stats_close(rolled, whole)


@given(blocks())
@settings(max_examples=60, deadline=None)
def test_stacked_solve_matches_scalar_even_when_singular(block):
    """Per-problem solutions are identical bits, pinv fallback included."""
    x, y, w = block
    half = len(y) // 2
    stats = [
        LinearSuffStats.from_data(x[:half], y[:half], w[:half]),
        LinearSuffStats.from_data(x[half:], y[half:], w[half:]),
        LinearSuffStats.from_data(x, y, w),
    ]
    stack = StackedSuffStats.from_stats(stats)
    batched = stack.solve()
    for i, s in enumerate(stats):
        assert np.array_equal(batched[i], s.solve())
    assert np.array_equal(stack.sse(), np.array([s.sse() for s in stats]))


@given(blocks(), st.data())
@settings(max_examples=40, deadline=None)
def test_assign_writes_exactly_its_rows(block, data):
    """assign() writes the other stack's rows at ``idx``, bit for bit, and
    leaves every other row's components as they were."""
    x, y, w = block
    n_cells = data.draw(st.integers(2, 5))
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, n_cells, size=len(y))
    stack = _cell_stack(x, y, w, cells, n_cells)
    original = stack.copy()
    idx = np.unique(rng.integers(0, n_cells, size=2))
    replacement = StackedSuffStats.from_stats(
        [LinearSuffStats.from_data(x, y * 2.0, w) for __ in idx]
    )
    stack.assign(idx, replacement)
    untouched = np.setdiff1d(np.arange(n_cells), idx)
    for name in ("ytwy", "xtwx", "xtwy", "n", "sum_w"):
        got = getattr(stack, name)
        assert got[idx].tobytes() == getattr(replacement, name).tobytes(), name
        assert got[untouched].tobytes() == getattr(original, name)[untouched].tobytes()
    # copy() isolated the snapshot from the in-place writes.
    assert original.n.sum() == int(len(y))
