"""g(S) is one Gram matrix of laid rows, and every kernel takes it the same way.

* ``from_rows(design_rows(x, y), w)`` is ``from_data(add_intercept(x), y, w)``
  bit for bit;
* every component a kernel returns — ``from_rows``, ``from_segments``,
  ``from_bins`` — is C-contiguous, and a stacked problem's ``sse()`` equals
  its scalar ``row(i).sse()`` bit for bit (a strided ``X'WY`` takes another
  row-dot than the scalar ``xtwy @ beta``);
* an exact fit — a target that is a linear function of the design — reads
  ``0.0`` on the scalar and the stacked path alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    FitError,
    LinearSuffStats,
    StackedSuffStats,
    TrainingSetEstimator,
    add_intercept,
    design_rows,
)

_COMPONENTS = ("ytwy", "xtwx", "xtwy", "n", "sum_w")


@st.composite
def laid_blocks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    p = draw(st.integers(1, 8))
    n = draw(st.integers(p + 2, 300))
    x = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-2, 3, size=p)
    y = x @ rng.normal(size=p) + rng.normal(size=n) * 10.0 ** int(rng.integers(-1, 4))
    w = rng.uniform(0.25, 4.0, size=n) if draw(st.booleans()) else None
    return design_rows(x, y), w, rng


def _contiguous(stats):
    return all(
        np.asarray(getattr(stats, name)).flags.c_contiguous
        for name in ("xtwx", "xtwy")
    )


def _assert_scalar_sse_matches(stack):
    sse = stack.sse()
    for i in range(len(stack)):
        assert float(sse[i]).hex() == stack.row(i).sse().hex(), i


@given(laid_blocks())
@settings(max_examples=60, deadline=None)
def test_every_kernel_returns_contiguous_components(block):
    a, w, rng = block
    n = len(a)
    one = LinearSuffStats.from_rows(a, w)
    assert _contiguous(one)
    cuts = np.sort(rng.integers(0, n + 1, size=3))
    bounds = np.concatenate([[0], cuts, [n]])
    segments = StackedSuffStats.from_segments(a, w, bounds)
    codes = rng.integers(0, 3, size=(1, n)).astype(np.uint8)
    bins = StackedSuffStats.from_bins(a, w, codes, 3)
    for stack in (segments, bins):
        assert all(getattr(stack, name).flags.c_contiguous for name in _COMPONENTS)
        solvable = stack.select(np.flatnonzero(stack.n > stack.p))
        _assert_scalar_sse_matches(solvable)


@given(laid_blocks())
@settings(max_examples=40, deadline=None)
def test_from_rows_is_from_data_of_the_same_rows(block):
    a, w, __ = block
    got = LinearSuffStats.from_rows(a, w)
    want = LinearSuffStats.from_data(a[:, :-1], a[:, -1], w)
    for name in _COMPONENTS:
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(
            getattr(want, name)
        ).tobytes(), name


def test_design_rows_lays_intercept_design_and_target():
    x = np.arange(6.0).reshape(3, 2)
    y = np.array([7.0, 8.0, 9.0])
    a = design_rows(x, y)
    assert a.flags.c_contiguous
    assert np.array_equal(a, np.column_stack([add_intercept(x), y]))
    with pytest.raises(FitError):
        design_rows(x, y[:2])
    with pytest.raises(FitError):
        LinearSuffStats.from_rows(a, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(FitError):
        LinearSuffStats.from_rows(np.zeros(3))


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_an_exact_fit_reads_zero_on_every_path(weighted):
    """A region whose feature is the target: Y'WY − β'X'WY is cancellation
    noise of either sign, never an error."""
    rng = np.random.default_rng(7)
    n = 200
    feature = rng.normal(loc=5_000.0, scale=800.0, size=n)
    x = np.column_stack([feature, rng.normal(size=n)])
    y = 3.0 * feature - 11.0
    w = rng.uniform(0.5, 2.0, size=n) if weighted else None
    a = design_rows(x, y)
    one = LinearSuffStats.from_rows(a, w)
    assert one.sse() == 0.0 and one.rmse() == 0.0
    stack = StackedSuffStats.from_segments(a, w, np.array([0, 70, 140, n]))
    rmse, sse, __ = stack.training_errors()
    assert sse.tolist() == [0.0, 0.0, 0.0] and rmse.tolist() == [0.0, 0.0, 0.0]
    assert TrainingSetEstimator().estimate(x, y, w).rmse == 0.0
    # a genuine fit keeps its error
    noisy = design_rows(x, y + rng.normal(scale=1.0, size=n))
    assert LinearSuffStats.from_rows(noisy, w).sse() > 0.0
