"""StackedSuffStats.rollup is the scatter-add written out — the same bits.

``rollup(target, n_out)`` takes its sums in rank rounds (one vectorised
``out[t] += src`` per round).  Every output must equal, byte for byte,

(a) the scalar loop ``out[target[i]] = out[target[i]] + src[i]`` over the
    inputs in input order, which is the definition, and
(b) ``np.add.at``, which is what the rollup used to call,

whatever the map: unsorted, repeated and missing targets, ``n_out`` beyond
any target, no input at all — and whatever the addends: ``-0.0`` (a sum
that starts at ``+0.0`` never returns it), ``inf`` (``inf - inf`` is NaN in
one order only) and subnormals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import FitError, StackedSuffStats

COMPONENTS = ("ytwy", "xtwx", "xtwy", "n", "sum_w")

#: Addends whose sum depends on the order and the association it is taken in.
AWKWARD = np.array(
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-308, 1e308, -1e308, 1.0, 1e-16]
)


def _values(rng, draw, shape) -> np.ndarray:
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    if draw(st.booleans()):
        awkward = rng.random(size=shape) < 0.4
        values[awkward] = rng.choice(AWKWARD, size=int(awkward.sum()))
    return values


@st.composite
def rollups(draw):
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    n_in = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 60)))
    p = draw(st.integers(1, 4))
    n_out = draw(st.integers(1, 24))
    # few distinct targets = many addends each; np.sort makes the monotone
    # map a lattice level is, the rest stay in whatever order they fell
    target = rng.integers(0, draw(st.integers(1, n_out)), size=n_in)
    if draw(st.booleans()):
        target = np.sort(target)
    stack = StackedSuffStats(
        ytwy=_values(rng, draw, n_in),
        xtwx=_values(rng, draw, (n_in, p, p)),
        xtwy=_values(rng, draw, (n_in, p)),
        n=rng.integers(0, 1_000, size=n_in),
        sum_w=_values(rng, draw, n_in),
    )
    return stack, target, n_out


def _scalar_loop(stack, target, n_out):
    out = StackedSuffStats.zeros(n_out, stack.p)
    for i, t in enumerate(target.tolist()):
        for name in COMPONENTS:
            sums = getattr(out, name)
            sums[t] = sums[t] + getattr(stack, name)[i]
    return out


def _add_at(stack, target, n_out):
    out = StackedSuffStats.zeros(n_out, stack.p)
    for name in COMPONENTS:
        np.add.at(getattr(out, name), target, getattr(stack, name))
    return out


def _assert_same_bytes(got, want):
    for name in COMPONENTS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@given(rollups())
@settings(max_examples=200, deadline=None)
def test_rollup_has_the_scalar_loops_and_add_ats_bytes(case):
    stack, target, n_out = case
    with np.errstate(invalid="ignore", over="ignore"):
        got = stack.rollup(target, n_out)
        _assert_same_bytes(got, _scalar_loop(stack, target, n_out))
        _assert_same_bytes(got, _add_at(stack, target, n_out))


def test_a_negative_zero_addend_lands_on_positive_zero():
    stack = StackedSuffStats.zeros(2, 1)
    stack.ytwy[:] = -0.0
    rolled = stack.rollup(np.array([1, 1]), 3)
    assert np.signbit(rolled.ytwy).tolist() == [False, False, False]


def test_input_order_decides_between_inf_and_nan():
    """``1e308 - inf + 1e308`` is -inf taken left to right and NaN had the
    two finite addends met first (they overflow to +inf): the rounds keep
    each output's addends in input order."""
    stack = StackedSuffStats.zeros(4, 1)
    stack.ytwy[:] = [1e308, 7.0, -np.inf, 1e308]
    with np.errstate(invalid="ignore", over="ignore"):
        rolled = stack.rollup(np.array([0, 1, 0, 0]), 2)
    assert rolled.ytwy.tolist() == [-np.inf, 7.0]


def test_empty_input_is_all_zeros():
    rolled = StackedSuffStats.zeros(0, 3).rollup(np.zeros(0, dtype=np.int64), 5)
    _assert_same_bytes(rolled, StackedSuffStats.zeros(5, 3))


@pytest.mark.parametrize(
    "target, n_out",
    [([0, 1], 3), ([0, 1, 3], 3), ([0, -1, 2], 3), ([[0, 1, 2]], 3)],
    ids=["too-few", "beyond-n_out", "negative", "wrong-shape"],
)
def test_a_target_that_names_no_output_is_refused(target, n_out):
    with pytest.raises(FitError, match="rollup target"):
        StackedSuffStats.zeros(3, 2).rollup(np.array(target), n_out)
