"""``RegionProfile.select`` is the one winner rule: ``min()`` over the feasible.

The reference below is written out as selection ran over a list of
``RegionResult``s before profiles were columns: keep the regions the
criterion admits, in order, then ``min(feasible, key=objective)``.  Its
first value seeds the minimum unconditionally, so a NaN seed never loses;
a later NaN never wins; a tie goes to the earlier region.  Both criteria
and every corner: NaN seeds and later NaNs, ±inf, 0.0 / -0.0, exact ties,
no budget, a NaN cost, and nobody feasible.  The scalar ``admits`` /
``objective`` the batch paths call one region at a time must agree with the
arrays elementwise.  ``winner`` reads the same pick off a by-cost table,
at every budget.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Criterion, LinearCriterion
from repro.core.basic import RegionProfile, RegionResult, select_bellwether
from repro.dimensions import Region
from repro.ml import ErrorEstimate

NAN, INF = float("nan"), float("inf")

# A few values drawn often make ties, signed zeros and non-finite seeds
# common; arbitrary floats cover the rest.
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, NAN, INF, -INF]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_coverages = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, NAN]), st.floats(0, 1))
_criteria = st.one_of(
    st.builds(
        Criterion,
        budget=st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5, INF]), st.floats(-10, 10)),
        min_coverage=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    ),
    st.builds(
        LinearCriterion,
        w_cost=st.sampled_from([0.0, 0.5, 2.0]),
        w_coverage=st.sampled_from([0.0, 1.0, 3.0]),
    ),
)


def _results(rows) -> list[RegionResult]:
    return [
        RegionResult(
            region=Region((f"r{k}",)),
            cost=cost,
            coverage=coverage,
            n_items=k + 1,
            error=ErrorEstimate(rmse=rmse, kind="training", sse=rmse, dof=k + 1),
        )
        for k, (cost, coverage, rmse) in enumerate(rows)
    ]


def _admitted(criterion, cost, coverage) -> bool:
    """The scalar rule as written before arrays: over budget is out."""
    if isinstance(criterion, LinearCriterion):
        return True
    if criterion.budget is not None and cost > criterion.budget:
        return False
    return coverage >= criterion.min_coverage


def _objective(criterion, r) -> float:
    if isinstance(criterion, LinearCriterion):
        return r.rmse + criterion.w_cost * r.cost - criterion.w_coverage * r.coverage
    return r.rmse


def _reference(results, criterion) -> tuple[int | None, list[int]]:
    feasible = [
        k for k, r in enumerate(results) if _admitted(criterion, r.cost, r.coverage)
    ]
    if not feasible:
        return None, feasible
    return min(feasible, key=lambda k: _objective(criterion, results[k])), feasible


@given(st.lists(st.tuples(_values, _coverages, _values), max_size=12), _criteria)
@example([(0.0, 1.0, NAN), (0.0, 1.0, 0.5), (0.0, 1.0, -INF)], Criterion())
@example([(0.0, 1.0, 1.0), (0.0, 1.0, NAN), (0.0, 1.0, 0.5)], Criterion())
@example([(0.0, 1.0, 0.0), (0.0, 1.0, -0.0), (0.0, 1.0, -0.0)], Criterion())
@example([(1.0, 1.0, INF), (2.0, 1.0, INF), (1.0, 1.0, -INF)], Criterion(budget=1.0))
@example([(5.0, 1.0, 0.5), (NAN, 1.0, 1.0)], Criterion(budget=2.5))
@example([(5.0, 1.0, 0.5), (3.0, 0.0, 1.0)], Criterion(budget=2.5, min_coverage=0.5))
@example([(INF, 0.0, 1.0), (0.0, 1.0, 2.0)], LinearCriterion(w_cost=0.0, w_coverage=1.0))
@example([(1.0, 0.5, 1.0), (0.0, 0.0, 1.5), (2.0, 1.0, 2.0)], LinearCriterion(0.5, 1.0))
@settings(max_examples=400, deadline=None)
# numpy warns where Python floats are silent (0 * inf, an overflow): the
# values are the same, and the warning is not what is under test
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_select_is_min_over_the_feasible(rows, criterion):
    results = _results(rows)
    want_best, want_feasible = _reference(results, criterion)
    profile = RegionProfile.of(results)
    best, feasible = profile.select(criterion)
    assert feasible.tolist() == want_feasible
    assert best == want_best
    if best is not None:
        assert profile.region(best) == results[best].region
    # the list API picks by the same rule and hands back the same objects
    picked = select_bellwether(results, criterion)
    assert picked.bellwether is (None if best is None else results[best])
    assert all(a is results[k] for a, k in zip(picked.feasible, want_feasible))
    assert len(picked.feasible) == len(want_feasible)
    # one region at a time, as the batch paths call them, the same answers
    mask = criterion.admits(profile.cost, profile.coverage)
    objective = criterion.objective(profile.rmse, profile.cost, profile.coverage)
    for k, r in enumerate(results):
        assert bool(criterion.admits(r.cost, r.coverage)) == bool(mask[k])
        one = criterion.objective(r.rmse, r.cost, r.coverage)
        assert math.isnan(one) and math.isnan(objective[k]) or one == objective[k]


def test_of_keeps_every_field_and_indexes_a_shared_region_list():
    results = _results([(1.0, 0.5, 0.25), (2.0, 1.0, 0.125)])
    regions = (Region(("r9",)), results[1].region, results[0].region)
    profile = RegionProfile.of(results, regions)
    assert profile.regions is regions
    assert profile.at.tolist() == [2, 1]
    assert [profile.region(k) for k in range(2)] == [r.region for r in results]
    assert profile.cost.tolist() == [1.0, 2.0]
    assert profile.coverage.tolist() == [0.5, 1.0]
    assert profile.n_items.tolist() == [1, 2]
    assert profile.rmse.tolist() == profile.sse.tolist() == [0.25, 0.125]
    assert profile.dof.tolist() == [1, 2]
    # an estimate without a residual sum of squares (cross-validated) reads NaN
    cv = RegionResult(Region(("cv",)), 0.0, 1.0, 3, ErrorEstimate(1.5, kind="cv"))
    assert math.isnan(RegionProfile.of([cv]).sse[0])
    empty = RegionProfile.of([], regions)
    assert len(empty) == 0 and empty.select(Criterion())[0] is None


# Costs and rmse from small pools make cost ties, rmse ties, NaN costs and
# NaN-rmse seeds common.
_costs = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 2.5, NAN, INF]), st.floats(-5, 5))
_rmses = st.one_of(st.sampled_from([0.0, 0.5, 0.5, 1.0, NAN, INF]), st.floats(0, 5))


@given(
    st.lists(st.tuples(_costs, _coverages, _rmses), max_size=12),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=3),
)
@example([(NAN, 1.0, NAN), (0.0, 1.0, 0.5)], [0.0])
@example([(1.0, 1.0, 0.5), (1.0, 1.0, 0.5), (0.0, 1.0, NAN)], [0.0])
@example([(2.5, 1.0, 1.0), (NAN, 0.0, 0.0), (1.0, 0.5, 1.0)], [0.5, 0.0])
@example([(INF, 1.0, 0.0), (-INF, 1.0, 1.0)], [0.0])
@example([], [0.0])
@settings(max_examples=300, deadline=None)
def test_winner_is_select_at_and_beside_every_breakpoint(rows, min_coverages):
    """The by-cost lookup equals ``select()`` at every cost, one ulp either
    side of it, with no budget and with a NaN budget — for each coverage
    bound asked of the same profile, whose tables are kept per bound."""
    profile = RegionProfile.of(_results(rows))
    costs = [c for c, __, __ in rows if not math.isnan(c)]
    budgets = {None, NAN, -INF, INF}
    for c in costs:
        budgets |= {c, float(np.nextafter(c, -INF)), float(np.nextafter(c, INF))}
    for min_coverage in min_coverages:
        for budget in budgets:
            criterion = Criterion(budget=budget, min_coverage=min_coverage)
            best, feasible = profile.select(criterion)
            assert profile.winner(criterion) == (best, len(feasible)), budget


def test_winner_under_a_linear_criterion_selects():
    profile = RegionProfile.of(_results([(1.0, 1.0, 2.0), (5.0, 1.0, 1.5)]))
    criterion = LinearCriterion(w_cost=0.5)
    assert profile.winner(criterion) == (0, 2)
    assert profile.select(criterion)[0] == 0
