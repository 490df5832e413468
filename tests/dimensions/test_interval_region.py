"""Unit tests for interval dimensions, regions and region spaces."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.dimensions import (
    HierarchicalDimension,
    Interval,
    IntervalDimension,
    Region,
    RegionError,
    RegionSpace,
)
from repro.table import Table


@pytest.fixture()
def time() -> IntervalDimension:
    return IntervalDimension("month", 10, unit="month")


@pytest.fixture()
def loc() -> HierarchicalDimension:
    return HierarchicalDimension.from_spec(
        "state",
        {"MW": ["WI", "IL"], "NE": ["NY", "MD"]},
        level_names=("All", "Division", "State"),
    )


@pytest.fixture()
def space(time, loc) -> RegionSpace:
    return RegionSpace([time, loc])


class TestInterval:
    def test_valid(self):
        iv = Interval(1, 5)
        assert iv.length == 5
        assert str(iv) == "1-5"

    def test_invalid(self):
        with pytest.raises(RegionError):
            Interval(0, 5)
        with pytest.raises(RegionError):
            Interval(3, 2)

    def test_contains_point(self):
        iv = Interval(1, 3)
        assert iv.contains_point(1) and iv.contains_point(3)
        assert not iv.contains_point(4)

    def test_dimension_enumeration(self, time):
        ivs = time.intervals()
        assert len(ivs) == 10
        assert ivs[0] == Interval(1, 1)
        assert ivs[-1] == Interval(1, 10)

    def test_prefix_bounds(self, time):
        with pytest.raises(RegionError):
            time.interval(0)
        with pytest.raises(RegionError):
            time.interval(11)

    def test_membership_mask(self, time):
        points = np.array([1, 5, 9])
        assert list(time.membership_mask(points, Interval(1, 5))) == [True, True, False]

    def test_validate_points(self, time):
        time.validate_points(np.array([1, 10]))
        with pytest.raises(RegionError):
            time.validate_points(np.array([0]))

    def test_bad_n_points(self):
        with pytest.raises(RegionError):
            IntervalDimension("t", 0)


class TestRegionSpace:
    def test_region_count(self, space):
        # 10 prefixes x (4 states + 2 divisions + All) = 70
        assert space.n_regions == 70
        assert len(space.all_regions()) == 70

    def test_iter_matches_all(self, space):
        assert list(space.iter_regions()) == space.all_regions()

    def test_region_constructor_int_shortcut(self, space):
        r = space.region(8, "MD")
        assert r.values == (Interval(1, 8), "MD")
        assert str(r) == "[1-8, MD]"

    def test_region_validation(self, space):
        with pytest.raises(RegionError):
            space.region(8)  # wrong arity
        with pytest.raises(RegionError):
            space.region(11, "MD")  # beyond n_points
        with pytest.raises(RegionError):
            space.region(8, "Mars")  # unknown node
        with pytest.raises(RegionError):
            space.region(Interval(2, 5), "MD")  # not a prefix

    def test_regions_hashable(self, space):
        d = {space.region(1, "WI"): 1}
        assert d[space.region(1, "WI")] == 1

    def test_mask(self, space):
        fact = Table(
            {
                "month": [1, 9, 3, 2],
                "state": ["MD", "MD", "WI", "NY"],
                "profit": [1.0, 2.0, 3.0, 4.0],
            }
        )
        r = space.region(8, "NE")
        assert list(space.mask(fact, r)) == [True, False, False, True]
        r_all = space.region(10, "All")
        assert space.mask(fact, r_all).all()

    def test_contains_cell(self, space):
        r = space.region(3, "MW")
        assert space.contains_cell(r, (2, "WI"))
        assert not space.contains_cell(r, (4, "WI"))
        assert not space.contains_cell(r, (2, "MD"))

    def test_finest_cells(self, space):
        cells = space.finest_cells()
        assert len(cells) == 40  # 10 x 4
        assert (1, "AL") not in cells  # AL not a leaf here
        assert (1, "WI") in cells

    def test_duplicate_dimension_rejected(self, time):
        with pytest.raises(RegionError):
            RegionSpace([time, time])

    def test_empty_dimensions_rejected(self):
        with pytest.raises(RegionError):
            RegionSpace([])


class TestRegionHash:
    """The hash is taken once per region and never travels in a pickle."""

    def test_equal_regions_hash_equal_and_key_the_same_entry(self):
        a = Region((Interval(1, 3), "MD"))
        b = Region((Interval(1, 3), "MD"))
        assert a == b and hash(a) == hash(b) == hash((a.values,))
        assert {a: "x"}[b] == "x"
        assert a != Region((Interval(1, 4), "MD"))
        assert repr(a) == "Region([1-3, MD])"

    def test_pickle_carries_the_values_only(self):
        region = Region((Interval(1, 3), "MD"))
        blob = pickle.dumps(region)
        assert b"_hash" not in blob
        back = pickle.loads(blob)
        assert back == region and hash(back) == hash(region)

    def test_round_trip_into_a_process_with_another_hash_seed(self):
        """String hashes are per process: a region shipped to a worker (as
        ``ParallelExecutor`` does) must be found in the worker's own dicts."""
        regions = [Region((Interval(1, k), name)) for k in (1, 2) for name in ("MD", "WI")]
        child = (
            "import pickle, sys\n"
            "from repro.dimensions import Interval, Region\n"
            "shipped = pickle.load(sys.stdin.buffer)\n"
            "local = {Region((Interval(1, k), n)): (k, n)"
            " for k in (1, 2) for n in ('MD', 'WI')}\n"
            "assert [local[r] for r in shipped] =="
            " [(1, 'MD'), (1, 'WI'), (2, 'MD'), (2, 'WI')]\n"
            "sys.stdout.buffer.write(pickle.dumps((shipped, hash(shipped[0]))))\n"
        )
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join(
                [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]
            ),
        }
        out = subprocess.run(
            [sys.executable, "-c", child],
            input=pickle.dumps(regions),
            capture_output=True,
            env=env,
            check=True,
        ).stdout
        back, child_hash = pickle.loads(out)
        # the other process hashed the strings differently ...
        assert child_hash != hash(regions[0])
        # ... and what comes back is found here again
        held = {region: k for k, region in enumerate(regions)}
        assert [held[r] for r in back] == [0, 1, 2, 3]
