"""Unit tests for hierarchical dimensions."""

import numpy as np
import pytest

from repro.dimensions import HierarchicalDimension, HierarchyError, HierarchyNode


@pytest.fixture()
def location() -> HierarchicalDimension:
    return HierarchicalDimension.from_spec(
        "state",
        {"CA": ["ON"], "US": ["AL", "WI"], "KR": ["SE"]},
        level_names=("All", "Country", "State"),
    )


class TestConstruction:
    def test_leaf_names_sorted(self, location):
        assert location.leaf_names == ("AL", "ON", "SE", "WI")

    def test_levels(self, location):
        assert location.level_names == ("All", "Country", "State")
        assert location.leaf_depth == 2

    def test_mixed_leaf_depth_rejected(self):
        root = HierarchyNode("All", [
            HierarchyNode("deep", [HierarchyNode("leaf1")]),
            HierarchyNode("shallow"),
        ])
        with pytest.raises(HierarchyError):
            HierarchicalDimension("x", root, ("All", "Mid", "Leaf"))

    def test_wrong_level_name_count_rejected(self):
        root = HierarchyNode("All", [HierarchyNode("a")])
        with pytest.raises(HierarchyError):
            HierarchicalDimension("x", root, ("All",))

    def test_duplicate_node_rejected(self):
        root = HierarchyNode("All", [HierarchyNode("a"), HierarchyNode("a")])
        with pytest.raises(HierarchyError):
            HierarchicalDimension("x", root, ("All", "Leaf"))

    def test_bad_spec_rejected(self):
        with pytest.raises(HierarchyError):
            HierarchicalDimension.from_spec("x", {"a": 42}, ("All", "Mid", "Leaf"))


class TestNavigation:
    def test_node_lookup(self, location):
        assert location.node("US").name == "US"
        with pytest.raises(HierarchyError):
            location.node("XX")

    def test_contains(self, location):
        assert "US" in location
        assert "WI" in location
        assert "XX" not in location

    def test_depth_and_level(self, location):
        assert location.depth_of("All") == 0
        assert location.depth_of("US") == 1
        assert location.depth_of("WI") == 2
        assert location.level_of("US") == "Country"

    def test_parents_and_ancestors(self, location):
        assert location.parent_of("WI") == "US"
        assert location.parent_of("All") is None
        assert location.ancestors_of("WI") == ["WI", "US", "All"]

    def test_leaves_under(self, location):
        assert sorted(location.leaves_under("US")) == ["AL", "WI"]
        assert sorted(location.leaves_under("All")) == ["AL", "ON", "SE", "WI"]
        assert location.leaves_under("WI") == ("WI",)

    def test_nodes_at_depth(self, location):
        countries = {n.name for n in location.nodes_at_depth(1)}
        assert countries == {"CA", "US", "KR"}

    def test_ancestor_at_depth(self, location):
        assert location.ancestor_at_depth("WI", 0) == "All"
        assert location.ancestor_at_depth("WI", 1) == "US"
        assert location.ancestor_at_depth("WI", 2) == "WI"
        with pytest.raises(HierarchyError):
            location.ancestor_at_depth("WI", 3)


class TestMembership:
    def test_membership_mask(self, location):
        values = np.array(["WI", "SE", "AL", "ON"], dtype=object)
        mask = location.membership_mask(values, "US")
        assert list(mask) == [True, False, True, False]

    def test_membership_all(self, location):
        values = np.array(["WI", "SE"], dtype=object)
        assert location.membership_mask(values, "All").all()

    def test_unknown_leaf_rejected(self, location):
        with pytest.raises(HierarchyError):
            location.encode_leaves(np.array(["Mars"], dtype=object))

    def test_non_leaf_rejected_among_repeated_leaves(self, location):
        with pytest.raises(HierarchyError, match="'US' is not a leaf"):
            location.encode_leaves(np.array(["WI", "WI", "US", "AL"], dtype=object))

    @pytest.mark.parametrize("dtype", [object, str])
    def test_codes_are_each_value_looked_up(self, location, dtype):
        values = np.array(["WI", "SE", "WI", "AL", "ON", "SE", "WI"], dtype=dtype)
        codes = location.encode_leaves(values)
        assert codes.dtype == np.int64
        assert codes.tolist() == [location.leaf_code(str(v)) for v in values]
        assert location.encode_leaves(values[:0]).tolist() == []

    def test_contains_leaf(self, location):
        assert location.contains_leaf("US", "WI")
        assert not location.contains_leaf("KR", "WI")

    def test_ancestor_codes_at_depth(self, location):
        codes, names = location.ancestor_codes_at_depth(1)
        # leaf order: AL, ON, SE, WI -> countries US, CA, KR, US
        decoded = [names[c] for c in codes]
        assert decoded == ["US", "CA", "KR", "US"]
