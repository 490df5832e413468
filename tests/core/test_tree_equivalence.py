"""Lemma 1: the RF bellwether tree equals the naive bellwether tree."""

import pytest

from repro.core import BellwetherTreeBuilder
from repro.verify import assert_same_tree


@pytest.fixture(scope="module")
def builders(small_task, small_store):
    store, __, __ = small_store
    kwargs = dict(
        split_attrs=("category", "rd"),
        min_items=8,
        max_depth=2,
        max_numeric_splits=3,
    )
    return BellwetherTreeBuilder(small_task, store, **kwargs)


class TestLemma1:
    def test_rf_equals_naive(self, builders):
        rf = builders.build(method="rf")
        naive = builders.build(method="naive")
        assert_same_tree(rf.root, naive.root)

    def test_leaf_regions_agree(self, builders):
        rf = builders.build(method="rf")
        naive = builders.build(method="naive")
        rf_leaves = {
            tuple(sorted(l.item_ids)): l.region for l in rf.leaves()
        }
        naive_leaves = {
            tuple(sorted(l.item_ids)): l.region for l in naive.leaves()
        }
        assert rf_leaves == naive_leaves

