"""Generated inputs: fixed-seed data, ``--seed``-driven plans and deltas.

The data seed never changes (:data:`spec.DATA_SEED`), so every run measures
the same program on the same rows.  ``--seed`` only reorders and re-draws
*which* budget, subset or delta comes when — and every draw is dealt from a
fixed multiset (budgets in blocks, subset sizes from a fixed ladder, deltas
of a fixed shape), so two seeds issue the same amount of each kind of work.
:func:`plan_digest` hashes everything generated, so two runs can be shown
to have received identical inputs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core import build_store
from repro.datasets import make_mailorder
from repro.ml import TrainingSetEstimator
from repro.storage import BlockDelta, MemoryStore, RegionBlock, StoreDelta

from . import spec

#: fig13's endpoint mix, as counts in a block of 20 requests.
WARM_BLOCK = (
    ("bellwether", 9), ("bellwether_subset", 3), ("predict", 4),
    ("regions", 2), ("model", 1), ("cube", 1),
)
SUBSET_POOL = 4


def serve_dataset():
    """The mail-order deployment: (dataset, in-memory store, region costs)."""
    ds = make_mailorder(
        n_items=spec.SERVE_ITEMS,
        n_months=spec.SERVE_MONTHS,
        seed=spec.DATA_SEED,
        error_estimator=TrainingSetEstimator(),
    )
    store, costs, __ = build_store(ds.task)
    return ds, store, costs


def copy_store(store: MemoryStore) -> MemoryStore:
    """An independent twin (``apply_delta`` mutates the store it is given)."""
    return MemoryStore(
        {r: store.read(r) for r in store.regions()}, store.feature_names
    )


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _dealt(rng: np.random.Generator, values, n: int) -> list:
    """``n`` draws dealt in shuffled blocks of ``values``: every block of
    ``len(values)`` consecutive draws holds each value exactly once."""
    out: list = []
    while len(out) < n:
        out.extend(values[i] for i in rng.permutation(len(values)))
    return out[:n]


def _pick(rng: np.random.Generator, item_ids: list[int], size: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(item_ids, size=size, replace=False))


def subset_pool(seed: int, item_ids: list[int]) -> list[list[int]]:
    """Four subsets on a fixed size ladder N/4..N/2; membership is seeded."""
    n = len(item_ids)
    sizes = [n // 4 + k * (n // 4) // (SUBSET_POOL - 1) for k in range(SUBSET_POOL)]
    rng = _rng(seed, 1)
    return [_pick(rng, item_ids, size) for size in sizes]


def warm_plans(seed: int, clients: int, n: int):
    """Per-client request plans in fig13's mix, 20 to a block.

    Entries are ``(kind, budget, pool_index)``; budgets and pool subsets
    are dealt so each block asks for the same multiset of work.
    """
    kinds = [kind for kind, count in WARM_BLOCK for __ in range(count)]
    plans = []
    for c in range(clients):
        rng = _rng(seed, 10 + c)
        order = _dealt(rng, kinds, n)
        # One dealt stream per kind, so each kind sees every budget and
        # every pooled subset equally often whatever the seed.
        budgets = {
            kind: iter(_dealt(rng, list(spec.SERVE_BUDGETS), n))
            for kind, __ in WARM_BLOCK
        }
        pools = {
            kind: iter(_dealt(rng, list(range(SUBSET_POOL)), n))
            for kind, __ in WARM_BLOCK
        }
        plans.append(
            [
                (
                    kind,
                    # /predict always resolves its region under the largest
                    # budget, as repro.serve.loadgen's mix does
                    max(spec.SERVE_BUDGETS) if kind == "predict" else next(budgets[kind]),
                    None if kind == "bellwether" else next(pools[kind]),
                )
                for kind in order
            ]
        )
    return plans


def delta_mix_plan(seed: int, n: int):
    """Reader plan: every fifth request asks about a pooled subset."""
    rng = _rng(seed, 20)
    budgets = _dealt(rng, list(spec.SERVE_BUDGETS), n)
    pools = _dealt(rng, list(range(SUBSET_POOL)), n // 5 + 1)
    return [
        ("bellwether_subset", budgets[k], pools[k // 5])
        if k % 5 == 4
        else ("bellwether", budgets[k], None)
        for k in range(n)
    ]


def delta_specs(seed: int, store: MemoryStore, n: int) -> list[list]:
    """``n`` deltas of one fixed shape: DELTA_REGIONS regions, DELTA_ITEMS
    items retracted and re-appended in each.  ``[[region_index, [ids]], ...]``."""
    rng = _rng(seed, 30)
    regions = store.regions()
    specs = []
    for __ in range(n):
        picked = sorted(
            int(i) for i in rng.choice(len(regions), spec.DELTA_REGIONS, replace=False)
        )
        one = []
        for index in picked:
            present = np.unique(store.read(regions[index]).item_ids)
            ids = rng.choice(present, spec.DELTA_ITEMS, replace=False)
            one.append([index, sorted(int(i) for i in ids)])
        specs.append(one)
    return specs


def build_delta(base: MemoryStore, delta_spec: list) -> StoreDelta:
    """The retract-and-reappend delta a spec names, rows taken from ``base``.

    Removing an item's rows and appending the same rows at the end leaves
    every answer where it was (same multiset) but bumps the version and
    dirties the touched cells — the cost of keeping answers fresh, with
    nothing else moving.  Generator and server child both build it from
    their own copy of the fixed-seed base data, so only the spec travels.
    """
    regions = base.regions()
    blocks = {}
    for index, ids in delta_spec:
        block = base.read(regions[index])
        mask = np.isin(block.item_ids, ids)
        blocks[regions[index]] = BlockDelta(
            append=RegionBlock(block.item_ids[mask], block.x[mask], block.y[mask]),
            retract_ids=np.asarray(ids),
        )
    return StoreDelta(blocks)


def cold_plan(seed: int, item_ids: list[int], n: int):
    """``n`` never-repeated subsets; sizes are the midpoints of the fifths
    of [N/4, N/2], dealt one of each per block of five."""
    lo, hi = len(item_ids) // 4, len(item_ids) // 2
    sizes = [lo + (2 * k + 1) * (hi - lo) // 10 for k in range(5)]
    rng = _rng(seed, 40)
    dealt_sizes = _dealt(rng, sizes, n)
    budgets = _dealt(rng, list(spec.SERVE_BUDGETS), n)
    plan, seen = [], set()
    for k in range(n):
        items = _pick(rng, item_ids, dealt_sizes[k])
        while tuple(items) in seen:  # never-seen is the workload's point
            items = _pick(rng, item_ids, dealt_sizes[k])
        seen.add(tuple(items))
        plan.append(("bellwether_subset", budgets[k], items))
    return plan


def batch_plan(seed: int, n: int) -> list[float]:
    """The budget each build's ``search.run`` is asked for."""
    return _dealt(_rng(seed, 50), list(spec.BATCH_BUDGETS), n)


def plan_digest(*parts) -> str:
    """sha256 over every generated input, in canonical JSON."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
