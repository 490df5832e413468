"""Bellwether trees (Section 5): item-centric bellwethers by recursive splits.

A bellwether tree looks like a regression tree over *item-table* features,
but its leaves hold a *bellwether region* (and the model built on it) instead
of a constant prediction.  A split is good if giving each child partition its
own bellwether region reduces the weighted error:

    Goodness(c) = |S|·Error(h_r | S) − Σ_p |S_p|·Error(h_{r_p} | S_p)

Two construction algorithms (Figure 4), equivalent by Lemma 1:

* **naive** — solves a basic bellwether problem per (node, split, partition),
  re-reading the entire training data each time;
* **rf** — RainForest-style: one scan of the entire training data per tree
  level, accumulating the sufficient statistic
  ``{<MinError[v,c,p], Size[v,c,p]>}`` for every active node.

Split-quality errors default to training-set RMSE (cheap and, for linear
models, close to cross-validation — Figure 7(c)).  Each level's scan only
collects sufficient statistics: per (node, block) the design ``[1 | x]`` is
built once, every numeric threshold of the node takes its left-side
statistics from that one design and its right side as ``total − left``
(``StackedSuffStats.from_binary_splits``), and categorical splits take one
``from_data`` per partition.  Every model of the level (node errors and all
split partitions on all regions) is then fit by one stacked solve.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dimensions import Region
from repro.ml import (
    ErrorEstimate,
    LinearRegression,
    LinearSuffStats,
    StackedSuffStats,
    add_intercept,
)
from repro.obs.catalog import TREE_NODES_SPLIT, TREE_SPLIT_EVALS
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.storage import RegionBlock, TrainingDataStore
from repro.table.schema import ColumnType

from .exceptions import SearchError, TaskError
from .rowindex import RowIndex
from .task import BellwetherTask

_TRACER = get_tracer()
_SPLIT_EVALS = get_registry().counter(TREE_SPLIT_EVALS)
_NODES_SPLIT = get_registry().counter(TREE_NODES_SPLIT)


# --------------------------------------------------------------------- splits


@dataclass(frozen=True)
class SplitCandidate:
    """One candidate splitting criterion 〈A_k〉 or 〈A_k, b〉."""

    attr: str
    kind: str  # "cat" or "num"
    threshold: float | None = None
    categories: tuple | None = None

    def n_children(self) -> int:
        return len(self.categories) if self.kind == "cat" else 2

    def route(self, value) -> int:
        """Child index for one item's attribute value."""
        if self.kind == "cat":
            try:
                return self.categories.index(value)
            except ValueError:
                raise SearchError(
                    f"value {value!r} not seen when splitting on {self.attr!r}"
                ) from None
        return 0 if float(value) < self.threshold else 1

    def partition(self, values: np.ndarray) -> np.ndarray:
        """Child index per item (vectorized route)."""
        if self.kind == "cat":
            index = {v: k for k, v in enumerate(self.categories)}
            return np.array([index[v] for v in values], dtype=np.int64)
        return (np.asarray(values, dtype=np.float64) >= self.threshold).astype(np.int64)

    def __str__(self) -> str:
        if self.kind == "cat":
            return f"<{self.attr}>"
        return f"<{self.attr} >= {self.threshold:g}>"


@dataclass
class TreeNode:
    """A node of a bellwether tree."""

    item_ids: np.ndarray
    depth: int
    split: SplitCandidate | None = None
    children: list["TreeNode"] = field(default_factory=list)
    region: Region | None = None
    model: LinearRegression | None = None
    error: ErrorEstimate | None = None
    # construction-time scratch: best (error, region) over the scan
    _best_rmse: float = np.inf

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def n_items(self) -> int:
        return len(self.item_ids)


# ---------------------------------------------------------------------- tree


class BellwetherTree:
    """A constructed bellwether tree (use :class:`BellwetherTreeBuilder`)."""

    def __init__(
        self,
        root: TreeNode,
        task: BellwetherTask,
        store: TrainingDataStore,
        split_attrs: tuple[str, ...],
    ):
        self.root = root
        self.task = task
        self.store = store
        self.split_attrs = split_attrs
        item_table = task.item_table
        self._attr_of: dict = {}
        for attr in split_attrs:
            col = item_table.column(attr)
            self._attr_of[attr] = dict(zip(item_table[task.id_column], col))

    # ---------------------------------------------------------------- shape

    def leaves(self) -> list[TreeNode]:
        out: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(node.children)
        return out

    @property
    def n_levels(self) -> int:
        """Number of levels (root level = 1)."""
        def depth(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(depth(c) for c in node.children)
        return depth(self.root)

    def describe(self) -> str:
        """Human-readable tree dump (splits and leaf bellwether regions)."""
        lines: list[str] = []
        def walk(node: TreeNode, prefix: str) -> None:
            if node.is_leaf:
                lines.append(
                    f"{prefix}leaf: {node.n_items} items -> {node.region} "
                    f"(rmse {node.error.rmse:.4g})"
                )
            else:
                lines.append(f"{prefix}{node.split} [{node.n_items} items]")
                for k, child in enumerate(node.children):
                    walk(child, prefix + f"  [{k}] ")
        walk(self.root, "")
        return "\n".join(lines)

    # -------------------------------------------------------------- predict

    def route(self, attrs: dict) -> TreeNode:
        """Send an item (by its item-table features) down to a leaf."""
        node = self.root
        while not node.is_leaf:
            value = attrs.get(node.split.attr)
            if value is None:
                raise SearchError(f"missing split attribute {node.split.attr!r}")
            node = node.children[node.split.route(value)]
        return node

    def route_item(self, item_id) -> TreeNode:
        attrs = {a: self._attr_of[a][item_id] for a in self.split_attrs}
        return self.route(attrs)

    def region_for(self, item_id) -> Region:
        """The bellwether region prescribed for this item."""
        return self.route_item(item_id).region

    def predict(self, item_id) -> float:
        """Predict τ_i: route to a leaf, read φ_{i,r} from its region.

        Falls back to the root's bellwether region when the item has no data
        in the leaf's region, and to the leaf's mean target when it has no
        data in either (budget spent but nothing collected).
        """
        leaf = self.route_item(item_id)
        for region in (leaf.region, self.root.region):
            if region is None:
                continue
            block = self.store.read(region)
            hit = np.flatnonzero(block.item_ids == item_id)
            if len(hit):
                model = leaf.model if region is leaf.region else None
                if model is None:
                    model = LinearRegression().fit(block.x, block.y)
                return float(model.predict(block.x[hit[0]])[0])
        fallback_block = self.store.read(leaf.region)
        if fallback_block.n_examples:
            return float(fallback_block.y.mean())
        raise SearchError(f"cannot predict item {item_id!r}: no data anywhere")


# -------------------------------------------------------------------- builder


class BellwetherTreeBuilder:
    """Builds bellwether trees with either construction algorithm.

    Parameters
    ----------
    task, store:
        Problem definition and the entire training data (feasible regions).
    split_attrs:
        Item-table attributes considered for splits (default: the task's
        item-feature attributes).
    min_items:
        Termination threshold: nodes with fewer items become leaves.
    max_depth:
        Maximum number of split levels (root = depth 0).
    max_numeric_splits:
        Cap on numeric thresholds per attribute, taken at percentiles
        (the paper suggests ~50; default 16 keeps tests fast).
    min_relative_goodness:
        A split must reduce the weighted error by at least this fraction of
        ``|S| * Error(h_r | S)`` to be taken — a cheap stand-in for the
        paper's post-hoc MDL pruning that stops noise-driven splits.
    use_prefix_stats:
        Evaluate all numeric splits of a node in one pass per block (left
        statistics per threshold, right side by subtraction) instead of
        refitting each side of each threshold; ``False`` is the ablation.
        The trees agree; partition errors can differ in the last bits.
    min_examples:
        Minimum examples for a (region, partition) model to count.
    """

    def __init__(
        self,
        task: BellwetherTask,
        store: TrainingDataStore,
        split_attrs: Sequence[str] | None = None,
        min_items: int = 20,
        max_depth: int = 4,
        max_numeric_splits: int = 16,
        use_prefix_stats: bool = True,
        min_examples: int | None = None,
        min_relative_goodness: float = 0.05,
    ):
        self.task = task
        self.store = store
        self.split_attrs = tuple(split_attrs or task.item_feature_attrs)
        if not self.split_attrs:
            raise TaskError("bellwether tree needs at least one split attribute")
        self.min_items = min_items
        self.max_depth = max_depth
        self.max_numeric_splits = max_numeric_splits
        self.use_prefix_stats = use_prefix_stats
        self.min_relative_goodness = min_relative_goodness
        p = len(store.feature_names) + 1  # + intercept
        self.min_examples = min_examples if min_examples is not None else max(5, p + 3)
        item_table = task.item_table
        self._ids = np.asarray(item_table[task.id_column])
        self._attr_values: dict[str, np.ndarray] = {}
        self._attr_kind: dict[str, str] = {}
        for attr in self.split_attrs:
            col = item_table.column(attr)
            if item_table.schema.type_of(attr) is ColumnType.STR:
                self._attr_kind[attr] = "cat"
                self._attr_values[attr] = col
            else:
                self._attr_kind[attr] = "num"
                self._attr_values[attr] = np.asarray(col, dtype=np.float64)
        self._index = RowIndex(self._ids)

    # ------------------------------------------------------------ public API

    def build(
        self,
        method: str = "rf",
        item_ids: Sequence | None = None,
        memory_budget_rows: int = 200_000,
    ) -> BellwetherTree:
        """Construct the tree with ``"rf"``, ``"naive"`` or ``"hybrid"``.

        ``item_ids`` restricts the training item set (e.g. the train fold of
        an item-centric cross-validation); routing still works for any item.

        ``"hybrid"`` is the RF-hybrid refinement Section 5.2 points to:
        during each level's scan, any active node whose restricted training
        data fits in ``memory_budget_rows`` caches it, and its whole subtree
        is then built in memory — no further scans of the entire training
        data for that branch.  Produces the same tree as ``"rf"``.
        """
        root_ids = (
            self._ids.copy() if item_ids is None else np.asarray(list(item_ids))
        )
        missing = ~self._index.contains(root_ids)
        if missing.any():
            raise TaskError(f"unknown item ids: {list(root_ids[missing][:5])}")
        root = TreeNode(item_ids=root_ids, depth=0)
        before = self.store.stats.snapshot()
        with _TRACER.span(
            "tree.build", method=method, items=len(root_ids)
        ) as sp:
            if method == "rf":
                self._build_rf(root)
            elif method == "naive":
                self._build_naive(root)
            elif method == "hybrid":
                self._build_rf(root, memory_budget_rows=memory_budget_rows)
            else:
                raise TaskError(f"unknown construction method {method!r}")
            tree = BellwetherTree(root, self.task, self.store, self.split_attrs)
            with _TRACER.span("tree.finalize_leaves", leaves=len(tree.leaves())):
                self._finalize_leaves(tree)
            sp.annotate(
                levels=tree.n_levels,
                full_scans=(self.store.stats - before).full_scans,
            )
        return tree

    # -------------------------------------------------------------- candidates

    def _candidate_splits(self, item_ids: np.ndarray) -> list[SplitCandidate]:
        rows = self._index.rows_of(item_ids)
        out: list[SplitCandidate] = []
        for attr in self.split_attrs:
            values = self._attr_values[attr][rows]
            if self._attr_kind[attr] == "cat":
                cats = tuple(sorted(set(map(str, values))))
                if len(cats) >= 2:
                    out.append(SplitCandidate(attr, "cat", categories=cats))
            else:
                distinct = np.unique(values)
                if len(distinct) < 2:
                    continue
                midpoints = (distinct[:-1] + distinct[1:]) / 2.0
                if len(midpoints) > self.max_numeric_splits:
                    take = np.linspace(
                        0, len(midpoints) - 1, self.max_numeric_splits
                    ).astype(int)
                    midpoints = midpoints[np.unique(take)]
                out.extend(
                    SplitCandidate(attr, "num", threshold=float(b)) for b in midpoints
                )
        return out

    def _partition_rows(
        self, split: SplitCandidate, item_ids: np.ndarray
    ) -> np.ndarray:
        rows = self._index.rows_of(item_ids)
        values = self._attr_values[split.attr][rows]
        if split.kind == "cat":
            values = values.astype(str)
        return split.partition(values)

    # ----------------------------------------------------------------- naive

    def _node_bellwether(
        self, item_ids: np.ndarray, store: TrainingDataStore | None = None
    ) -> tuple[Region | None, float]:
        """min_r Error(h_r | S) by re-reading every region (naive path).

        Every feasible region's statistics are collected first and fit by
        one stacked solve; picking the first strict minimum in region order
        reproduces the serial loop's winner exactly.
        """
        store = store if store is not None else self.store
        pending: list[LinearSuffStats] = []
        regions: list[Region] = []
        for region in store.regions():
            block = store.read(region).restrict_to(item_ids)
            if block.n_examples < self.min_examples:
                continue
            pending.append(
                LinearSuffStats.from_data(
                    add_intercept(block.x), block.y, block.weights
                )
            )
            regions.append(region)
        if not pending:
            return None, np.inf
        errs = StackedSuffStats.from_stats(pending).rmse()
        finite = np.isfinite(errs)
        if not finite.any():
            return None, np.inf
        m = errs[finite].min()
        k = int(np.flatnonzero(errs == m)[0])
        return regions[k], float(m)

    def _build_naive(self, node: TreeNode, store: TrainingDataStore | None = None) -> None:
        store = store if store is not None else self.store
        with _TRACER.span("tree.node", depth=node.depth, items=node.n_items):
            self._naive_node(node, store)

    def _naive_node(self, node: TreeNode, store: TrainingDataStore) -> None:
        node.region, node._best_rmse = self._node_bellwether(node.item_ids, store)
        if (
            node.n_items < self.min_items
            or node.depth >= self.max_depth
            or node.region is None
        ):
            return
        floor = self.min_relative_goodness * node.n_items * node._best_rmse
        best_split, best_goodness, best_children = None, floor, None
        for split in self._candidate_splits(node.item_ids):
            child_of_item = self._partition_rows(split, node.item_ids)
            children_ids = [
                node.item_ids[child_of_item == p] for p in range(split.n_children())
            ]
            if any(len(c) == 0 for c in children_ids):
                continue
            total = 0.0
            feasible = True
            for ids in children_ids:
                __, err = self._node_bellwether(ids, store)
                if not np.isfinite(err):
                    feasible = False
                    break
                total += len(ids) * err
            if not feasible:
                continue
            goodness = node.n_items * node._best_rmse - total
            if goodness > best_goodness + 1e-12:
                best_split, best_goodness, best_children = split, goodness, children_ids
        if best_split is None:
            return
        node.split = best_split
        _NODES_SPLIT.inc()
        node.children = [
            TreeNode(item_ids=ids, depth=node.depth + 1) for ids in best_children
        ]
        for child in node.children:
            self._build_naive(child, store)

    # -------------------------------------------------------------------- rf

    def _build_rf(
        self, root: TreeNode, memory_budget_rows: int | None = None
    ) -> None:
        n_regions = len(self.store.regions())
        active = [root]
        while active:
            # One scan of the entire training data per level (Lemma 1).
            with _TRACER.span(
                "tree.level", level=active[0].depth, nodes=len(active)
            ):
                active = self._rf_level(active, n_regions, memory_budget_rows)

    def _rf_level(
        self,
        active: list[TreeNode],
        n_regions: int,
        memory_budget_rows: int | None,
    ) -> list[TreeNode]:
        """Process one tree level: a single scan decides every active node."""
        per_node_splits = {
            id(node): self._candidate_splits(node.item_ids) for node in active
        }
        per_node_partition = {
            id(node): {
                k: self._partition_rows(split, node.item_ids)
                for k, split in enumerate(per_node_splits[id(node)])
            }
            for node in active
        }
        per_node_index = {
            id(node): RowIndex(node.item_ids) for node in active
        }
        # Numeric candidates are evaluated together, from one pass over each
        # block: which candidates, and per candidate which items go left.
        # Categorical ones, and everything under the ablation, go per mask.
        per_node_numeric = {
            key: [
                k
                for k, split in enumerate(splits)
                if self.use_prefix_stats and split.kind == "num"
            ]
            for key, splits in per_node_splits.items()
        }
        per_node_left = {
            key: np.stack([per_node_partition[key][k] == 0 for k in numeric])
            for key, numeric in per_node_numeric.items()
            if numeric
        }
        min_error: dict[tuple[int, int, int], float] = {}
        node_best: dict[int, tuple[float, Region | None]] = {
            id(node): (np.inf, None) for node in active
        }
        # RF-hybrid: nodes small enough to hold in memory cache their
        # restricted blocks during this scan; their subtrees then build
        # without any further scans of the entire training data.
        cacheable = {
            id(node)
            for node in active
            if memory_budget_rows is not None
            and node.n_items * n_regions <= memory_budget_rows
        }
        cache: dict[int, dict[Region, RegionBlock]] = {
            key: {} for key in cacheable
        }
        # The scan only *collects* sufficient statistics; all the models of
        # this level (node errors and every split partition's error on every
        # region) are then fit by a single stacked solve, and the scan's
        # sequential min-updates replay over the batched errors in order.
        pending_stats: list[LinearSuffStats] = []
        pending_slots: list[tuple] = []
        pending_sides: list[StackedSuffStats] = []
        side_slots: list[tuple] = []
        for region, block in self.store.scan():
            for node in active:
                key = id(node)
                sub = block.restrict_to(node.item_ids)
                if key in cacheable:
                    cache[key][region] = sub
                # [1 | x] once per (node, block): the node's own model and
                # every numeric threshold below read the same design.
                z = add_intercept(sub.x)
                if sub.n_examples >= self.min_examples:
                    pending_stats.append(
                        LinearSuffStats.from_data(z, sub.y, sub.weights)
                    )
                    pending_slots.append(("node", key, region))
                splits = per_node_splits[key]
                if (
                    node.n_items < self.min_items
                    or node.depth >= self.max_depth
                    or not splits
                ):
                    continue
                # sub's rows within the node
                child_rows = per_node_index[key].rows_of(sub.item_ids)
                numeric = per_node_numeric[key]
                if numeric:
                    _SPLIT_EVALS.inc(len(numeric))
                    # problems 0..T-1 are the left sides, T..2T-1 the right
                    sides = StackedSuffStats.from_binary_splits(
                        z, sub.y, sub.weights, per_node_left[key][:, child_rows]
                    )
                    keep = np.flatnonzero(sides.n >= self.min_examples)
                    pending_sides.append(sides.select(keep))
                    side_slots.extend(
                        ("split", key, numeric[i % len(numeric)], i // len(numeric))
                        for i in keep
                    )
                for c_idx, split in enumerate(splits):
                    if c_idx in numeric:
                        continue
                    stats_per_child = self._split_stats_on_block(
                        split, sub, per_node_partition[key][c_idx][child_rows]
                    )
                    for p, stats in enumerate(stats_per_child):
                        if stats is not None:
                            pending_stats.append(stats)
                            pending_slots.append(("split", key, c_idx, p))
        if pending_stats:
            errors = StackedSuffStats.concatenate(
                [StackedSuffStats.from_stats(pending_stats), *pending_sides]
            ).rmse()
            for slot, err in zip(pending_slots + side_slots, errors):
                if slot[0] == "node":
                    __, key, region = slot
                    if err < node_best[key][0]:
                        node_best[key] = (float(err), region)
                else:
                    __, key, c_idx, p = slot
                    s = (key, c_idx, p)
                    if err < min_error.get(s, np.inf):
                        min_error[s] = float(err)
        next_active: list[TreeNode] = []
        for node in active:
            node._best_rmse, node.region = (
                node_best[id(node)][0],
                node_best[id(node)][1],
            )
            if (
                node.n_items < self.min_items
                or node.depth >= self.max_depth
                or node.region is None
            ):
                continue
            floor = (
                self.min_relative_goodness * node.n_items * node._best_rmse
            )
            best_split, best_goodness, best_children = None, floor, None
            for c_idx, split in enumerate(per_node_splits[id(node)]):
                child_of_item = per_node_partition[id(node)][c_idx]
                children_ids = [
                    node.item_ids[child_of_item == p]
                    for p in range(split.n_children())
                ]
                if any(len(c) == 0 for c in children_ids):
                    continue
                total = 0.0
                feasible = True
                for p, ids in enumerate(children_ids):
                    err = min_error.get((id(node), c_idx, p), np.inf)
                    if not np.isfinite(err):
                        feasible = False
                        break
                    total += len(ids) * err
                if not feasible:
                    continue
                goodness = node.n_items * node._best_rmse - total
                if goodness > best_goodness + 1e-12:
                    best_split, best_goodness, best_children = (
                        split,
                        goodness,
                        children_ids,
                    )
            if best_split is None:
                continue
            node.split = best_split
            _NODES_SPLIT.inc()
            node.children = [
                TreeNode(item_ids=ids, depth=node.depth + 1)
                for ids in best_children
            ]
            if id(node) in cacheable:
                # finish this subtree entirely in memory
                from repro.storage import MemoryStore

                mem = MemoryStore(cache[id(node)], self.store.feature_names)
                for child in node.children:
                    self._build_naive(child, store=mem)
            else:
                next_active.extend(node.children)
        return next_active

    def _split_stats_on_block(
        self,
        split: SplitCandidate,
        block: RegionBlock,
        child_of_row: np.ndarray,
    ) -> list[LinearSuffStats | None]:
        """Per-partition statistics on one region's (restricted) block.

        Returns ``None`` for partitions below ``min_examples``; the caller
        fits everything else in one batched solve at the end of the scan.
        """
        _SPLIT_EVALS.inc()
        if block.n_examples == 0:
            return [None] * split.n_children()
        out: list[LinearSuffStats | None] = []
        for p in range(split.n_children()):
            mask = child_of_row == p
            if mask.sum() < self.min_examples:
                out.append(None)
            else:
                out.append(
                    LinearSuffStats.from_data(
                        add_intercept(block.x[mask]),
                        block.y[mask],
                        None if block.weights is None else block.weights[mask],
                    )
                )
        return out

    # --------------------------------------------------------------- pruning

    def build_pruned(
        self,
        method: str = "rf",
        item_ids: Sequence | None = None,
        validation_fraction: float = 0.25,
        seed: int = 0,
    ) -> BellwetherTree:
        """Construct a tree on a train split, then reduced-error prune it.

        Section 5.1 calls for standard post-construction pruning (the paper
        cites MDL pruning); we use the classic validation-set variant: an
        internal node is collapsed to a leaf whenever its own bellwether
        model predicts the held-out items at least as well as its subtree.
        """
        if not 0.0 < validation_fraction < 1.0:
            raise TaskError(
                f"validation_fraction must be in (0, 1), got {validation_fraction}"
            )
        ids = (
            self._ids.copy() if item_ids is None else np.asarray(list(item_ids))
        )
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(ids))
        n_val = max(1, int(len(ids) * validation_fraction))
        val_ids = ids[order[:n_val]]
        train_ids = ids[order[n_val:]]
        tree = self.build(method=method, item_ids=train_ids)
        self.prune(tree, val_ids)
        return tree

    def prune(self, tree: BellwetherTree, validation_ids: Sequence) -> None:
        """Reduced-error prune ``tree`` in place against held-out items."""
        val_ids = np.asarray(list(validation_ids))
        y = self.task.target_values()
        y_of = dict(zip(np.asarray(self.task.item_ids), y))

        def node_prediction(node: TreeNode, item_id) -> float:
            """Predict with the node treated as a leaf."""
            if node.region is None:
                node.region, node._best_rmse = self._node_bellwether(node.item_ids)
            if node.region is None:
                return float("nan")
            block = self.store.read(node.region)
            train = block.restrict_to(node.item_ids)
            if train.n_examples < 1:
                return float("nan")
            model = LinearRegression().fit(train.x, train.y)
            hit = np.flatnonzero(block.item_ids == item_id)
            if len(hit):
                return float(model.predict(block.x[hit[0]])[0])
            return float(train.y.mean())

        def subtree_prediction(node: TreeNode, item_id) -> float:
            current = node
            while not current.is_leaf:
                value = tree._attr_of[current.split.attr][item_id]
                current = current.children[current.split.route(value)]
            return node_prediction(current, item_id)

        def sse(values: list[tuple[float, float]]) -> float:
            return float(
                np.sum([(pred - actual) ** 2 for pred, actual in values])
            )

        def walk(node: TreeNode, routed: np.ndarray) -> None:
            if node.is_leaf or len(routed) == 0:
                return
            buckets: list[list] = [[] for __ in node.children]
            for item_id in routed:
                value = tree._attr_of[node.split.attr][item_id]
                try:
                    buckets[node.split.route(value)].append(item_id)
                except SearchError:
                    continue  # category unseen in the train split
            for child, bucket in zip(node.children, buckets):
                walk(child, np.asarray(bucket))
            as_subtree = [(subtree_prediction(node, i), y_of[i]) for i in routed]
            as_leaf = [(node_prediction(node, i), y_of[i]) for i in routed]
            if any(np.isnan(p) for p, __ in as_leaf):
                return
            if sse(as_leaf) <= sse(as_subtree):
                node.split = None
                node.children = []

        walk(tree.root, val_ids)
        self._finalize_leaves(tree)

    # -------------------------------------------------------------- finalize

    def _finalize_leaves(self, tree: BellwetherTree) -> None:
        """Fit the leaf bellwether models and task-level error estimates."""
        for leaf in tree.leaves():
            if leaf.region is None:
                # Node never matched any region with enough examples; fall
                # back to the globally best region for its items.
                leaf.region, leaf._best_rmse = self._node_bellwether(leaf.item_ids)
            if leaf.region is None:
                raise SearchError(
                    f"leaf with {leaf.n_items} items has no feasible region"
                )
            block = self.store.read(leaf.region).restrict_to(leaf.item_ids)
            leaf.model = LinearRegression().fit(block.x, block.y, block.weights)
            leaf.error = self.task.error_estimator.estimate(
                block.x, block.y, block.weights
            )
