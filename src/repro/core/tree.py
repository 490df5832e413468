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

Each stage exists once on :class:`BellwetherTreeBuilder`: ``_grow`` runs one
pass per level over ``store.scan()`` — or, for RF-hybrid, over the blocks a
node kept — ``_level`` collects a level's statistics and fits them by one
stacked solve, ``_errors`` / ``_pick`` turn statistics into a node's
bellwether region, ``_choose_split`` is the Goodness rule.

Splits come from sorted value bins (Theorem 1 makes a side's statistics a
sum, so a numeric attribute's m nested thresholds are prefix sums of its
m + 1 bins).  Each item of a node has one bin code per split attribute: the
number of the attribute's thresholds at or below its value, or its
category's index.  Per (node, block) the laid rows ``[1 | x | y]`` are built
once, the node's own model takes ``from_rows`` of them, and one
``StackedSuffStats.from_bins`` takes one Gram matrix per bin of every
attribute — A·n·q² multiply-adds for A attributes, however many thresholds —
each bin the same bits as ``from_rows`` of its rows.
Once per level ``StackedSuffStats.cuts`` reads every threshold's left side
(the running sum of the bins below it) and right side (``total − left``)
off the bins of all nodes and blocks; a category's side is its bin.
Split-quality errors are training-set RMSE (cheap and, for linear models,
close to cross-validation — Figure 7(c)).  **naive** shares only ``_pick``
and ``_choose_split``: it re-reads every region per subproblem and refits
the compacted rows, which makes it the reference the kernel is diffed
against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

import numpy as np

from repro.dimensions import Region
from repro.ml import (
    ErrorEstimate,
    LinearRegression,
    LinearSuffStats,
    StackedSuffStats,
    design_rows,
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
        edges = self.categories if self.kind == "cat" else (self.threshold,)
        return _bin_codes(self.attr, self.kind, edges, values)

    def __str__(self) -> str:
        if self.kind == "cat":
            return f"<{self.attr}>"
        return f"<{self.attr} >= {self.threshold:g}>"


def _bin_codes(attr: str, kind: str, edges: Sequence, values) -> np.ndarray:
    """Every value's bin under one attribute's candidates.

    Numeric ``edges`` are ascending thresholds and a value's bin is the
    number of them at or below it, so the left side (``value < t_j``) of
    threshold ``j`` is bins ``0..j``.  Categorical ``edges`` are the
    categories and a value's bin is its category's index.
    """
    if kind == "num":
        return np.searchsorted(
            np.asarray(edges, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
            side="right",
        )
    categories = np.asarray(edges, dtype=str)
    values = np.asarray(values).astype(str)
    order = np.argsort(categories, kind="stable")
    pos = np.minimum(np.searchsorted(categories[order], values), len(order) - 1)
    unseen = categories[order][pos] != values
    if unseen.any():
        raise SearchError(
            f"value {values[unseen][0]!r} not seen when splitting on {attr!r}"
        )
    return order[pos]


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
        for node in (leaf, self.root):
            block = self.store.read(node.region)
            hit = np.flatnonzero(block.item_ids == item_id)
            if len(hit):
                return float(node.model.predict(block.x[hit[0]])[0])
        fallback_block = self.store.read(leaf.region)
        if fallback_block.n_examples:
            return float(fallback_block.y.mean())
        raise SearchError(f"cannot predict item {item_id!r}: no data anywhere")


# -------------------------------------------------------------------- builder


class _ActiveNode:
    """One node while its level is decided: its candidate plan, the bin
    codes the split kernel reads, and what the pass has found so far."""

    def __init__(self, k: int, node: TreeNode, plan, attrs, width: int):
        self.k, self.node, self.plan = k, node, plan
        self.index = RowIndex(node.item_ids)
        # The kernel's bins, one attribute after another.  A categorical
        # attribute's k categories are k bins, each a partition of its
        # candidate.  A numeric attribute's m thresholds cut its values into
        # m + 1 bins, laid out in a run of ``width`` so that the level takes
        # the left side (bins 0..j) and right side (total − left) of every
        # threshold from the running sums of all runs at once.  A slot names
        # the (node, region, (candidate, partition)) a problem is; bins of a
        # numeric run and cuts past a run's last threshold are no partition.
        keys, self.bin_slots, numeric, cut_of = [], [], [], []
        for kind, cands, codes in attrs:
            first = len(self.bin_slots)
            keys.append(codes + first)
            if kind == "cat":
                c = cands[0]
                n_children = plan[c][0].n_children()
                self.bin_slots += [(k, None, (c, p)) for p in range(n_children)]
            else:
                self.bin_slots += [None] * width
                numeric += range(first, first + width)
                cut_of += list(cands) + [None] * (width - 1 - len(cands))
        self.n_bins = len(self.bin_slots)
        # the smallest unsigned dtype: numpy's stable sort of it is a radix sort
        dtype = np.min_scalar_type(max(self.n_bins - 1, 0))
        self.keys = np.array(keys, dtype=dtype).reshape(len(keys), node.n_items)
        self.numeric = np.array(numeric, dtype=np.intp)
        self.left_slots = [c if c is None else (k, None, (c, 0)) for c in cut_of]
        self.right_slots = [c if c is None else (k, None, (c, 1)) for c in cut_of]
        self.cache: dict[Region, RegionBlock] | None = None  # RF-hybrid's kept rows
        self.regions: list[Region] = []  # regions the node has enough rows in,
        self.errors: list[float] = []  # and its own error on each
        self.min_error: dict[tuple[int, int], float] = {}  # MinError[v, c, p]


class BellwetherTreeBuilder:
    """Builds bellwether trees: ``naive``, ``rf`` or ``hybrid`` (= ``rf`` over
    the rows a node kept), all composing the stages in the module docstring.

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
        data fits in ``memory_budget_rows`` keeps it, and its subtree grows
        by the same level function over the kept blocks — no further scans
        of the entire training data for that branch.  Produces the same
        tree as ``"rf"``.
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
            if method == "naive":
                self._build_naive(root)
            elif method in ("rf", "hybrid"):
                # One scan of the entire training data per level (Lemma 1).
                self._grow(
                    [root],
                    self.store.scan,
                    memory_budget_rows if method == "hybrid" else None,
                )
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

    def _plan(self, node: TreeNode) -> tuple[list, list]:
        """The node's candidate splits, each with the child index of every
        item, and per split attribute its kind, the plan positions of its
        candidates and every item's bin code under them; both empty when the
        termination thresholds make the node a leaf."""
        if node.n_items < self.min_items or node.depth >= self.max_depth:
            return [], []
        rows = self._index.rows_of(node.item_ids)
        plan, attrs = [], []
        for attr, group in groupby(
            self._candidate_splits(node.item_ids), key=attrgetter("attr")
        ):
            splits = list(group)
            kind = splits[0].kind
            edges = (
                splits[0].categories if kind == "cat" else [s.threshold for s in splits]
            )
            codes = _bin_codes(attr, kind, edges, self._attr_values[attr][rows])
            attrs.append((kind, range(len(plan), len(plan) + len(splits)), codes))
            # threshold j sends the items of bins j + 1.. right
            plan += [
                (split, codes if kind == "cat" else codes > j)
                for j, split in enumerate(splits)
            ]
        return plan, attrs

    # ------------------------------------------------------ solve and select

    @staticmethod
    def _errors(stats: StackedSuffStats) -> np.ndarray:
        """Split-quality rmse of every problem, from one stacked solve.

        An exact fit reads ``0.0`` (``StackedSuffStats.sse``), so an
        exactly-predicted node has Goodness <= 0 on every path.
        """
        return stats.training_errors()[0]

    @staticmethod
    def _pick(
        regions: Sequence[Region], errors: Sequence[float]
    ) -> tuple[Region | None, float]:
        """min_r Error(h_r | S): the first finite minimum in region order,
        which is the winner of a serial scan's strict ``<`` updates."""
        errors = np.asarray(errors, dtype=np.float64)
        finite = np.isfinite(errors)
        if not finite.any():
            return None, np.inf
        k = int(np.flatnonzero(finite & (errors == errors[finite].min()))[0])
        return regions[k], float(errors[k])

    def _choose_split(self, node: TreeNode, plan, child_error) -> list[TreeNode]:
        """Take the candidate of ``plan`` with the best Goodness, if any.

        ``child_error(c, p, ids)`` is ``min_r Error(h_r | S_p)`` of partition
        ``p`` of candidate ``c``; it is asked left to right and only until a
        partition turns out infeasible.  Returns the children created (none:
        the node stays a leaf).
        """
        if node.region is None:
            return []
        parent = node.n_items * node._best_rmse
        best_goodness, best = self.min_relative_goodness * parent, None
        for c, (split, child_of_item) in enumerate(plan):
            children_ids = [
                node.item_ids[child_of_item == p] for p in range(split.n_children())
            ]
            if any(len(ids) == 0 for ids in children_ids):
                continue
            total = 0.0
            for p, ids in enumerate(children_ids):
                err = child_error(c, p, ids)
                if not np.isfinite(err):
                    break
                total += len(ids) * err
            else:
                goodness = parent - total
                if goodness > best_goodness + 1e-12:
                    best_goodness, best = goodness, (split, children_ids)
        if best is None:
            return []
        node.split, children_ids = best
        _NODES_SPLIT.inc()
        node.children = [
            TreeNode(item_ids=ids, depth=node.depth + 1) for ids in children_ids
        ]
        return node.children

    # ----------------------------------------------------------------- naive

    def _node_bellwether(self, item_ids: np.ndarray) -> tuple[Region | None, float]:
        """min_r Error(h_r | S) by re-reading every region and refitting the
        compacted rows — the reference the one-pass kernel is diffed against."""
        pending: list[LinearSuffStats] = []
        regions: list[Region] = []
        for region in self.store.regions():
            block = self.store.read(region).restrict_to(item_ids)
            if block.n_examples < self.min_examples:
                continue
            pending.append(
                LinearSuffStats.from_rows(
                    design_rows(block.x, block.y), block.weights
                )
            )
            regions.append(region)
        if not pending:
            return None, np.inf
        return self._pick(regions, self._errors(StackedSuffStats.from_stats(pending)))

    def _build_naive(self, node: TreeNode) -> None:
        with _TRACER.span("tree.node", depth=node.depth, items=node.n_items):
            node.region, node._best_rmse = self._node_bellwether(node.item_ids)
            children = self._choose_split(
                node,
                self._plan(node)[0],
                lambda c, p, ids: self._node_bellwether(ids)[1],
            )
            for child in children:
                self._build_naive(child)

    # ------------------------------------------------------------ rf, hybrid

    def _grow(
        self, active: list[TreeNode], scan, memory_budget_rows: int | None
    ) -> None:
        """Decide ``active`` and everything below it, one ``scan()`` per level."""
        while active:
            with _TRACER.span(
                "tree.level", level=active[0].depth, nodes=len(active)
            ):
                active = self._level(active, scan(), memory_budget_rows)

    def _level(
        self,
        active: list[TreeNode],
        blocks,
        memory_budget_rows: int | None,
    ) -> list[TreeNode]:
        """Process one tree level: one pass over ``blocks`` decides every
        active node; returns the nodes the next pass has to decide.

        The pass only *collects* sufficient statistics — per (node, block)
        the node's own model and the bins of its split attributes; every
        (candidate, partition) is then read off the bins and all of them are
        fit by a single stacked solve.
        """
        plans = [self._plan(node) for node in active]
        # the numeric runs' width: the most thresholds of any attribute, + 1
        width = 1 + max(
            (
                len(cands)
                for __, attrs in plans
                for kind, cands, __ in attrs
                if kind == "num"
            ),
            default=0,
        )
        states = [
            _ActiveNode(k, node, plan, attrs, width)
            for k, (node, (plan, attrs)) in enumerate(zip(active, plans))
        ]
        if memory_budget_rows is not None:
            # RF-hybrid: a node whose rows fit the budget keeps them, and
            # its subtree grows from what it kept instead of from the store.
            n_regions = len(self.store.regions())
            for st in states:
                if st.plan and st.node.n_items * n_regions <= memory_budget_rows:
                    st.cache = {}
        models: list[LinearSuffStats] = []
        bins: list[StackedSuffStats] = []
        numeric: list[np.ndarray] = []  # where the bins of numeric runs are
        # per problem, in the order the level stacks them (models, bins,
        # left cuts, right cuts): (node, region, None) for the node's own
        # model on that region, (node, None, (c, p)) for a partition of a
        # candidate, None for a problem that is neither
        model_slots, bin_slots, left_slots, right_slots = [], [], [], []
        for region, block in blocks:
            for st in states:
                # the node's rows of the block and each one's column of the
                # node's bin codes, from one lookup
                sub, at = st.index.restrict(block)
                if st.cache is not None:
                    st.cache[region] = sub
                # [1 | x | y] once per (node, block): the node's own model
                # and every bin below read the same rows.
                a = design_rows(sub.x, sub.y)
                if sub.n_examples >= self.min_examples:
                    models.append(LinearSuffStats.from_rows(a, sub.weights))
                    model_slots.append((st.k, region, None))
                if not st.plan:
                    continue
                _SPLIT_EVALS.inc(len(st.plan))
                numeric.append(st.numeric + len(bin_slots))
                bins.append(
                    StackedSuffStats.from_bins(
                        a, sub.weights, np.take(st.keys, at, axis=1), st.n_bins
                    )
                )
                bin_slots += st.bin_slots
                left_slots += st.left_slots
                right_slots += st.right_slots
        stacks = [StackedSuffStats.from_stats(models)] if models else []
        if bins:
            every = StackedSuffStats.concatenate(bins)
            stacks += [every, *every.select(np.concatenate(numeric)).cuts(width)]
        if stacks:
            stack = StackedSuffStats.concatenate(stacks)
            slots = model_slots + bin_slots + left_slots + right_slots
            kept = np.flatnonzero(
                (stack.n >= self.min_examples)
                & np.array([slot is not None for slot in slots], dtype=bool)
            )
            errors = self._errors(stack.select(kept))
            for j, err in zip(kept.tolist(), errors):
                k, region, side = slots[j]
                st = states[k]
                if side is None:
                    st.regions.append(region)
                    st.errors.append(err)
                elif err < st.min_error.get(side, np.inf):
                    st.min_error[side] = float(err)
        next_active: list[TreeNode] = []
        for st in states:
            node = st.node
            node.region, node._best_rmse = self._pick(st.regions, st.errors)
            children = self._choose_split(
                node, st.plan, lambda c, p, ids: st.min_error.get((c, p), np.inf)
            )
            if st.cache is not None:
                self._grow(children, st.cache.items, None)
            else:
                next_active.extend(children)
        return next_active

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
        """Reduced-error prune ``tree`` in place against held-out items.

        A visited node is read and fit once (``_fit``: the model it is served
        with as a leaf) and scores every item routed to it from that model.
        """
        y_of = dict(zip(np.asarray(self.task.item_ids), self.task.target_values()))

        def as_leaf(node: TreeNode, items: np.ndarray) -> list[float]:
            """Predict ``items`` with the node treated as a leaf."""
            block, train = self._fit(node)
            out = []
            for item_id in items:
                hit = np.flatnonzero(block.item_ids == item_id)
                if len(hit):
                    out.append(float(node.model.predict(block.x[hit[0]])[0]))
                else:
                    out.append(float(train.y.mean()))
            return out

        def sse(preds: Sequence[float], items: np.ndarray) -> float:
            return float(
                np.sum([(pred - y_of[i]) ** 2 for pred, i in zip(preds, items)])
            )

        def walk(node: TreeNode, routed: np.ndarray) -> list[float]:
            """Prune below ``node``; what is left of it predicts ``routed``."""
            if len(routed) == 0:
                return []
            leaf = as_leaf(node, routed)
            if node.is_leaf:
                return leaf
            values = tree._attr_of[node.split.attr]
            child_of = np.array([node.split.route(values[i]) for i in routed])
            subtree = np.empty(len(routed))
            for k, child in enumerate(node.children):
                subtree[child_of == k] = walk(child, routed[child_of == k])
            if sse(leaf, routed) <= sse(subtree, routed):
                node.split, node.children = None, []
                return leaf
            return list(subtree)

        walk(tree.root, np.asarray(list(validation_ids)))
        self._finalize_leaves(tree)

    # -------------------------------------------------------------- finalize

    def _fit(self, node: TreeNode) -> tuple[RegionBlock, RegionBlock]:
        """Fit ``node.model`` (once) on the node's rows of its bellwether
        region, with the weights a leaf is served with; returns the region's
        block and the node's training rows of it."""
        if node.region is None:  # no region has enough examples of its items
            raise SearchError(
                f"leaf with {node.n_items} items has no feasible region"
            )
        block = self.store.read(node.region)
        train = block.restrict_to(node.item_ids)
        if node.model is None:
            node.model = LinearRegression().fit(train.x, train.y, train.weights)
        return block, train

    def _finalize_leaves(self, tree: BellwetherTree) -> None:
        """Fit the leaf bellwether models and task-level error estimates
        (and the root's model, which ``predict`` falls back to)."""
        for leaf in tree.leaves():
            if leaf.error is not None:
                continue
            __, train = self._fit(leaf)
            leaf.error = self.task.error_estimator.estimate(
                train.x, train.y, train.weights
            )
        if tree.root.model is None:
            self._fit(tree.root)
