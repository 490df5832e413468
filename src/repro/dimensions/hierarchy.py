"""Hierarchical dimensions: values organized as a tree (Section 4.1).

A :class:`HierarchicalDimension` is a rooted tree whose *leaves* are the
values recorded in the fact table (e.g. states); inner nodes are coarser
dimension values (e.g. divisions, regions, ``All``).  The paper requires all
recorded values to sit at the lowest level, so we enforce uniform leaf depth.

Levels are named from the root down, e.g. ``("All", "Region", "Division",
"State")`` — matching Figure 2's Location dimension.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import HierarchyError


@dataclass
class HierarchyNode:
    """One node in a dimension hierarchy."""

    name: str
    children: list["HierarchyNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["HierarchyNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> Iterator["HierarchyNode"]:
        for node in self.walk():
            if node.is_leaf:
                yield node

    def __repr__(self) -> str:
        return f"HierarchyNode({self.name!r}, {len(self.children)} children)"


def _from_spec(name: str, spec) -> HierarchyNode:
    """Build a node from a nested mapping / list spec."""
    node = HierarchyNode(name)
    if isinstance(spec, Mapping):
        node.children = [_from_spec(child, sub) for child, sub in spec.items()]
    elif isinstance(spec, Sequence) and not isinstance(spec, str):
        node.children = [HierarchyNode(str(leaf)) for leaf in spec]
    else:
        raise HierarchyError(f"node {name!r}: spec must be a mapping or a list of leaves")
    return node


class HierarchicalDimension:
    """A tree-structured dimension over one fact-table attribute.

    Parameters
    ----------
    attribute:
        Name of the fact-table column holding the *leaf* values.
    root:
        Root of the hierarchy tree.
    level_names:
        One name per depth, root first (e.g. ``("All", "Country", "State")``).

    Example
    -------
    >>> dim = HierarchicalDimension.from_spec(
    ...     "Location",
    ...     {"CA": ["AL2"], "US": ["AL", "WI"], "KR": ["SE"]},
    ...     level_names=("All", "Country", "State"),
    ... )
    >>> sorted(dim.leaves_under("US"))
    ['AL', 'WI']
    """

    def __init__(self, attribute: str, root: HierarchyNode, level_names: Sequence[str]):
        self.attribute = attribute
        self.root = root
        self.level_names = tuple(level_names)
        self._nodes: dict[str, HierarchyNode] = {}
        self._depth: dict[str, int] = {}
        self._parents: dict[str, str | None] = {root.name: None}
        self._register(root, 0)
        leaf_depths = {self._depth[leaf.name] for leaf in root.leaves()}
        if len(leaf_depths) != 1:
            raise HierarchyError(
                f"dimension {attribute!r}: leaves at mixed depths {sorted(leaf_depths)}"
            )
        self.leaf_depth = leaf_depths.pop()
        if len(self.level_names) != self.leaf_depth + 1:
            raise HierarchyError(
                f"dimension {attribute!r}: {len(self.level_names)} level names for "
                f"depth-{self.leaf_depth} tree (need {self.leaf_depth + 1})"
            )
        self._leaf_names = tuple(sorted(leaf.name for leaf in root.leaves()))
        self._leaf_code = {name: i for i, name in enumerate(self._leaf_names)}
        # Per node: sorted array of leaf codes under it (for fast membership).
        self._leaf_codes_under: dict[str, np.ndarray] = {}
        for node in root.walk():
            codes = np.array(
                sorted(self._leaf_code[leaf.name] for leaf in node.leaves()),
                dtype=np.int64,
            )
            self._leaf_codes_under[node.name] = codes

    def _register(self, node: HierarchyNode, depth: int) -> None:
        if node.name in self._nodes:
            raise HierarchyError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._depth[node.name] = depth
        for child in node.children:
            self._parents[child.name] = node.name
            self._register(child, depth + 1)

    # ----------------------------------------------------------------- build

    @classmethod
    def from_spec(
        cls,
        attribute: str,
        spec: Mapping | Sequence,
        level_names: Sequence[str],
        root_name: str = "All",
    ) -> "HierarchicalDimension":
        """Build from a nested mapping; lists are leaf levels."""
        return cls(attribute, _from_spec(root_name, spec), level_names)

    # ------------------------------------------------------------------ query

    @property
    def leaf_names(self) -> tuple[str, ...]:
        return self._leaf_names

    @property
    def n_leaves(self) -> int:
        return len(self._leaf_names)

    def node(self, name: str) -> HierarchyNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise HierarchyError(
                f"dimension {self.attribute!r}: unknown node {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def nodes(self) -> Iterator[HierarchyNode]:
        """All nodes, root first (pre-order)."""
        return self.root.walk()

    def nodes_at_depth(self, depth: int) -> list[HierarchyNode]:
        return [n for n in self.root.walk() if self._depth[n.name] == depth]

    def depth_of(self, name: str) -> int:
        self.node(name)
        return self._depth[name]

    def level_of(self, name: str) -> str:
        """The level name (e.g. 'State') of a node."""
        return self.level_names[self.depth_of(name)]

    def parent_of(self, name: str) -> str | None:
        self.node(name)
        return self._parents[name]

    def ancestors_of(self, name: str) -> list[str]:
        """Ancestors from the node itself up to the root (inclusive)."""
        chain = [name]
        while (parent := self._parents[chain[-1]]) is not None:
            chain.append(parent)
        return chain

    def leaves_under(self, name: str) -> tuple[str, ...]:
        codes = self._leaf_codes_under[self.node(name).name]
        return tuple(self._leaf_names[c] for c in codes)

    def leaf_code(self, leaf_name: str) -> int:
        try:
            return self._leaf_code[leaf_name]
        except KeyError:
            raise HierarchyError(
                f"dimension {self.attribute!r}: {leaf_name!r} is not a leaf"
            ) from None

    def encode_leaves(self, values: np.ndarray) -> np.ndarray:
        """Map an array of recorded leaf values to dense leaf codes.

        Each distinct value is looked up once, as ``leaf_code(str(value))``,
        through a dict: ``np.unique`` would sort an object column by Python
        comparisons, which costs more than the lookups it saves.
        """
        values = np.asarray(values).tolist()
        codes = {v: self.leaf_code(str(v)) for v in set(values)}
        return np.fromiter(map(codes.__getitem__, values), dtype=np.int64, count=len(values))

    def contains_leaf(self, node_name: str, leaf_name: str) -> bool:
        return self.leaf_code(leaf_name) in set(self._leaf_codes_under[self.node(node_name).name])

    def membership_mask(self, values: np.ndarray, node_name: str) -> np.ndarray:
        """Boolean mask: which recorded values fall under the given node."""
        codes = self.encode_leaves(values)
        member = np.zeros(self.n_leaves, dtype=bool)
        member[self._leaf_codes_under[self.node(node_name).name]] = True
        return member[codes]

    def ancestor_at_depth(self, leaf_name: str, depth: int) -> str:
        """The ancestor of a leaf at the given depth (0 = root)."""
        chain = self.ancestors_of(leaf_name)  # leaf ... root
        leaf_depth = self.leaf_depth
        if not 0 <= depth <= leaf_depth:
            raise HierarchyError(f"depth {depth} out of range 0..{leaf_depth}")
        return chain[leaf_depth - depth]

    def ancestor_codes_at_depth(self, depth: int) -> tuple[np.ndarray, list[str]]:
        """For every leaf code, the index of its depth-``depth`` ancestor.

        Returns ``(codes, names)`` with ``names[codes[leaf_code]]`` being the
        ancestor node name — the rollup map used by cube computation.
        """
        names: list[str] = []
        index: dict[str, int] = {}
        codes = np.empty(self.n_leaves, dtype=np.int64)
        for leaf_code, leaf_name in enumerate(self._leaf_names):
            anc = self.ancestor_at_depth(leaf_name, depth)
            if anc not in index:
                index[anc] = len(names)
                names.append(anc)
            codes[leaf_code] = index[anc]
        return codes, names

    def __repr__(self) -> str:
        return (
            f"HierarchicalDimension({self.attribute!r}, levels={self.level_names}, "
            f"{self.n_leaves} leaves)"
        )
