"""Aggregate functions for group-by and cube computation.

Aggregates are evaluated on *grouped* data: the caller sorts rows by group id
and passes the sorted values together with the start offset of each group.
Each aggregate then reduces every group with a single vectorized
``ufunc.reduceat`` (or an equivalent trick), which is what makes the cube
computation scale.

The distributive aggregates (sum, count, min, max) and the algebraic ones
(avg, count_distinct via per-group dedup) mirror the classification in
Gray et al.'s data-cube paper that Section 6.4 of the bellwether paper
builds on.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import AggregateError

# Signature: (sorted_values, group_starts, n_groups) -> per-group array.
GroupReducer = Callable[[np.ndarray, np.ndarray, int], np.ndarray]


def _sum(values: np.ndarray, starts: np.ndarray, n_groups: int) -> np.ndarray:
    return np.add.reduceat(values.astype(np.float64, copy=False), starts)


def _min(values: np.ndarray, starts: np.ndarray, n_groups: int) -> np.ndarray:
    return np.minimum.reduceat(values, starts)


def _max(values: np.ndarray, starts: np.ndarray, n_groups: int) -> np.ndarray:
    return np.maximum.reduceat(values, starts)


def _count(values: np.ndarray, starts: np.ndarray, n_groups: int) -> np.ndarray:
    sizes = np.diff(np.append(starts, len(values)))
    return sizes.astype(np.int64)


def _avg(values: np.ndarray, starts: np.ndarray, n_groups: int) -> np.ndarray:
    totals = _sum(values, starts, n_groups)
    counts = _count(values, starts, n_groups)
    return totals / counts


def _count_distinct(values: np.ndarray, starts: np.ndarray, n_groups: int) -> np.ndarray:
    # Per group, count distinct values.  We sort values *within* each group
    # (stably keyed on a synthetic group-id column) and count boundaries.
    sizes = np.diff(np.append(starts, len(values)))
    gids = np.repeat(np.arange(n_groups), sizes)
    if values.dtype == object:
        codes = np.unique(values.astype(str), return_inverse=True)[1]
    else:
        codes = np.unique(values, return_inverse=True)[1]
    order = np.lexsort((codes, gids))
    g_sorted = gids[order]
    c_sorted = codes[order]
    new_pair = np.empty(len(values), dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (g_sorted[1:] != g_sorted[:-1]) | (c_sorted[1:] != c_sorted[:-1])
    return np.bincount(g_sorted[new_pair], minlength=n_groups).astype(np.int64)


_REGISTRY: dict[str, GroupReducer] = {
    "sum": _sum,
    "min": _min,
    "max": _max,
    "count": _count,
    "avg": _avg,
    "count_distinct": _count_distinct,
}

#: The distributive aggregates f and their merge g: f(A ∪ B) = g(f(A), f(B)).
MERGE: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": np.add,
    "count": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def reducer(name: str) -> GroupReducer:
    """Look up an aggregate implementation by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AggregateError(
            f"unknown aggregate {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def aggregate_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute: ``func(column) AS alias``.

    ``alias`` defaults to ``"{func}_{column}"``.
    """

    func: str
    column: str
    alias: str = ""

    def __post_init__(self) -> None:
        reducer(self.func)  # validate eagerly
        if not self.alias:
            object.__setattr__(self, "alias", f"{self.func}_{self.column}")
