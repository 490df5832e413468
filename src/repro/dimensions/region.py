"""Candidate regions: combinations of dimension values (Section 3.1, 4.1).

A :class:`Region` fixes one value per fact-table dimension — an interval for
interval dimensions, a hierarchy node for hierarchical ones.  E.g.
``[1-8, MD]`` is "the first eight months, state of Maryland".

:class:`RegionSpace` owns the dimension list, enumerates the candidate region
set ``R`` (the cross product of per-dimension candidate values) and answers
row-membership queries against a fact table.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import RegionError
from .hierarchy import HierarchicalDimension
from .interval import Interval, IntervalDimension

Dimension = Union[IntervalDimension, HierarchicalDimension]
RegionValue = Union[Interval, str]


@dataclass(frozen=True)
class Region:
    """One candidate region: a tuple of per-dimension values."""

    values: tuple[RegionValue, ...]
    #: ``hash`` of the region, taken once: regions key every per-region dict
    #: and a frozen dataclass would rehash ``values`` on each lookup.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.values,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes are per process: a pickle carries the values only
        # and the receiving process takes its own hash.
        return Region, (self.values,)

    def __str__(self) -> str:
        parts = [str(v) for v in self.values]
        return f"[{', '.join(parts)}]"

    def __repr__(self) -> str:
        return f"Region({self})"


def region_to_json(region: Region) -> list:
    """A JSON-stable encoding of a region (strings plain, intervals tagged)."""
    return [
        v if isinstance(v, str) else {"interval": [v.start, v.end]}
        for v in region.values
    ]


def region_from_json(values: list) -> Region:
    """Inverse of :func:`region_to_json`; :class:`RegionError` on anything else."""
    decoded: list[RegionValue] = []
    for v in values:
        if isinstance(v, str):
            decoded.append(v)
        elif isinstance(v, dict) and "interval" in v:
            start, end = v["interval"]
            decoded.append(Interval(int(start), int(end)))
        else:
            raise RegionError(f"unintelligible region value {v!r}")
    return Region(tuple(decoded))


class RegionSpace:
    """The candidate region set R over a fixed list of dimensions.

    Example
    -------
    >>> time = IntervalDimension("month", 10, unit="month")
    >>> loc = HierarchicalDimension.from_spec(
    ...     "state", {"MW": ["WI", "IL"], "NE": ["NY", "MD"]},
    ...     level_names=("All", "Division", "State"))
    >>> space = RegionSpace([time, loc])
    >>> space.n_regions  # 10 prefixes x 7 nodes (4 states + 2 divisions + All)
    70
    """

    def __init__(self, dimensions: Sequence[Dimension]):
        if not dimensions:
            raise RegionError("RegionSpace needs at least one dimension")
        names = [d.attribute for d in dimensions]
        if len(set(names)) != len(names):
            raise RegionError(f"duplicate dimension attributes: {names}")
        self.dimensions: tuple[Dimension, ...] = tuple(dimensions)

    # ------------------------------------------------------------ enumeration

    def _candidate_values(self, dim: Dimension) -> list[RegionValue]:
        if isinstance(dim, IntervalDimension):
            return list(dim.intervals())
        return [node.name for node in dim.nodes()]

    def all_regions(self) -> list[Region]:
        """Every combination of candidate dimension values."""
        per_dim = [self._candidate_values(d) for d in self.dimensions]
        return [Region(tuple(combo)) for combo in itertools.product(*per_dim)]

    @property
    def n_regions(self) -> int:
        n = 1
        for dim in self.dimensions:
            n *= len(self._candidate_values(dim))
        return n

    def iter_regions(self) -> Iterator[Region]:
        per_dim = [self._candidate_values(d) for d in self.dimensions]
        for combo in itertools.product(*per_dim):
            yield Region(tuple(combo))

    # ------------------------------------------------------------- validation

    def region(self, *values) -> Region:
        """Build a validated region.

        For convenience, an integer ``t`` passed for an interval dimension is
        interpreted as the prefix ``[1, t]`` and a ``(start, end)`` tuple as
        that window (windowed dimensions validate candidacy).
        """
        if len(values) != len(self.dimensions):
            raise RegionError(
                f"expected {len(self.dimensions)} values, got {len(values)}"
            )
        resolved: list[RegionValue] = []
        for dim, value in zip(self.dimensions, values):
            if isinstance(dim, IntervalDimension):
                if isinstance(value, int):
                    value = dim.interval(value)
                elif isinstance(value, tuple) and len(value) == 2:
                    value = Interval(*value)
                if not isinstance(value, Interval):
                    raise RegionError(
                        f"dimension {dim.attribute!r} needs an Interval, got {value!r}"
                    )
                dim.validate_value(value)
            else:
                if not isinstance(value, str) or value not in dim:
                    raise RegionError(
                        f"dimension {dim.attribute!r}: unknown node {value!r}"
                    )
            resolved.append(value)
        return Region(tuple(resolved))

    # ------------------------------------------------------------- membership

    def mask(self, fact, region: Region) -> np.ndarray:
        """Boolean mask over fact rows: which rows fall inside the region."""
        result: np.ndarray | None = None
        for dim, value in zip(self.dimensions, region.values):
            column = fact.column(dim.attribute)
            if isinstance(dim, IntervalDimension):
                part = dim.membership_mask(column, value)  # type: ignore[arg-type]
            else:
                part = dim.membership_mask(column, value)  # type: ignore[arg-type]
            result = part if result is None else (result & part)
        assert result is not None
        return result

    def contains_cell(self, region: Region, cell: Sequence) -> bool:
        """Does the region contain the finest-grained cell (point/leaf tuple)?"""
        for dim, value, coord in zip(self.dimensions, region.values, cell):
            if isinstance(dim, IntervalDimension):
                if not value.contains_point(int(coord)):  # type: ignore[union-attr]
                    return False
            else:
                if not dim.contains_leaf(str(value), str(coord)):
                    return False
        return True

    def finest_cells(self) -> list[tuple]:
        """All finest-grained cells: time points x hierarchy leaves."""
        per_dim: list[list] = []
        for dim in self.dimensions:
            if isinstance(dim, IntervalDimension):
                per_dim.append(list(range(1, dim.n_points + 1)))
            else:
                per_dim.append(list(dim.leaf_names))
        return [tuple(c) for c in itertools.product(*per_dim)]

    def label(self, region: Region) -> str:
        return str(region)

    def __repr__(self) -> str:
        dims = ", ".join(d.attribute for d in self.dimensions)
        return f"RegionSpace({dims}; {self.n_regions} regions)"
