"""Cube-space dimensions: hierarchies, intervals, regions, costs, lattices."""

from .cost import (
    CallableCostModel,
    CellCostModel,
    CostModel,
    ProductCostModel,
    ZeroCostModel,
)
from .errors import CostError, DimensionError, HierarchyError, RegionError
from .hierarchy import HierarchicalDimension, HierarchyNode
from .interval import Interval, IntervalDimension, WindowedIntervalDimension
from .lattice import CubeSubset, ItemHierarchies, RollupMap
from .region import Region, RegionSpace, region_from_json, region_to_json

__all__ = [
    "CallableCostModel",
    "CellCostModel",
    "CostError",
    "CostModel",
    "CubeSubset",
    "DimensionError",
    "HierarchicalDimension",
    "HierarchyError",
    "HierarchyNode",
    "Interval",
    "IntervalDimension",
    "ItemHierarchies",
    "ProductCostModel",
    "Region",
    "RegionError",
    "RegionSpace",
    "RollupMap",
    "WindowedIntervalDimension",
    "ZeroCostModel",
    "region_from_json",
    "region_to_json",
]
