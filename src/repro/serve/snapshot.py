"""The immutable serving snapshot, and every answer computed from one.

A :class:`Snapshot` is everything a query may look at, frozen at one
store version: the region list and store summary, the evaluated profiles
(all items plus every item subset seen at this version), the level
tables they were rolled from, the browse cube and the fitted-model cache.
:class:`~repro.serve.state.ServerState` holds exactly one published
snapshot; a request reads that reference once and then calls only the
methods below, which touch nothing but ``self`` and their arguments — no
store, no search object, no lock.  "A response never mixes two store
versions" is therefore true by construction: there is no second version
in reach.

A method returns ``None`` when the snapshot lacks what the answer needs
(a never-seen subset's profile, an unfitted model, the cube); the caller
then has the writer build it and publish a successor snapshot.  Successor
snapshots share every unchanged piece with their predecessor.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from repro.core.basic import RegionResult, select_bellwether
from repro.core.rowindex import RowIndex
from repro.dimensions import Region
from repro.ml import LinearRegression
from repro.storage.columnar import region_to_json

from .errors import InfeasibleQueryError, NotFoundError

__all__ = ["FittedModel", "Snapshot"]


@dataclass(frozen=True)
class FittedModel:
    """One /predict cache entry: ``h_r`` fit on a region's rows for an item set."""

    model: LinearRegression
    #: The region's full feature matrix, and its item id -> row index.
    x: np.ndarray
    rows: RowIndex
    #: Mean target over the region's rows for the item set (the fallback).
    train_mean: float

    @classmethod
    def from_block(cls, model: LinearRegression, block, ids) -> "FittedModel":
        """The entry for ``model`` fit on ``block`` restricted to ``ids``."""
        train = block.restrict_to(np.asarray(ids))
        return cls(
            model=model,
            x=block.x,
            rows=RowIndex(block.item_ids),
            train_mean=float(train.y.mean()) if train.n_examples else 0.0,
        )


def _region_result_json(r: RegionResult) -> dict:
    return {
        "region": region_to_json(r.region),
        "region_str": str(r.region),
        "cost": float(r.cost),
        "coverage": float(r.coverage),
        "n_examples": int(r.n_items),
        "rmse": float(r.rmse),
        "sse": None if r.error.sse is None else float(r.error.sse),
        "dof": int(r.error.dof),
        "error_kind": r.error.kind,
    }


def infeasible(budget, ids) -> InfeasibleQueryError:
    return InfeasibleQueryError(
        f"no feasible region for budget={budget!r} over "
        f"{'all items' if ids is None else f'{len(ids)} items'}"
    )


@dataclass(frozen=True)
class Snapshot:
    """All query-visible serving state at one store version."""

    version: int
    regions: tuple[Region, ...]
    n_examples_total: int
    #: ``frozenset(item_ids)`` (``None`` = all items) -> evaluated profile.
    profiles: Mapping[frozenset | None, Sequence[RegionResult]]
    #: Materialized level tables the all-items profile and cube roll from.
    tables: tuple | None = None
    #: The /cube browse cube, built on first request at this version.
    cube: object | None = None
    #: ``(region, item-id tuple)`` -> fitted /predict model.
    models: Mapping[tuple, FittedModel] = field(default_factory=dict)

    def __post_init__(self):
        # Own read-only copies: nothing the builder keeps can alias in.
        for name in ("profiles", "models"):
            object.__setattr__(
                self, name, MappingProxyType(dict(getattr(self, name)))
            )

    # ------------------------------------------------------------ /bellwether

    def bellwether(self, criterion, budget, ids) -> dict | None:
        """The exact /bellwether payload; ``None`` = subset not profiled."""
        profile = self.profiles.get(None if ids is None else frozenset(ids))
        if profile is None:
            return None
        result = select_bellwether(profile, criterion)
        if result.bellwether is None:
            raise infeasible(budget, ids)
        return {
            "store_version": self.version,
            "mode": "exact",
            "budget": budget,
            "items": ids,
            "found": True,
            "bellwether": _region_result_json(result.bellwether),
            "n_feasible": len(result.feasible),
            "feasible": [_region_result_json(r) for r in result.feasible],
        }

    # --------------------------------------------------------------- /predict

    def resolve_region(self, criterion, budget, ids, region) -> Region | None:
        """The region /predict answers from; ``None`` = subset not profiled.

        ``region=None`` resolves to the bellwether for ``ids`` under the
        criterion; an explicit region must exist at this version.
        """
        if region is not None:
            if region not in self.regions:
                raise NotFoundError(f"unknown region {region}")
            return region
        profile = self.profiles.get(frozenset(ids))
        if profile is None:
            return None
        result = select_bellwether(profile, criterion)
        if result.bellwether is None:
            raise infeasible(budget, ids)
        return result.bellwether.region

    def predict(self, criterion, budget, ids, region) -> dict | None:
        """The exact /predict payload; ``None`` = profile or model missing."""
        region = self.resolve_region(criterion, budget, ids, region)
        entry = None if region is None else self.models.get((region, tuple(ids)))
        if entry is None:
            return None
        wanted = np.asarray(ids)
        found = wanted[entry.rows.contains(wanted)]
        row_of = dict(zip(found.tolist(), entry.rows.rows_of(found).tolist()))
        predictions = []
        total = 0.0
        for item in ids:
            row = row_of.get(item)
            # One row at a time: the per-item value is bit-for-bit the
            # model applied to the item's first row in the region.
            value = (
                entry.train_mean
                if row is None
                else float(entry.model.predict(entry.x[row])[0])
            )
            total += value
            predictions.append(
                {"item": int(item), "value": value, "fallback": row is None}
            )
        return {
            "store_version": self.version,
            "mode": "exact",
            "budget": budget,
            "items": ids,
            "region": region_to_json(region),
            "region_str": str(region),
            "coef": [float(c) for c in entry.model.coef],
            "predictions": predictions,
            "aggregate": float(total),
        }

    # --------------------------------------------------------------- /regions

    def regions_info(self, cost) -> dict:
        """Region addressing + the all-items profile (``cost``: region -> float)."""
        by_region = {r.region: r for r in self.profiles[None]}
        entries = []
        for index, region in enumerate(self.regions):
            rr = by_region.get(region)
            entries.append(
                {
                    "index": index,
                    "key": region_to_json(region),
                    "region": str(region),
                    "cost": float(rr.cost if rr else cost(region)),
                    "evaluable": rr is not None,
                    "coverage": None if rr is None else float(rr.coverage),
                    "n_examples": None if rr is None else int(rr.n_items),
                    "rmse": None if rr is None else float(rr.rmse),
                }
            )
        return {
            "store_version": self.version,
            "n_regions": len(entries),
            "regions": entries,
        }

    # ------------------------------------------------------------------ /cube

    def cube_info(self, level: tuple[int, ...] | None) -> dict | None:
        """Lattice overview or one level's cells; ``None`` = cube not built."""
        cube = self.cube
        if cube is None:
            return None
        levels = sorted({s.level for s in cube.subsets})
        if level is None:
            counts = {
                lv: sum(1 for s in cube.subsets if s.level == lv)
                for lv in levels
            }
            return {
                "store_version": self.version,
                "n_subsets": len(cube),
                "levels": [
                    {"level": list(lv), "n_subsets": counts[lv]}
                    for lv in levels
                ],
            }
        if level not in levels:
            raise NotFoundError(
                f"no lattice level {list(level)}; have "
                f"{[list(lv) for lv in levels]}"
            )
        entries = []
        for e in cube.crosstab(level):
            entries.append(
                {
                    "nodes": [str(n) for n in e.subset.nodes],
                    "n_items": int(e.n_items),
                    "found": e.found,
                    "region": None if e.region is None else region_to_json(e.region),
                    "region_str": None if e.region is None else str(e.region),
                    "rmse": None if e.error is None else float(e.error.rmse),
                }
            )
        return {
            "store_version": self.version,
            "level": list(level),
            "n_subsets": len(entries),
            "subsets": entries,
        }
