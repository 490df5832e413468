"""The immutable serving snapshot, and every reply body assembled from one.

A :class:`Snapshot` is everything a query may look at, frozen at one
store version: the region list, the evaluated profiles (all items plus
the item subsets kept warm at this version), the level tables the
all-items profile was rolled from, the region rows any other subset is
evaluated from, the fitted-model cache and the /model, /regions and /cube
bodies.  :class:`~repro.serve.state.ServerState` holds exactly one
published snapshot; a request reads that reference once and then calls
only the methods below, which touch nothing but ``self`` and their
arguments — no store, no search object, no lock.  "A response never mixes
two store versions" is therefore true by construction: there is no second
version in reach.

Bodies are JSON *bytes*, and the expensive part of each is rendered once,
by the writer, when the object it describes is built: a region result's
entry with its :class:`Profile`, a model's predictions with its
:class:`FittedModel`, the three browse bodies with the snapshot.  A
request joins those fragments with its own few scalars (version, budget
echo, feasible count); selection still runs per request, so any budget is
answered.  Nothing is filled in lazily, and nothing is keyed by request.

A method returns ``None`` when the snapshot lacks what the answer needs
(a never-seen subset's profile, an unfitted model, the cube).  A subset's
profile is a pure function of ``rows`` (:meth:`Snapshot.evaluate`), so a
reader computes it itself; for anything else the caller has the writer
build it and publish a successor snapshot.  Successor snapshots share
every unchanged piece with their predecessor.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from math import isfinite
from types import MappingProxyType

import numpy as np

from repro.core.basic import RegionResult, select_bellwether
from repro.core.regionrows import RegionRows
from repro.core.rowindex import RowIndex
from repro.dimensions import Region, region_to_json
from repro.ml import LinearRegression

from .errors import InfeasibleQueryError, NotFoundError

__all__ = [
    "FittedModel",
    "Profile",
    "Snapshot",
    "dumps",
    "render_cube",
    "render_heads",
    "render_regions",
]


def dumps(value) -> bytes:
    """``value`` as JSON bytes, with the separators every body uses."""
    return json.dumps(value).encode()


def _float(value) -> str:
    """``json.dumps(float(value))``: ``float.__repr__``, and JSON's three
    non-finite spellings."""
    value = float(value)
    if isfinite(value):
        return repr(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def render_heads(costs: Mapping[Region, float]) -> dict[Region, bytes]:
    """Region -> the start of its ``bellwether`` / ``feasible[]`` entry.

    The three fields that depend on the region alone, ``costs`` pricing it;
    :meth:`Profile.render` appends a subset's six.
    """
    return {
        region: dumps(
            {
                "region": region_to_json(region),
                "region_str": str(region),
                "cost": float(cost),
            }
        )[:-1]
        for region, cost in costs.items()
    }


@dataclass(frozen=True)
class Profile:
    """One item subset's evaluated regions, each one's JSON rendered once."""

    results: tuple[RegionResult, ...]
    #: Region -> its ``bellwether`` / ``feasible[]`` entry.
    json: Mapping[Region, bytes]

    @classmethod
    def render(
        cls, results: Sequence[RegionResult], heads: Mapping[Region, bytes]
    ) -> "Profile":
        """``results`` (priced as ``heads`` were) with every entry rendered:
        the region's head plus this subset's coverage and error, the bytes
        ``json.dumps`` of the whole entry would give."""
        rendered = {}
        for r in results:
            error = r.error
            rendered[r.region] = heads[r.region] + (
                ', "coverage": %s, "n_examples": %d, "rmse": %s, "sse": %s, '
                '"dof": %d, "error_kind": %s}'
                % (
                    _float(r.coverage),
                    r.n_items,
                    _float(error.rmse),
                    "null" if error.sse is None else _float(error.sse),
                    error.dof,
                    encode_basestring_ascii(error.kind),
                )
            ).encode()
        return cls(tuple(results), MappingProxyType(rendered))


@dataclass(frozen=True)
class FittedModel:
    """One /predict cache entry: ``h_r`` fit on a region's rows for an item set."""

    model: LinearRegression
    #: The /predict body from ``"items"`` on — all of it but the
    #: version and budget echo.
    json: bytes

    @classmethod
    def fit(cls, model: LinearRegression, block, region: Region, ids) -> "FittedModel":
        """The entry for ``model`` fit on ``region``'s ``block`` restricted to ``ids``."""
        train = block.restrict_to(np.asarray(ids))
        # Items without rows in the region fall back to the training mean.
        train_mean = float(train.y.mean()) if train.n_examples else 0.0
        rows = RowIndex(block.item_ids)
        wanted = np.asarray(ids)
        at = rows.locate(wanted)
        found = at < len(rows)
        row_of = dict(zip(wanted[found].tolist(), at[found].tolist()))
        predictions = []
        total = 0.0
        for item in ids:
            row = row_of.get(item)
            # One row at a time: the per-item value is bit-for-bit the
            # model applied to the item's first row in the region.
            value = (
                train_mean
                if row is None
                else float(model.predict(block.x[row])[0])
            )
            total += value
            predictions.append(
                {"item": int(item), "value": value, "fallback": row is None}
            )
        tail = {
            "items": ids,
            "region": region_to_json(region),
            "region_str": str(region),
            "coef": [float(c) for c in model.coef],
            "predictions": predictions,
            "aggregate": float(total),
        }
        return cls(model, dumps(tail)[1:])


def render_regions(version: int, regions, profile: Profile, cost) -> bytes:
    """The /regions body: region addressing + the all-items profile.

    ``cost`` (region -> float) prices the regions the profile skipped.
    """
    by_region = {r.region: r for r in profile.results}
    entries = []
    for index, region in enumerate(regions):
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
    return dumps(
        {"store_version": version, "n_regions": len(entries), "regions": entries}
    )


def render_cube(version: int, cube) -> dict[tuple[int, ...] | None, bytes]:
    """Every /cube body: the lattice overview under ``None``, then one per level."""
    levels = sorted({s.level for s in cube.subsets})
    bodies = {}
    counts = []
    for level in levels:
        entries = [
            {
                "nodes": [str(n) for n in e.subset.nodes],
                "n_items": int(e.n_items),
                "found": e.found,
                "region": None if e.region is None else region_to_json(e.region),
                "region_str": None if e.region is None else str(e.region),
                "rmse": None if e.error is None else float(e.error.rmse),
            }
            for e in cube.crosstab(level)
        ]
        counts.append({"level": list(level), "n_subsets": len(entries)})
        bodies[level] = dumps(
            {
                "store_version": version,
                "level": list(level),
                "n_subsets": len(entries),
                "subsets": entries,
            }
        )
    overview = {"store_version": version, "n_subsets": len(cube), "levels": counts}
    return {None: dumps(overview), **bodies}


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
    #: ``frozenset(item_ids)`` (``None`` = all items) -> evaluated profile.
    profiles: Mapping[frozenset | None, Profile]
    #: The /model and /regions bodies (:func:`render_regions`).
    model_body: bytes
    regions_body: bytes
    #: Materialized level tables the all-items profile and cube roll from.
    tables: tuple | None = None
    #: The /cube bodies (:func:`render_cube`), built on first request at
    #: this version.
    cube: Mapping[tuple[int, ...] | None, bytes] | None = None
    #: ``(region, item-id tuple)`` -> fitted /predict model.
    models: Mapping[tuple, FittedModel] = field(default_factory=dict)
    #: Per-region evaluation cost and the search's row threshold, for
    #: results evaluated from ``rows``.
    costs: Mapping[Region, float] = field(default_factory=dict)
    min_examples: int = 0
    #: Every priced region's entry head (:func:`render_heads` of ``costs``).
    heads: Mapping[Region, bytes] = field(default_factory=dict)
    #: Every region's training rows: what a never-seen item subset is
    #: evaluated from.  ``None`` until the first subset question at a
    #: deployment (one scan builds it); carried across deltas after that.
    rows: RegionRows | None = None

    def __post_init__(self):
        # Own read-only copies: nothing the builder keeps can alias in.  A
        # read-only mapping already is one, a predecessor's, kept as it is.
        for name in ("profiles", "models", "cube", "costs", "heads"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, MappingProxyType):
                object.__setattr__(self, name, MappingProxyType(dict(value)))

    # ------------------------------------------------------------ /bellwether

    def evaluate(self, ids) -> Profile:
        """The profile of item subset ``ids``, computed from ``rows``."""
        return Profile.render(
            self.rows.evaluate(ids, self.costs, self.min_examples), self.heads
        )

    def bellwether(
        self, criterion, budget, ids
    ) -> tuple[bytes, RegionResult] | None:
        """The exact /bellwether body and its winner; ``None`` = subset not profiled."""
        profile = self.profiles.get(None if ids is None else frozenset(ids))
        if profile is None:
            return None
        return self.bellwether_of(profile, criterion, budget, ids)

    def bellwether_of(
        self, profile: Profile, criterion, budget, ids
    ) -> tuple[bytes, RegionResult]:
        """:meth:`bellwether` from ``profile``: ``ids``' own, held here or
        just computed by :meth:`evaluate`."""
        result = select_bellwether(profile.results, criterion)
        best = result.bellwether
        if best is None:
            raise infeasible(budget, ids)
        rendered = profile.json
        body = (
            b'{"store_version": %d, "mode": "exact", "budget": %s, "items": %s, '
            b'"found": true, "bellwether": %s, "n_feasible": %d, "feasible": [%s]}'
        ) % (
            self.version,
            dumps(budget),
            dumps(ids),
            rendered[best.region],
            len(result.feasible),
            b", ".join([rendered[r.region] for r in result.feasible]),
        )
        return body, best

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
        result = select_bellwether(profile.results, criterion)
        if result.bellwether is None:
            raise infeasible(budget, ids)
        return result.bellwether.region

    def predict(self, criterion, budget, ids, region) -> bytes | None:
        """The exact /predict body; ``None`` = profile or model missing."""
        region = self.resolve_region(criterion, budget, ids, region)
        entry = None if region is None else self.models.get((region, tuple(ids)))
        if entry is None:
            return None
        return (
            b'{"store_version": %d, "mode": "exact", "budget": %s, '
            % (self.version, dumps(budget))
        ) + entry.json

    # ------------------------------------------------------------------ /cube

    def cube_level(self, level: tuple[int, ...] | None) -> bytes | None:
        """The lattice overview or one level's cells; ``None`` = cube not built."""
        if self.cube is None:
            return None
        body = self.cube.get(level)
        if body is None:
            have = [list(lv) for lv in self.cube if lv is not None]
            raise NotFoundError(f"no lattice level {list(level)}; have {have}")
        return body
