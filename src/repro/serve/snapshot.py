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

Bodies are JSON *bytes*.  What every reply of a kind repeats is rendered
once, when the object it describes is built: every region's entry head
with the snapshot (aligned with its region tuple, as its cost array is),
a model's predictions with its :class:`FittedModel`, the three browse
bodies with the snapshot.  A subset's profile is kept as columns
(:class:`~repro.core.basic.RegionProfile`), so any budget is answered.  A
/bellwether request reads the winner of a held profile off the profile's
by-cost table (:meth:`~repro.core.basic.RegionProfile.winner`) and
renders only the entries its reply returns (:func:`render_entries`).
Beside each held profile the snapshot keeps what its warm replies repeat
(:class:`_Replies`): the items echo, and each winner's entry once it has
been asked for, one per distinct winner at most.  They go with the
profile, or with the version.  A profile evaluated for one reply, and an
``explain`` reply, select by the one winner rule
(:meth:`~repro.core.basic.RegionProfile.select`) and render the winner's
entry plus, on ``explain``, every feasible region's.  Nothing is keyed by
request.

A method returns ``None`` when the snapshot lacks what the answer needs
(a never-seen subset's profile, an unfitted model, the cube).  A subset's
profile is a pure function of ``rows`` (:meth:`Snapshot.evaluate`), so a
reader computes it itself; for anything else the caller has the writer
build it and publish a successor snapshot.  Successor snapshots share
every unchanged piece with their predecessor.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType

import numpy as np

from repro.core.basic import RegionProfile
from repro.core.regionrows import RegionRows
from repro.core.rowindex import RowIndex
from repro.dimensions import Region, region_to_json
from repro.exceptions import ConfigError
from repro.ml import LinearRegression

from .errors import InfeasibleQueryError, NotFoundError

__all__ = [
    "FittedModel",
    "Snapshot",
    "dumps",
    "render_cube",
    "render_entries",
    "render_heads",
    "render_regions",
]


def dumps(value) -> bytes:
    """``value`` as JSON bytes, with the separators every body uses."""
    return json.dumps(value).encode()


def render_heads(regions: Sequence[Region], cost: np.ndarray) -> tuple[bytes, ...]:
    """The start of each region's ``bellwether`` / ``feasible[]`` entry.

    The three fields that depend on the region alone, ``cost`` (aligned
    with ``regions``) pricing it; :func:`render_entries` appends a
    subset's six.
    """
    return tuple(
        dumps(
            {
                "region": region_to_json(region),
                "region_str": str(region),
                "cost": value,
            }
        )[:-1]
        for region, value in zip(regions, cost.tolist())
    )


def _spelled(*columns: np.ndarray) -> list[bytes]:
    """Each value of ``columns``, column after column, as ``json.dumps`` spells it.

    One ``json.dumps`` of one list: its C encoder writes every float as
    ``float.__repr__`` and the non-finite ones as ``NaN`` / ``Infinity`` /
    ``-Infinity`` — the bytes ``json.dumps`` of each value alone gives.
    """
    values = chain.from_iterable(column.tolist() for column in columns)
    return dumps([*values])[1:-1].split(b", ")


#: One entry: its region's head, then the six fields of a subset.  Entries
#: are rendered end to end, each closed by a newline, which JSON text from
#: ``json.dumps`` never holds raw.  Every served error is a training-set
#: estimate (:class:`~repro.serve.state.ServerState` refuses any other
#: estimator), so ``error_kind`` is a literal.
_ENTRY = (
    b'%b, "coverage": %b, "n_examples": %b, "rmse": %b, "sse": %b, '
    b'"dof": %b, "error_kind": "training"}\n'
)


def render_entries(
    profile: RegionProfile, heads: Sequence[bytes], picks
) -> list[bytes]:
    """Entries ``picks`` (integer indices) of ``profile``, in that order,
    rendered in one ``%``.

    ``heads`` is aligned with ``profile.regions``, priced as the profile
    was; each entry is the bytes ``json.dumps`` of the whole entry dict
    would give.  A reply renders the entries it returns and no others.
    """
    n = len(picks)
    if not n:
        return []
    columns = profile.coverage, profile.n_items, profile.rmse, profile.sse, profile.dof
    values = _spelled(*(column[picks] for column in columns))
    fields = zip(
        [heads[k] for k in profile.at[picks].tolist()],
        *(values[i : i + n] for i in range(0, 5 * n, n)),
    )
    text = (_ENTRY * n) % tuple(chain.from_iterable(fields))
    return text.split(b"\n")[:-1]


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


def render_regions(
    version: int, regions: Sequence[Region], profile: RegionProfile, cost
) -> bytes:
    """The /regions body: region addressing + the all-items profile.

    ``profile.at`` indexes ``regions``; ``cost`` (region -> float) prices
    the regions the profile skipped.
    """
    entry = dict(zip(profile.at.tolist(), range(len(profile))))
    costs, coverage, n_items, rmse = (
        column.tolist()
        for column in (profile.cost, profile.coverage, profile.n_items, profile.rmse)
    )
    entries = []
    for index, region in enumerate(regions):
        k = entry.get(index)
        entries.append(
            {
                "index": index,
                "key": region_to_json(region),
                "region": str(region),
                "cost": float(cost(region)) if k is None else costs[k],
                "evaluable": k is not None,
                "coverage": None if k is None else coverage[k],
                "n_examples": None if k is None else n_items[k],
                "rmse": None if k is None else rmse[k],
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


#: A /bellwether body: version, budget, items echo, winner entry,
#: ``n_feasible``, then the ``feasible`` list on ``explain`` (else nothing).
_BELLWETHER = (
    b'{"store_version": %d, "mode": "exact", "budget": %s, "items": %s, '
    b'"found": true, "bellwether": %s, "n_feasible": %d%s}'
)


class _Replies:
    """What every warm /bellwether reply from one held profile repeats.

    The items echo, and the rendered entry of each winner asked for so
    far.  Readers fill ``entries`` without a lock: two racing on one
    winner render the same bytes, and a dict store is atomic.
    """

    __slots__ = ("profile", "heads", "echo", "entries")

    def __init__(self, profile: RegionProfile, heads: tuple[bytes, ...], key):
        self.profile = profile
        self.heads = heads
        self.echo = dumps(None if key is None else sorted(key))
        self.entries: dict[int, bytes] = {}

    def entry(self, best: int) -> bytes:
        entry = self.entries.get(best)
        if entry is None:
            entry = render_entries(self.profile, self.heads, [best])[0]
            self.entries[best] = entry
        return entry


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
    profiles: Mapping[frozenset | None, RegionProfile]
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
    #: Every region's evaluation cost, aligned with ``regions``, and the
    #: search's row threshold, for profiles evaluated from ``rows``.
    cost: np.ndarray = field(default_factory=lambda: np.empty(0))
    min_examples: int = 0
    #: Every region's entry head (:func:`render_heads` of ``cost``).
    heads: tuple[bytes, ...] = ()
    #: Every region's training rows, ``rows.regions == regions``: what a
    #: never-seen item subset is evaluated from.  ``None`` until the first
    #: subset question at a deployment (one scan builds it); carried
    #: across deltas after that.
    rows: RegionRows | None = None
    #: ``profiles``' key -> :class:`_Replies`, derived here: a
    #: predecessor's is kept while its profile and heads stand.
    replies: Mapping[frozenset | None, _Replies] | None = None

    def __post_init__(self):
        # Own read-only copies: nothing the builder keeps can alias in.  A
        # read-only mapping already is one — a predecessor's, or one the
        # writer handed over without keeping the dict — kept as it is.
        for name in ("profiles", "models", "cube"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, MappingProxyType):
                object.__setattr__(self, name, MappingProxyType(dict(value)))
        if self.cost.flags.writeable:
            cost = self.cost.copy()
            cost.flags.writeable = False
            object.__setattr__(self, "cost", cost)
        if self.rows is not None and self.rows.regions != self.regions:
            raise ConfigError("the region rows are not the snapshot's regions")
        prior = self.replies or {}
        replies = {}
        for key, profile in self.profiles.items():
            held = prior.get(key)
            if held is None or held.profile is not profile or held.heads is not self.heads:
                held = _Replies(profile, self.heads, key)
            replies[key] = held
        object.__setattr__(self, "replies", MappingProxyType(replies))

    # ------------------------------------------------------------ /bellwether

    def evaluate(self, ids) -> RegionProfile:
        """The profile of item subset ``ids``, computed from ``rows``."""
        return self.rows.evaluate(ids, self.cost, self.min_examples)

    def bellwether(
        self, criterion, budget, ids, explain=False
    ) -> tuple[bytes, Region] | None:
        """The exact /bellwether body and its winner; ``None`` = subset not profiled.

        The winner is read off the held profile's by-cost table, and its
        entry and the items echo come from :attr:`replies`.
        """
        key = None if ids is None else frozenset(ids)
        profile = self.profiles.get(key)
        if profile is None:
            return None
        if explain:
            return self.bellwether_of(profile, criterion, budget, ids, explain)
        best, n_feasible = profile.winner(criterion)
        if best is None:
            raise infeasible(budget, ids)
        held = self.replies[key]
        body = _BELLWETHER % (
            self.version, dumps(budget), held.echo, held.entry(best), n_feasible, b""
        )
        return body, profile.region(best)

    def bellwether_of(
        self, profile: RegionProfile, criterion, budget, ids, explain=False
    ) -> tuple[bytes, Region]:
        """:meth:`bellwether` from ``profile``, by :meth:`RegionProfile.select
        <repro.core.basic.RegionProfile.select>`: ``ids``' own, just computed
        by :meth:`evaluate`, or held here and asked to ``explain``.

        The reply names the winner and counts the feasible regions;
        ``explain`` appends every feasible region's entry, in profile order.
        """
        best, feasible = profile.select(criterion)
        if best is None:
            raise infeasible(budget, ids)
        picks = np.concatenate(([best], feasible)) if explain else [best]
        entries = render_entries(profile, self.heads, picks)
        listed = b', "feasible": [%s]' % b", ".join(entries[1:]) if explain else b""
        body = _BELLWETHER % (
            self.version, dumps(budget), dumps(ids), entries[0], len(feasible), listed
        )
        return body, profile.region(best)

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
        best, __ = profile.winner(criterion)
        if best is None:
            raise infeasible(budget, ids)
        return profile.region(best)

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
