"""Process-wide serving state shared by every request thread.

One :class:`ServerState` owns the versioned store, the
:class:`~repro.core.BasicBellwetherSearch` profile and the materialized
cube tables (:mod:`repro.storage.cubetables`), and publishes what queries
may see of them as one immutable :class:`~repro.serve.snapshot.Snapshot`
held in a single attribute:

* **Readers** load that attribute once and answer from the snapshot with
  no lock — no fact scans, no mutation, any number in parallel, and never
  two store versions in one response.  That includes a /bellwether over
  an item subset nobody asked before: the snapshot holds every region's
  rows (:class:`~repro.core.regionrows.RegionRows`), the subset's profile
  is a pure function of them, and the reader that computed it takes the
  mutex only to offer it for reuse (:meth:`ServerState._offer`).
* **Writers** — store deltas, version adoption, the one scan that first
  builds the region rows, the first touch of a /predict model — take the
  one writer mutex, bring the search, tables and rows forward through
  the adopt-and-patch path (:func:`build_cube_tables` +
  :meth:`BasicBellwetherSearch.refresh` + :meth:`RegionRows.advance`),
  build the next snapshot off to the side and publish it with one
  reference assignment.  A query the published snapshot can answer never
  waits on that mutex, even while a delta is in flight
  (:meth:`ServerState._current` is the whole rule).

Every response is stamped with the ``store_version`` of the snapshot it
was computed from.  Each read endpoint comes twice: ``*_body`` returns the
reply as JSON bytes, assembled from what the snapshot holds, for the
HTTP layer to write straight through; the dict-returning method
beside it is ``json.loads`` of those bytes, so in-process and HTTP callers
cannot disagree.

The :mod:`repro.obs` registry is single-threaded by design, so all serve
instrument updates go through ``_INSTRUMENT_LOCK`` here
(:func:`record_request` is the hook the HTTP layer calls).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from itertools import islice
from pathlib import Path
from types import MappingProxyType

import numpy as np

from repro.analysis.runtime import (
    SERVE_INSTRUMENT,
    SERVE_STATE_WRITER,
    TrackedLock,
)
from repro.aqp import ApproxMiss, AqpConfig, AqpEngine
from repro.core import BasicBellwetherSearch, BellwetherCubeBuilder
from repro.core.basic import RegionProfile
from repro.core.exceptions import SearchError
from repro.core.regionrows import RegionRows
from repro.dimensions import RegionError, region_from_json, region_to_json
from repro.exceptions import ConfigError
from repro.exec import ParallelConfig
from repro.incremental import build_cube_tables
from repro.ml import TrainingSetEstimator, default_model_factory
from repro.obs.catalog import (
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
    SERVE_ERRORS,
    SERVE_LATENCY_AQP,
    SERVE_LATENCY_AQP_TRAIN,
    SERVE_LATENCY_BELLWETHER,
    SERVE_LATENCY_CUBE,
    SERVE_LATENCY_MODEL,
    SERVE_LATENCY_PREDICT,
    SERVE_LATENCY_REGIONS,
    SERVE_REQUESTS,
    SERVE_STAGE_ANSWER,
    SERVE_STAGE_PARSE,
    SERVE_STAGE_WRITE,
    SERVE_VERSION_ADOPTIONS,
    SERVE_ZERO_SCAN_QUERIES,
    STORE_FULL_SCANS,
)
from repro.obs.metrics import get_registry
from repro.storage import StorageError, TrainingDataStore

from .errors import BadRequestError, InfeasibleQueryError, NotFoundError
from .snapshot import (
    FittedModel,
    Snapshot,
    dumps,
    infeasible,
    render_cube,
    render_heads,
    render_regions,
)

__all__ = ["ENDPOINTS", "ServerState", "record_request"]

#: Routable endpoints, advertised by /model and /healthz.
ENDPOINTS = (
    "GET /model",
    "GET /regions",
    "GET /cube",
    "GET /aqp",
    "POST /bellwether",
    "POST /predict",
    "POST /aqp/train",
    "GET /healthz",
    "GET /metricsz",
)

#: Item-subset profiles kept warm at once (the all-items profile is not
#: counted and never evicted).  The largest pool any caller keeps warm is
#: 4; an evicted subset asked again is a cold answer from the region rows
#: (~2.3–4 ms over 156 regions on a 2-vCPU VM) against ~0.05 ms for a warm
#: answer, whose selection from the kept profile is ~0.015 ms.
MAX_SUBSET_PROFILES = 64

# The registry's increments are plain ``+=`` (single-threaded by design);
# the service is the one multi-threaded client, so it brings its own lock.
# TrackedLock reports to the opt-in runtime checker under the canonical
# name the static rules (RPR007/RPR008) use for the same lock.
_INSTRUMENT_LOCK = TrackedLock(SERVE_INSTRUMENT)
_REGISTRY = get_registry()
_REQUESTS = _REGISTRY.counter(SERVE_REQUESTS)
_ERRORS = _REGISTRY.counter(SERVE_ERRORS)
_CACHE_HITS = _REGISTRY.counter(SERVE_CACHE_HITS)
_CACHE_MISSES = _REGISTRY.counter(SERVE_CACHE_MISSES)
_VERSION_ADOPTIONS = _REGISTRY.counter(SERVE_VERSION_ADOPTIONS)
_ZERO_SCAN_QUERIES = _REGISTRY.counter(SERVE_ZERO_SCAN_QUERIES)
_FULL_SCANS = _REGISTRY.counter(STORE_FULL_SCANS)
_LATENCY = {
    "model": _REGISTRY.histogram(SERVE_LATENCY_MODEL),
    "regions": _REGISTRY.histogram(SERVE_LATENCY_REGIONS),
    "cube": _REGISTRY.histogram(SERVE_LATENCY_CUBE),
    "bellwether": _REGISTRY.histogram(SERVE_LATENCY_BELLWETHER),
    "predict": _REGISTRY.histogram(SERVE_LATENCY_PREDICT),
    "aqp": _REGISTRY.histogram(SERVE_LATENCY_AQP),
    "aqp/train": _REGISTRY.histogram(SERVE_LATENCY_AQP_TRAIN),
}
_STAGES = tuple(
    _REGISTRY.histogram(name)
    for name in (SERVE_STAGE_PARSE, SERVE_STAGE_ANSWER, SERVE_STAGE_WRITE)
)


def record_request(
    endpoint: str, elapsed_s: float, error: bool, stages=None
) -> None:
    """Count one answered request and observe its latency (thread-safe).

    ``stages``: the ``(parse, answer, write)`` seconds the latency splits into.
    """
    with _INSTRUMENT_LOCK:
        _REQUESTS.inc()
        if error:
            _ERRORS.inc()
        hist = _LATENCY.get(endpoint)
        if hist is not None:
            hist.observe(elapsed_s)
        if stages is not None:
            for hist, seconds in zip(_STAGES, stages):
                hist.observe(seconds)


def _record_cache(hit: bool) -> None:
    with _INSTRUMENT_LOCK:
        (_CACHE_HITS if hit else _CACHE_MISSES).inc()


def _record_adoption() -> None:
    with _INSTRUMENT_LOCK:
        _VERSION_ADOPTIONS.inc()


def _record_zero_scan() -> None:
    with _INSTRUMENT_LOCK:
        _ZERO_SCAN_QUERIES.inc()


def _finite_number(value, what: str) -> float:
    """A finite JSON number as a float; anything else is a 400."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise BadRequestError(f"{what} must be finite, got {value!r}")
    return number


class ServerState:
    """The one shared, versioned serving state: a published snapshot.

    Parameters
    ----------
    task, store:
        The problem definition and its (possibly appending) training store.
        The task's error estimator must be the plain
        :class:`~repro.ml.TrainingSetEstimator`: every served error is
        solved from sufficient statistics (cube tables, region rows).
    hierarchies:
        Item hierarchies enabling the /cube drill-down endpoints and the
        materialized-tables warm path; requires ``tables_dir``.
    tables_dir:
        Directory for the persisted cube tables (level tables + the
        base-cell table they are patched from, one artifact).  Mandatory
        with ``hierarchies``.
    costs:
        Optional precomputed per-region costs (else from ``task.cost``).
    parallel:
        Fan the all-items profile's raw re-evaluations out over this
        :class:`ParallelConfig`.  Use a thread backend — forking from a
        multi-threaded server process is deadlock-prone.
    dataset_name:
        Advertised by /model and /healthz.
    min_subset_size, min_examples:
        Builder/search thresholds, as in the batch paths.
    aqp_dir:
        Directory for the approximate tier's workload journal.  Enables
        ``mode=approx`` on /bellwether and /predict plus the /aqp
        endpoints; omitted = exact-only serving, exactly as before.
    aqp_config:
        Optional :class:`~repro.aqp.AqpConfig` tuning the learned surface.
    """

    def __init__(
        self,
        task,
        store: TrainingDataStore,
        hierarchies=None,
        *,
        tables_dir: str | Path | None = None,
        costs=None,
        parallel: ParallelConfig | None = None,
        dataset_name: str = "dataset",
        min_subset_size: int = 3,
        min_examples: int | None = None,
        aqp_dir: str | Path | None = None,
        aqp_config: AqpConfig | None = None,
    ):
        est = task.error_estimator
        if not (
            isinstance(est, TrainingSetEstimator)
            and est.model_factory is default_model_factory
        ):
            raise ConfigError(
                "the query service answers the algebraic training-set "
                "estimator only: cube tables and region rows hold its "
                "sufficient statistics, and an item subset's profile is "
                "solved from them — build the task with "
                "error_estimator=TrainingSetEstimator()"
            )
        if hierarchies is not None and tables_dir is None:
            raise ConfigError(
                "serving with hierarchies requires tables_dir (the "
                "materialized cube tables back the /cube and warm paths)"
            )
        if parallel is not None and parallel.workers > 1 and (
            parallel.backend == "process"
        ):
            raise ConfigError(
                "a threaded server must not fork worker processes; use "
                "ParallelConfig(backend='thread') (or workers=1)"
            )
        self.task = task
        self.dataset_name = dataset_name
        # Writer-side state: the store, the search and the builder move
        # only under ``_writer``; requests see them through ``_snapshot``.
        self.store = store
        self.search = BasicBellwetherSearch(
            task, store, costs=costs, min_examples=min_examples
        )
        self.builder = (
            BellwetherCubeBuilder(
                task,
                store,
                hierarchies,
                min_subset_size=min_subset_size,
                min_examples=min_examples,
            )
            if hierarchies is not None
            else None
        )
        self._tables_dir = None if tables_dir is None else Path(tables_dir)
        self._parallel = parallel
        self._writer = TrackedLock(SERVE_STATE_WRITER)
        self._known_items = {int(i) for i in task.item_ids}
        self._t0 = time.monotonic()
        # The approximate tier: journal + learned surface.  Counter updates
        # share the serve instrument lock (the registry is single-threaded
        # by design); the engine swaps its model reference under the
        # writer mutex, and readers load that reference once per query.
        self.aqp = (
            AqpEngine(
                aqp_dir,
                task=task,
                hierarchies=hierarchies,
                config=aqp_config,
                instrument_lock=_INSTRUMENT_LOCK,
            )
            if aqp_dir is not None
            else None
        )
        # The version-independent part of /model.
        self._model_static = {
            "service": "repro.serve",
            "dataset": dataset_name,
            "backend": type(store).__name__,
            "n_items": int(task.n_items),
            "item_ids": sorted(self._known_items),
            "feature_names": list(store.feature_names),
            "lattice": None
            if self.builder is None
            else {
                "n_levels": self.builder.n_levels,
                "n_significant_subsets": len(self.builder.significant_subsets),
                "min_subset_size": self.builder.min_subset_size,
                "min_examples": self.builder.min_examples,
                "geometry": self.builder.geometry_signature(),
            },
            "aqp_enabled": self.aqp is not None,
            "endpoints": list(ENDPOINTS),
        }
        # Pre-warm: first table build + profile, before any thread exists.
        self._snapshot: Snapshot | None = None
        self._adopt()

    # ----------------------------------------------------- snapshot lifecycle

    @property
    def _tables(self):
        """The published level tables (``None`` without hierarchies)."""
        return self._snapshot.tables

    def _current(self) -> Snapshot:
        """The freshness rule: the snapshot a request starting now answers from.

        The published one, whenever the store has not moved past it or a
        writer is already active — that writer publishes the successor
        before it returns, and until then the old version is the
        consistent answer.  Only a store that moved with nobody adopting
        it (mutated behind the server's back) sends the request through
        the writer path first.  ``store.version`` is a single int load,
        the one piece of writer-side state read outside the writer mutex.
        """
        snap = self._snapshot
        if snap.version != self.store.version and not self._writer.locked():
            with self._writer:
                snap = self._adopt()
        return snap

    def _answer(self, render, build=None) -> tuple[Snapshot, object]:
        """``render(snapshot)`` from the current snapshot, else via the writer.

        ``render`` returns ``None`` when the snapshot lacks something;
        ``build(snapshot)`` then runs under the writer mutex and returns
        a published successor that has it.  Returns the snapshot that
        answered beside the answer.
        """
        snap = self._current()
        answer = render(snap)
        if answer is not None:
            _record_cache(hit=True)
            return snap, answer
        with self._writer:
            snap = self._adopt()
            _record_cache(hit=False)
            answer = render(snap)
            if answer is None:
                snap = build(snap)
                answer = render(snap)
            return snap, answer

    def _publish(self, snapshot: Snapshot) -> Snapshot:
        """Make ``snapshot`` the one requests see.  (writer mutex held)"""
        self._snapshot = snapshot
        return snapshot

    def _adopt(self) -> Snapshot:
        """Publish a snapshot at the store's version.  (writer mutex held)

        Cube tables adopt the persisted base-cell table and patch it
        forward through the store changelog (:func:`build_cube_tables` —
        statistics only, nothing is solved for them), then the search
        profile refreshes from them and the region rows re-read what the changelog names —
        region reads at most, never a fact scan once tables exist.  The
        previous snapshot keeps answering until the assignment.
        """
        version = int(self.store.version)
        snap = self._snapshot
        if snap is not None and snap.version == version:
            return snap
        tables = None
        if self.builder is not None:
            tables = tuple(build_cube_tables(self.builder, self._tables_dir))
        self.search.refresh(parallel=self._parallel, tables=tables)
        _record_adoption()
        regions = tuple(self.store.regions())
        # Region heads are a function of the regions and their costs: while
        # those stand, the predecessor's costs and rendered heads are this
        # snapshot's.  A region the search never priced (too few rows to be
        # evaluated) is priced as /regions prices it.
        costs = self.search.costs
        cost = np.array(
            [costs[r] if r in costs else self.task.cost(r) for r in regions],
            dtype=np.float64,
        )
        if snap is not None and regions == snap.regions and np.array_equal(
            cost, snap.cost
        ):
            cost, heads = snap.cost, snap.heads
        else:
            heads = render_heads(regions, cost)
        profiles = {
            key: RegionProfile.of(results, regions)
            for key, results in self.search.profiles.items()
        }
        return self._publish(
            Snapshot(
                version=version,
                regions=regions,
                profiles=profiles,
                model_body=dumps(
                    {
                        **self._model_static,
                        "store_version": version,
                        "n_regions": len(regions),
                        "n_examples_total": int(self.store.n_examples_total),
                    }
                ),
                regions_body=render_regions(
                    version, regions, profiles[None], self.task.cost
                ),
                tables=tables,
                cost=cost,
                heads=heads,
                min_examples=self.search.min_examples,
                rows=self._carried_rows(snap),
            )
        )

    def _carried_rows(self, snap: Snapshot | None) -> RegionRows | None:
        """``snap``'s region rows at the store's version.  (writer mutex held)"""
        if snap is None or snap.rows is None:
            return None
        try:
            deltas = self.store.deltas_since(snap.version)
        except StorageError:
            # A changelog gap: the next subset question rebuilds by scan.
            return None
        return snap.rows.advance(self.store, deltas)

    def _with_profiles(self, snap: Snapshot, fresh=MappingProxyType({})) -> Snapshot:
        """Publish ``fresh`` and every profile the search holds.  (writer mutex held)

        ``fresh`` maps item subsets to profiles evaluated from
        ``snap.rows``; the search's are what AQP training profiled on it,
        converted to columns here, once.  New ones go last; past
        ``MAX_SUBSET_PROFILES`` the oldest-inserted subsets leave the
        snapshot and the search, their /predict models with them.  An
        evicted subset asked again is an ordinary miss.
        """
        profiles = {**snap.profiles, **fresh}
        for key, results in self.search.profiles.items():
            if key not in profiles:
                profiles[key] = RegionProfile.of(results, snap.regions)
        excess = len(profiles) - (None in profiles) - MAX_SUBSET_PROFILES
        models = snap.models
        if excess > 0:
            subsets = (key for key in profiles if key is not None)
            evicted = set(islice(subsets, excess))
            for key in evicted:
                del profiles[key]
                self.search.forget(key)
            models = {
                key: entry
                for key, entry in models.items()
                if frozenset(key[1]) not in evicted
            }
        # Handed over read-only, the dict kept by nobody: the snapshot
        # takes it as it is instead of copying it again.
        return self._publish(
            replace(snap, profiles=MappingProxyType(profiles), models=models)
        )

    def _add_profile(self, snap: Snapshot, ids) -> Snapshot:
        """Evaluate a never-seen item subset.  (writer mutex held)

        The first one at a deployment pays the one scan that builds the
        region rows, as the first /cube pays for the cube.
        """
        if snap.rows is None:
            rows = RegionRows.from_store(self.store, self.task.item_ids)
            snap = replace(snap, rows=rows)
        key = frozenset(ids)
        return self._with_profiles(snap, {key: snap.evaluate(key)})

    def _offer(self, snap: Snapshot, key: frozenset, profile: RegionProfile) -> None:
        """Publish subset ``key``'s profile a reader evaluated from ``snap.rows``,
        if that is free.

        Never behind an active writer, and only onto the snapshot it was
        computed from; otherwise it has served its one reply.
        """
        if not self._writer.acquire(blocking=False):
            return
        try:
            if self._snapshot is snap:
                self._with_profiles(snap, {key: profile})
        finally:
            self._writer.release()

    def _add_cube(self, snap: Snapshot) -> Snapshot:
        """Build and render the /cube browse cube.  (writer mutex held)"""
        cube = self.builder.build_from_tables(snap.tables)
        return self._publish(replace(snap, cube=render_cube(snap.version, cube)))

    def _add_predict(self, snap: Snapshot, criterion, budget, ids, region) -> Snapshot:
        """Profile + fit whatever /predict lacks.  (writer mutex held)"""
        if region is None and frozenset(ids) not in snap.profiles:
            snap = self._add_profile(snap, ids)
        region = snap.resolve_region(criterion, budget, ids, region)
        if (region, tuple(ids)) in snap.models:
            return snap
        entry = FittedModel.fit(
            self.search.fit_model(region, item_ids=ids),
            self.store.read(region),
            region,
            ids,
        )
        return self._publish(
            replace(snap, models={**snap.models, (region, tuple(ids)): entry})
        )

    def apply_delta(self, delta) -> dict:
        """Apply a store delta and publish its snapshot before returning.

        Requests the previous snapshot can answer keep being answered
        from it, at its version, for the whole build.  The approximate
        tier's model is deliberately left stale: the next ``mode=approx``
        query sees the version gap, answers exactly, and (with
        ``auto_retrain``) triggers the retrain under the writer mutex —
        the fallback-then-retrain sequence the blitz pins down.
        """
        with self._writer:
            self.store.apply_delta(delta)
            version = self._adopt().version
        if self.aqp is not None:
            self.aqp.journal.log_delta(store_version=version)
        return {"store_version": version}

    # ---------------------------------------------------------- validation

    def _canonical_items(self, items) -> list[int] | None:
        """Sorted unique item ids, validated against the item table."""
        if items is None:
            return None
        if not isinstance(items, (list, tuple)) or not items:
            raise BadRequestError("items must be a non-empty list of item ids")
        # JSON integers only: 1.9, true or "3" would silently answer for an
        # item set the caller did not name.
        bad = [
            i for i in items if isinstance(i, bool) or not isinstance(i, int)
        ]
        if bad:
            raise BadRequestError(f"items must be integers, got {bad[:8]!r}")
        ids = sorted(set(items))
        unknown = [i for i in ids if i not in self._known_items]
        if unknown:
            raise BadRequestError(f"unknown item ids: {unknown[:8]}")
        return ids

    def _decode_region(self, values):
        try:
            return region_from_json(values)
        except RegionError as exc:
            raise BadRequestError(f"unintelligible region key: {exc}") from exc

    @staticmethod
    def _check_budget(budget):
        return None if budget is None else _finite_number(budget, "budget")

    @staticmethod
    def _check_mode(mode, tolerance):
        if mode is not None and mode not in ("exact", "approx"):
            raise BadRequestError(
                f"mode must be 'exact' or 'approx', got {mode!r}"
            )
        if tolerance is not None:
            if mode != "approx":
                raise BadRequestError(
                    "tolerance is only meaningful with mode='approx'"
                )
            tolerance = _finite_number(tolerance, "tolerance")
            if not tolerance > 0:
                raise BadRequestError(
                    f"tolerance must be a positive number, got {tolerance!r}"
                )
        return mode, tolerance

    def _criterion(self, budget):
        criterion = self.task.criterion
        return criterion if budget is None else criterion.with_budget(budget)

    # ---------------------------------------------------------------- /model

    def model_body(self) -> bytes:
        return self._current().model_body

    def model_info(self) -> dict:
        return json.loads(self.model_body())

    # -------------------------------------------------------------- /healthz

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "dataset": self.dataset_name,
            "store_version": self._snapshot.version,
            "uptime_s": round(time.monotonic() - self._t0, 3),
        }

    # ------------------------------------------------------------- /metricsz

    def metricsz(self) -> dict:
        version = self._snapshot.version
        with _INSTRUMENT_LOCK:
            snapshot = _REGISTRY.as_dict()
        return {"store_version": version, "metrics": snapshot}

    # -------------------------------------------------------------- /regions

    def regions_body(self) -> bytes:
        return self._answer(lambda snap: snap.regions_body)[1]

    def regions_info(self) -> dict:
        return json.loads(self.regions_body())

    # ----------------------------------------------------------------- /cube

    def cube_body(self, level: tuple[int, ...] | None = None) -> bytes:
        if self.builder is None:
            raise NotFoundError(
                "this deployment serves no item hierarchies; /cube needs them"
            )
        return self._answer(lambda snap: snap.cube_level(level), self._add_cube)[1]

    def cube_info(self, level: tuple[int, ...] | None = None) -> dict:
        return json.loads(self.cube_body(level))

    # ------------------------------------------------------------ /bellwether

    def bellwether(
        self, budget=None, items=None, mode=None, tolerance=None, explain=False
    ) -> dict:
        """:meth:`bellwether_body`, parsed."""
        return json.loads(
            self.bellwether_body(budget, items, mode, tolerance, explain)
        )

    def bellwether_body(
        self, budget=None, items=None, mode=None, tolerance=None, explain=False
    ) -> bytes:
        """Best region for item subset ``items`` under ``budget``.

        The reply names the winner and counts the feasible regions
        (``n_feasible``); ``explain=True`` also lists every feasible
        region's entry (``feasible``), in evaluation order.

        Exact path — the published snapshot profiles this subset: answered
        from it, no lock, zero scans.  A never-seen subset is evaluated
        from the snapshot's region rows on this thread — still no lock,
        zero scans — and offered for reuse; only the first one at a
        deployment goes to the writer, which scans once to build the rows.

        ``mode="approx"`` (needs ``aqp_dir``): answer from the learned
        surface — no store access at all — with a declared ``tolerance``
        bounding the rmse deviation.  Any miss (untrained key, version
        drift, out-of-tolerance self-estimate) answers exactly instead,
        annotated with ``fallback_reason``, and may trigger an adaptive
        retrain under the writer mutex.
        """
        mode, tolerance = self._check_mode(mode, tolerance)
        budget = self._check_budget(budget)
        ids = self._canonical_items(items)
        if not isinstance(explain, bool):
            raise BadRequestError(f"explain must be true or false, got {explain!r}")
        fallback_reason = None
        if mode == "approx":
            engine = self._require_aqp_mode()
            try:
                model, answer = engine.try_answer_bellwether(
                    self._current().version, budget, ids, tolerance
                )
                if not answer.found:
                    raise infeasible(budget, ids)
                _record_cache(hit=True)
                _record_zero_scan()
                return dumps(
                    self._approx_bellwether_payload(
                        model, answer, budget, ids, tolerance, explain
                    )
                )
            except ApproxMiss as miss:
                fallback_reason = miss.reason
            engine.note_fallback()
        body = self._bellwether_exact(budget, ids, explain)
        if fallback_reason is not None:
            body = self._fell_back(body, fallback_reason)
        return body

    def _fell_back(self, body: bytes, reason: str) -> bytes:
        """An exact ``body`` annotated as an approx fallback; may retrain."""
        self._maybe_retrain(reason)
        return b'%s, "requested_mode": "approx", "fallback_reason": %s}' % (
            body[:-1],
            dumps(reason),
        )

    def _bellwether_exact(self, budget, ids, explain) -> bytes:
        criterion = self._criterion(budget)
        # Unlocked `.value` reads below are a CPython-atomic int load; a
        # racing scan from another request at worst skips one zero-scan
        # tally, it cannot corrupt the counter.
        scans_before = _FULL_SCANS.value  # lint: ignore[RPR007]
        snap = self._current()
        key = None if ids is None else frozenset(ids)
        if key is not None and snap.rows is not None and key not in snap.profiles:
            # A never-seen subset is a pure function of the snapshot's
            # rows: one miss, answered here — no store, no wait on a writer.
            _record_cache(hit=False)
            profile = snap.evaluate(key)
            self._offer(snap, key, profile)
            body, winner = snap.bellwether_of(
                profile, criterion, budget, ids, explain
            )
        else:
            snap, (body, winner) = self._answer(
                lambda snap: snap.bellwether(criterion, budget, ids, explain),
                lambda snap: self._add_profile(snap, ids),
            )
        if _FULL_SCANS.value == scans_before:  # lint: ignore[RPR007]
            _record_zero_scan()
        if self.aqp is not None:
            self.aqp.journal.log_bellwether(
                store_version=snap.version,
                budget=budget,
                items=ids,
                winner=str(winner),
            )
        return body

    def _approx_bellwether_payload(
        self, model, answer, budget, ids, tolerance, explain
    ) -> dict:
        region = model.regions[answer.region_index]
        declared = tolerance if tolerance is not None else answer.estimated_error
        payload = {
            "store_version": model.store_version,
            "model_version": model.model_version,
            "mode": "approx",
            "tolerance": float(declared),
            "estimated_error": float(answer.estimated_error),
            "budget": budget,
            "items": ids,
            "found": True,
            "bellwether": {
                "region": region_to_json(region),
                "region_str": str(region),
                "cost": answer.cost,
                "coverage": answer.coverage,
                "n_examples": answer.n_examples,
                "rmse": answer.rmse,
                "error_kind": "approx",
            },
            "n_feasible": len(answer.feasible),
        }
        if explain:
            payload["feasible"] = [
                {"region_str": str(model.regions[j]), "rmse": rmse}
                for j, rmse in answer.feasible
            ]
        return payload

    # --------------------------------------------------------------- /predict

    def predict(
        self, items, region=None, budget=None, mode=None, tolerance=None
    ) -> dict:
        """:meth:`predict_body`, parsed."""
        return json.loads(self.predict_body(items, region, budget, mode, tolerance))

    def predict_body(
        self, items, region=None, budget=None, mode=None, tolerance=None
    ) -> bytes:
        """Predicted per-item values and aggregate for ``items`` from a region.

        ``region`` (a /regions ``key``) defaults to the bellwether for
        ``items`` under ``budget``.  The model is ``h_r`` fit on the
        region's rows restricted to ``items`` (exactly
        :meth:`BasicBellwetherSearch.fit_model`); items without rows in the
        region fall back to the training-set mean.

        ``mode="approx"`` answers from the trained artifact store: the
        exact payload replayed at train time for this (items, budget,
        region) — bit-for-bit the exact answer at the model's store
        version, zero store access.  Off-artifact queries fall back.
        """
        mode, tolerance = self._check_mode(mode, tolerance)
        budget = self._check_budget(budget)
        ids = self._canonical_items(items)
        if ids is None:
            raise BadRequestError("predict requires items")
        fallback_reason = None
        if mode == "approx":
            engine = self._require_aqp_mode()
            try:
                model, artifact = engine.try_answer_predict(
                    self._current().version, ids, budget, region
                )
                _record_cache(hit=True)
                _record_zero_scan()
                payload = dict(artifact)
                payload["mode"] = "approx"
                payload["model_version"] = model.model_version
                payload["tolerance"] = (
                    0.0 if tolerance is None else float(tolerance)
                )
                payload["estimated_error"] = 0.0
                return dumps(payload)
            except ApproxMiss as miss:
                fallback_reason = miss.reason
            engine.note_fallback()
        body = self._predict_exact(ids, region, budget)
        if fallback_reason is not None:
            body = self._fell_back(body, fallback_reason)
        return body

    def _predict_exact(self, ids, region, budget) -> bytes:
        region_obj = None if region is None else self._decode_region(region)
        criterion = self._criterion(budget)
        snap, body = self._answer(
            lambda snap: snap.predict(criterion, budget, ids, region_obj),
            lambda snap: self._add_predict(
                snap, criterion, budget, ids, region_obj
            ),
        )
        if self.aqp is not None:
            self.aqp.journal.log_predict(
                store_version=snap.version,
                budget=budget,
                items=ids,
                region=region,
            )
        return body

    # ------------------------------------------------------------------ /aqp

    def _require_aqp_mode(self):
        if self.aqp is None:
            raise BadRequestError(
                "mode='approx' needs an approximate tier; serve with aqp_dir"
            )
        return self.aqp

    def aqp_status(self) -> dict:
        """GET /aqp: engine/model/journal status (never 404s)."""
        if self.aqp is None:
            return {"store_version": self._current().version, "enabled": False}
        # Status before snapshot: a model is trained at a published
        # version, so the snapshot read second is never behind it.
        status = self.aqp.status()
        version = status["store_version"] = self._current().version
        model = status["model"]
        # One version per applied delta, so the gap is the delta count.
        status["versions_behind"] = (
            None if model is None else version - model["store_version"]
        )
        return status

    def aqp_train(self) -> dict:
        """POST /aqp/train: (re)train the surface from the journal."""
        if self.aqp is None:
            raise NotFoundError(
                "this deployment has no approximate tier; serve with aqp_dir"
            )
        with self._writer:
            version = self._adopt().version
            model = self._train(drift=False)
        return {
            "store_version": version,
            "model_version": model.model_version,
            "n_records": model.n_records,
            "n_trained_keys": len(model.bounds),
            "n_artifacts": len(model.artifacts),
        }

    def _train(self, drift: bool):
        """Retrain the surface at the current version.  (writer mutex held)"""
        model = self.aqp.train(
            self.search,
            costs=self.search.costs,
            predict_fn=self._replay_predict,
            drift=drift,
        )
        # Training profiled the journaled subsets straight on the search;
        # let queries see them too.
        self._with_profiles(self._snapshot)
        return model

    def _replay_predict(self, ids, region_key, budget):
        """Replay one journaled predict query exactly.  (writer mutex held)

        Returns None when the query no longer answers at this version
        (region dropped, budget now infeasible) — the artifact is skipped.
        """
        region_obj = (
            None if region_key is None else self._decode_region(region_key)
        )
        criterion = self._criterion(budget)
        try:
            snap = self._add_predict(
                self._snapshot, criterion, budget, ids, region_obj
            )
            return json.loads(snap.predict(criterion, budget, ids, region_obj))
        except (InfeasibleQueryError, NotFoundError, SearchError):
            return None

    def _maybe_retrain(self, reason: str) -> None:
        """Adaptive retrain after an approx fallback (writer mutex not held).

        Version drift always retrains (the store moved; the journal is the
        up-to-date workload); otherwise only a drifting workload — a
        windowed miss-rate above threshold — does.  A degraded engine
        (unreadable journal) stays exact-only until an explicit
        /aqp/train succeeds.
        """
        engine = self.aqp
        if engine is None or not engine.config.auto_retrain or engine.degraded:
            return
        drift = engine.drift_detected
        if reason != "version_drift" and not drift:
            return
        with self._writer:
            self._adopt()
            try:
                self._train(drift=drift and reason != "version_drift")
            except StorageError:
                # Degraded mode is set; serving continues exact-only.
                return
