"""The AQP engine: journal + model lifecycle + drift detection.

One :class:`AqpEngine` lives inside a :class:`~repro.serve.ServerState`.
It owns the workload journal and the current :class:`SurfaceModel`, but it
is **not** internally synchronized for model access — the server retrains
under its writer mutex, the swap is one reference assignment of an
immutable model, and each query loads that reference once.
What the engine does guard (with the serve layer's instrument lock, passed
in) is the metrics registry, which is single-threaded by design.

Drift has two faces here:

* **version drift** — the store moved past the model's trained version
  (an ``apply_delta``); detected per query, answered exactly, and repaired
  by the server retraining under its writer mutex;
* **workload drift** — recent queries keep missing the trained key set;
  detected by a windowed miss-rate and surfaced via
  :attr:`drift_detected`, the adaptive-retraining trigger of Savva et
  al. (2019).

A journal that fails to read (truncated, corrupt) flips the engine into
**degraded** mode: every approx query misses with ``journal_error`` and is
served exactly until a later retrain succeeds.
"""

from __future__ import annotations

import threading
from collections import deque
from pathlib import Path

from repro.obs import get_registry
from repro.obs.catalog import (
    AQP_APPROX_ANSWERS,
    AQP_DRIFT_RETRAINS,
    AQP_FALLBACKS,
    AQP_QUERIES,
    AQP_TRAINS,
)
from repro.storage import StorageError

from .features import SubsetEncoder
from .journal import WorkloadJournal
from .surface import ApproxMiss, AqpConfig, SurfaceModel, train_surface

__all__ = ["AqpEngine"]

_REGISTRY = get_registry()
_QUERIES = _REGISTRY.counter(AQP_QUERIES)
_APPROX_ANSWERS = _REGISTRY.counter(AQP_APPROX_ANSWERS)
_FALLBACKS = _REGISTRY.counter(AQP_FALLBACKS)
_TRAINS = _REGISTRY.counter(AQP_TRAINS)
_DRIFT_RETRAINS = _REGISTRY.counter(AQP_DRIFT_RETRAINS)


class AqpEngine:
    """Owns the workload journal and the (swappable) trained surface."""

    def __init__(
        self,
        aqp_dir,
        *,
        task,
        hierarchies=None,
        config: AqpConfig | None = None,
        instrument_lock: threading.Lock | None = None,
    ):
        self.dir = Path(aqp_dir)
        self.config = config or AqpConfig()
        self.journal = WorkloadJournal(self.dir / "workload.jsonl")
        self.encoder = SubsetEncoder(
            task, hierarchies, quantization=self.config.quantization
        )
        self.model: SurfaceModel | None = None
        self.degraded = False
        self._ilock = instrument_lock or threading.Lock()
        self._next_model_version = 1
        self._recent_misses: deque[bool] = deque(
            maxlen=self.config.drift_window
        )

    # -------------------------------------------------------------- counters

    def _note_query(self) -> None:
        with self._ilock:
            _QUERIES.inc()

    def _note_hit(self) -> None:
        with self._ilock:
            _APPROX_ANSWERS.inc()
            self._recent_misses.append(False)

    def note_fallback(self) -> None:
        """One approx-requested query answered by the exact path."""
        with self._ilock:
            _FALLBACKS.inc()
            self._recent_misses.append(True)

    # ----------------------------------------------------------------- drift

    @property
    def drift_detected(self) -> bool:
        """Windowed miss-rate above threshold = the workload moved."""
        with self._ilock:
            window = list(self._recent_misses)
        if len(window) < self.config.drift_window:
            return False
        rate = sum(window) / len(window)
        return rate > self.config.drift_threshold

    # --------------------------------------------------------------- answers

    def _gate(self, store_version: int) -> SurfaceModel:
        """The model, if it may answer at this store version."""
        if self.degraded:
            raise ApproxMiss(
                "journal_error", "journal unreadable; serving exact-only"
            )
        model = self.model
        if model is None:
            raise ApproxMiss("no_model", "no trained surface yet")
        if model.store_version != int(store_version):
            raise ApproxMiss(
                "version_drift",
                f"model trained at store v{model.store_version}, "
                f"store is at v{store_version}",
            )
        return model

    def try_answer_bellwether(self, store_version: int, budget, ids, tolerance):
        """Surface answer or :class:`ApproxMiss`."""
        self._note_query()
        model = self._gate(store_version)
        answer = model.answer_bellwether(budget, ids, tolerance)
        self._note_hit()
        return model, answer

    def try_answer_predict(self, store_version: int, ids, budget, region_key):
        """Artifact answer or :class:`ApproxMiss`."""
        self._note_query()
        model = self._gate(store_version)
        payload = model.answer_predict(ids, budget, region_key)
        self._note_hit()
        return model, payload

    # -------------------------------------------------------------- training

    def train(
        self,
        search,
        *,
        costs=None,
        predict_fn=None,
        drift: bool = False,
    ) -> SurfaceModel:
        """(Re)train from the journal.  Caller holds the server's writer mutex.

        A journal read failure flips degraded mode (exact-only serving)
        and re-raises the :class:`~repro.storage.StorageError`.
        """
        try:
            records = self.journal.read()
        except StorageError:
            self.degraded = True
            raise
        model = train_surface(
            search=search,
            journal_records=records,
            encoder=self.encoder,
            config=self.config,
            model_version=self._next_model_version,
            costs=costs,
            predict_fn=predict_fn,
        )
        self._next_model_version += 1
        self.model = model
        self.degraded = False
        with self._ilock:
            _TRAINS.inc()
            if drift:
                _DRIFT_RETRAINS.inc()
            self._recent_misses.clear()
        return model

    # ---------------------------------------------------------------- status

    def status(self) -> dict:
        with self._ilock:
            window = list(self._recent_misses)
        return {
            "enabled": True,
            "degraded": self.degraded,
            "trained": self.model is not None,
            "journal_path": str(self.journal.path),
            "drift_window_misses": sum(window),
            "drift_window_size": len(window),
            "model": None if self.model is None else self.model.status(),
        }
