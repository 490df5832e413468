"""One-stop observation session: time a block, capture spans and metric deltas.

::

    from repro.obs import observe

    with observe("fig7", trace=True) as report:
        run_fig7()
    print(report.render())                 # span tree + metrics table
    report.append_to("bench.jsonl")        # one structured JSON line

The session snapshots the global registry on entry and diffs on exit, so
counters accumulated by *other* work don't pollute the report; tracing state
is restored to whatever it was before the block.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

from . import catalog
from .export import append_jsonl, render_metrics_table, render_span_tree, span_to_dict
from .metrics import get_registry
from .profile import ResourceProfiler
from .report import render_critical_path, render_hot_spans
from .trace import Span, get_tracer

__all__ = ["ObsReport", "observe"]


class ObsReport:
    """What one :func:`observe` session saw."""

    def __init__(self, name: str):
        self.name = name
        self.elapsed_s = 0.0
        #: The process's minor page faults over the session: allocation
        #: layout alone moves this several-fold at equal arithmetic.
        self.minor_faults = 0
        self.spans: list[Span] = []
        self.metrics: dict[str, float] = {}

    def render(self, top: int = 5) -> str:
        parts = [f"== {self.name}: {self.elapsed_s:.3f}s =="]
        if self.spans:
            parts.append(render_span_tree(self.spans))
            dicts = [span_to_dict(s) for s in self.spans]
            parts.append(render_critical_path(dicts))
            parts.append(render_hot_spans(dicts, top=top))
        if self.metrics:
            parts.append(render_metrics_table(self.metrics, title="metrics (delta)"))
        return "\n".join(parts)

    def to_record(self, include_spans: bool = True) -> dict:
        record = {
            "name": self.name,
            "elapsed_s": round(self.elapsed_s, 6),
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }
        if include_spans and self.spans:
            record["spans"] = [span_to_dict(s) for s in self.spans]
        return record

    def append_to(self, path: str | Path, include_spans: bool = True) -> None:
        append_jsonl(path, self.to_record(include_spans=include_spans))

    def summary_line(self) -> str:
        """One-line bench summary: elapsed plus the headline counters.

        Every counter is printed, zero included: ``scalar_fallbacks=0`` is
        the reading a batched-solve change claims against.  The process's
        minor page faults over the session come last.
        """
        keys = (
            (catalog.STORE_FULL_SCANS, "full_scans"),
            (catalog.STORE_REGION_READS, "region_reads"),
            (catalog.ML_LINEAR_FITS, "fits"),
            (catalog.ML_LINEAR_BATCHED_PROBLEMS, "batched_problems"),
            (catalog.ML_LINEAR_SCALAR_FALLBACKS, "scalar_fallbacks"),
        )
        stats = "  ".join(
            f"{label}={int(self.metrics.get(k, 0))}" for k, label in keys
        )
        return (
            f"{self.name}: {self.elapsed_s:.2f}s  {stats}"
            f"  minor_faults={self.minor_faults}"
        )


class observe:
    """Context manager producing an :class:`ObsReport` for the block.

    ``profile=True`` additionally installs a
    :class:`~repro.obs.profile.ResourceProfiler` for the block, annotating
    every span with peak RSS / GC / store-read-rate deltas (and implies
    ``trace=True`` — the profiler samples at span boundaries).

    ``lockcheck=True`` enables the runtime lock checker
    (:mod:`repro.analysis.runtime`) for the block: every tracked lock
    acquisition feeds the lock-order graph and violations raise
    immediately.  The prior checker (usually none) is restored on exit.
    """

    def __init__(
        self,
        name: str,
        trace: bool = False,
        profile: bool = False,
        lockcheck: bool = False,
    ):
        self.name = name
        self.trace = trace or profile
        self.profile = profile
        self.lockcheck = lockcheck
        self._registry = get_registry()
        self._tracer = get_tracer()
        self._was_enabled = False
        self._prior_profiler = None
        self._prior_checker = None
        self._before: dict[str, float] = {}
        self._faults0 = 0
        self._t0 = 0.0
        self.report = ObsReport(name)

    def __enter__(self) -> ObsReport:
        self._was_enabled = self._tracer.enabled
        if self.trace:
            self._tracer.take_roots()  # leftovers belong to earlier sessions
            self._tracer.enable()
        if self.profile:
            self._prior_profiler = self._tracer.profiler
            self._tracer.set_profiler(ResourceProfiler())
        if self.lockcheck:
            # Imported lazily: repro.analysis.runtime counts through this
            # package's registry, so a module-level import would cycle.
            from repro.analysis import runtime as _lockrt

            self._prior_checker = _lockrt.get_lockchecker()
            _lockrt.enable_lockcheck(strict=True)
        self._before = self._registry.as_dict()
        self._faults0 = _minor_faults()
        self._t0 = time.perf_counter()
        return self.report

    def __exit__(self, *exc) -> bool:
        self.report.elapsed_s = time.perf_counter() - self._t0
        self.report.minor_faults = _minor_faults() - self._faults0
        if self.lockcheck:
            from repro.analysis import runtime as _lockrt

            if self._prior_checker is None:
                _lockrt.disable_lockcheck()
            else:
                _lockrt.set_lockchecker(self._prior_checker)
        if self.profile:
            self._tracer.set_profiler(self._prior_profiler)
        if self.trace:
            self.report.spans = self._tracer.take_roots()
            if not self._was_enabled:
                self._tracer.disable()
        self.report.metrics = self._registry.diff(self._before)
        return False


def _minor_faults() -> int:
    """This process's minor page faults so far (``getrusage``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
