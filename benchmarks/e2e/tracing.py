"""Benchmark-side spans: recorded around each call *into* a layer.

The program is not instrumented here (spans inside it are a later change):
the harness opens a span around every public call it makes, keeps the
records in memory, and writes them out once the run ends.  Each thread is
its own lane with its own stack, so spans of one lane nest and never
overlap; a span's self time is its duration minus its children's, and the
self times of a lane sum to the lane's root spans exactly.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from .stats import median


class Tracer:
    """Collects spans when ``enabled``; otherwise every call is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, origin: str = "op", op: int | None = None):
        """Time one call.  ``origin`` is op / setup / probe / bench; ``op``
        is the operation id shared by every span of one request."""
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        record = {
            "id": span_id,
            "parent": stack[-1]["id"] if stack else None,
            "lane": threading.current_thread().name,
            "name": name,
            "origin": origin,
            "op": op if op is not None else (stack[-1]["op"] if stack else None),
            "start": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def phase(self, parent: dict | None, name: str, start: float, end: float) -> None:
        """A child of ``parent`` from timestamps the callee already took."""
        if parent is None:
            return
        with self._lock:
            self._next_id += 1
            self.spans.append(
                {
                    "id": self._next_id, "parent": parent["id"],
                    "lane": parent["lane"], "name": name,
                    "origin": parent["origin"], "op": parent["op"],
                    "start": start, "end": end,
                }
            )

    def add(self, name: str, seconds: float, origin: str = "probe") -> None:
        """Record a duration measured elsewhere (the server child's clock)."""
        if not self.enabled:
            return
        with self._lock:
            self._next_id += 1
            self.spans.append(
                {
                    "id": self._next_id, "parent": None, "lane": "remote",
                    "name": name, "origin": origin, "op": None,
                    "start": 0.0, "end": float(seconds),
                }
            )

    # ------------------------------------------------------------- analysis

    def durations(self, name: str) -> list[float]:
        """Durations (s) of the spans called ``name``.

        Spans the workload itself produced win over probe spans of the same
        name once there are three of them: a layer the workload calls
        directly is measured under that workload, any other by an idle
        probe on the standard fixture.
        """
        own = [s for s in self.spans if s["name"] == name and s["origin"] != "probe"]
        pool = own if len(own) >= 3 else [s for s in self.spans if s["name"] == name]
        return [s["end"] - s["start"] for s in pool]

    def median_of(self, name: str, scale: float = 1.0) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return median(values) * scale

    def window_self_times(self) -> tuple[dict[str, float], float, int]:
        """Self seconds by span name inside the measured window.

        The window is the ``bench.slice`` spans of the main lane.  Traffic
        runs in ``bench.client`` lanes when the workload has client threads
        (the main lane then only waits for them), otherwise in the slices
        themselves; the table covers those lanes' spans and everything
        below them.  Returns (self times summed over lanes, window seconds,
        number of lanes): self times / lanes should equal the window.
        """
        local = [s for s in self.spans if s["lane"] != "remote"]
        window = sum(s["end"] - s["start"] for s in local if s["name"] == "bench.slice")
        roots = [s for s in local if s["name"] == "bench.client"] or [
            s for s in local if s["name"] == "bench.slice"
        ]
        lanes = len({s["lane"] for s in roots})
        children: dict[int, list[dict]] = defaultdict(list)
        for s in local:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        by_name: dict[str, float] = defaultdict(float)
        stack = list(roots)
        while stack:
            s = stack.pop()
            below = children[s["id"]]
            by_name[s["name"]] += (s["end"] - s["start"]) - sum(
                c["end"] - c["start"] for c in below
            )
            stack.extend(below)
        return dict(by_name), window, lanes

    def empty_span_cost(self, n: int = 2_000) -> float:
        """Seconds one span costs, measured on a throw-away tracer."""
        probe = Tracer(True)
        start = time.perf_counter()
        for __ in range(n):
            with probe.span("x"):
                pass
        return (time.perf_counter() - start) / n

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for record in sorted(self.spans, key=lambda s: s["id"]):
                out.write(json.dumps(record) + "\n")


def layer_of(name: str) -> str:
    """``serve.app.ttfb`` -> ``serve.app``; ``bench.check`` -> ``bench``."""
    parts = name.split(".")
    return parts[0] if parts[0] in ("bench", "datasets") else ".".join(parts[:2])


def self_time_table(tracer: Tracer) -> tuple[list[str], float]:
    """Rendered per-lane self-time table and its gap to the traced window."""
    by_name, window, lanes = tracer.window_self_times()
    per_lane = {name: seconds / lanes for name, seconds in by_name.items()}
    total = sum(per_lane.values())
    by_layer: dict[str, float] = defaultdict(float)
    for name, seconds in per_lane.items():
        by_layer[layer_of(name)] += seconds
    lines = [f"self time by layer, window only, mean of {lanes} traffic lane(s):"]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<22} {seconds:9.3f} s  {seconds / total:6.1%}")
    lines.append("self time by span, top 10:")
    for name, seconds in sorted(per_lane.items(), key=lambda kv: -kv[1])[:10]:
        lines.append(f"  {name:<38} {seconds:9.3f} s  {seconds / total:6.1%}")
    gap = abs(total - window) / window
    lines.append(
        f"  self times sum to {total:.3f} s; traced window {window:.3f} s "
        f"(gap {gap:.2%}, must stay under 5%)"
    )
    return lines, gap
