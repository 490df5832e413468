"""One run: inputs -> set-up -> eight slices of traffic -> checks -> result.

The rule everything here serves: **no end-to-end metric is a one-shot.**
The ``--seconds`` window is cut into :data:`spec.SLICES` equal slices; the
set-up procedure is repeated once before the window and once after each
slice (into a scratch directory, with no traffic in flight) and reported
as the median of all of them; latencies are pooled over all slices; CPU is
summed over the slices only.

The second rule: **processor time is counted in reference-machine units.**
A fixed calibration kernel is timed in the process that hosts the program
before and after every slice; the mean of those readings over
:data:`spec.REFERENCE_KERNEL_S` says how much slower than the reference
machine this one ran during the run.  The part of every measured duration
that was processor time, and only that part, is divided by it — see
:func:`to_reference`; waiting on timers and sockets is reported as
measured.  The raw values are printed beside the reported ones.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

from . import spec
from .checks import Corruptor, Op
from .stats import mean, median, percentile
from .tracing import Tracer, self_time_table

OUT_DIR = spec.ROOT / ".bench_e2e"


class Scratch:
    """Per-run scratch space inside the checkout, removed when the run ends."""

    def __init__(self):
        self.root = OUT_DIR / f"run-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self._n = 0

    def new(self, label: str) -> Path:
        """A fresh path (not created) under the scratch root."""
        self._n += 1
        return self.root / f"{label}-{self._n}"

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


_CAL_A = np.random.default_rng(7).normal(size=(256, 9, 9))
_CAL_A = _CAL_A @ _CAL_A.transpose(0, 2, 1) + np.eye(9)
_CAL_B = np.ones((256, 9, 1))


def _kernel() -> float:
    start = time.perf_counter()
    for __ in range(8):
        np.linalg.solve(_CAL_A, _CAL_B)
    total = 0
    for i in range(40_000):
        total += i * i
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds a fixed numpy + pure-Python kernel takes right now (the
    median of five goes, the first of which wakes the core)."""
    return median(_kernel() for __ in range(5))


def to_reference(measured: float, waiting: float, slowdown: float) -> float:
    """A measured duration in reference-machine units.

    ``waiting`` of it was not processor time (a kernel timer, a socket, a
    sleep) and took what it took; the rest was processor time — the
    program's own or, behind a lock, another thread's — and took
    ``slowdown`` times what the reference machine needs.  A duration that is
    all waiting keeps its value, one that is all computing is divided by
    ``slowdown``.
    """
    waiting = min(max(waiting, 0.0), measured)
    return waiting + (measured - waiting) / slowdown


def process_stats() -> dict:
    """CPU seconds (user+sys, all threads) and peak resident memory (VmHWM)."""
    status = Path("/proc/self/status").read_text()
    hwm_kb = next(
        float(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM")
    )
    return {"cpu_s": time.process_time(), "hwm_mb": hwm_kb / 1024.0}


class Workload:
    """What the harness needs from a workload; see batch.py and serve.py."""

    def __init__(self, name: str, seed: int, seconds: float, tracer: Tracer,
                 scratch: Scratch, corruptor: Corruptor):
        self.name = name
        self.spec = spec.WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.scratch = scratch
        self.corruptor = corruptor
        self.ops: list[Op] = []
        self.digest = ""

    def prepare(self) -> float:
        """Generate inputs; returns ``datasets.generate_s`` (not set-up)."""
        raise NotImplementedError

    def setup(self, live: bool) -> tuple[float, float]:
        """One run of the set-up procedure: (seconds, processor seconds of
        the hosting process); traffic uses the ``live`` one."""
        raise NotImplementedError

    def calibrate(self) -> float:
        """The calibration kernel, timed in the process hosting the program."""
        return calibrate()

    def warmup(self) -> None:
        """Unmeasured traffic that fills caches users do not pay for per run."""

    def snapshot(self) -> dict:
        """``cpu_s`` of the hosting process plus the program's counters."""
        raise NotImplementedError

    def run_slice(self, index: int, seconds: float) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        raise NotImplementedError

    def verify(self, counters: dict) -> list[str]:
        """Post-window output checks; marks ops failed, returns run-level faults."""
        raise NotImplementedError

    def layer_counts(self, counters: dict) -> dict:
        """Per-layer values only this workload's own traffic can give."""
        return {}

    def close(self) -> None:
        pass


def _delta(after: dict, before: dict) -> dict:
    return {
        k: after[k] - before.get(k, 0.0)
        for k in after
        if isinstance(after[k], (int, float))
    }


#: A set-up slot repeats the procedure until it has spent this long, so a
#: 25 ms procedure is timed some twenty times per slot and a 0.5 s one once.
SETUP_SLOT_S = 0.4


def _setup_slot(w: Workload, live: bool, setups: list[tuple[float, float]]) -> None:
    # ext4 charges a file create more the more the open journal transaction
    # already holds (20 -> 40 ms for the batch set-up over the 30 s between
    # commits): commit first, so a slot does not pay for the churn before it.
    os.sync()
    spent = 0.0
    while spent < SETUP_SLOT_S:
        setups.append(w.setup(live))
        spent += setups[-1][0]
        live = False


def run(workload_cls, name: str, seed: int, seconds: float, trace: bool,
        corrupt: int) -> int:
    """Measure one workload once; prints the report and the result line."""
    tracer = Tracer(trace)
    scratch = Scratch()
    w = workload_cls(name, seed, seconds, tracer, scratch, Corruptor(corrupt))
    counters: dict[str, float] = {}
    calibration, setups = [], []
    window_s = 0.0
    try:
        with tracer.span("bench.run", origin="bench"):
            with tracer.span("datasets.generate", origin="setup"):
                generate_s = w.prepare()
            _setup_slot(w, True, setups)
            t_warm = time.perf_counter()
            w.warmup()
            t_warm = time.perf_counter() - t_warm
            for index in range(spec.SLICES):
                with tracer.span("bench.calibration", origin="bench"):
                    calibration.append(w.calibrate())
                before = w.snapshot()
                start = time.perf_counter()
                with tracer.span("bench.slice", origin="bench"):
                    w.run_slice(index, seconds / spec.SLICES)
                window_s += time.perf_counter() - start
                for key, value in _delta(w.snapshot(), before).items():
                    counters[key] = counters.get(key, 0.0) + value
                with tracer.span("bench.calibration", origin="bench"):
                    calibration.append(w.calibrate())
                _setup_slot(w, False, setups)
            peak_rss_mb = w.peak_rss_mb()
            t_verify = time.perf_counter()
            with tracer.span("bench.verify", origin="bench"):
                faults = w.verify(counters)
            t_verify = time.perf_counter() - t_verify
        layer = _layer_values(w, tracer, counters, generate_s, calibration) if trace else None
    finally:
        w.close()
        scratch.cleanup()

    ops = w.ops
    good = [op for op in ops if op.ok]
    in_limit = [op for op in good if op.latency_ms <= w.spec.limit_ms]
    latencies = [op.latency_ms for op in ops]
    failed = len(ops) - len(good)
    raw = {
        "setup_s": median(elapsed for elapsed, __ in setups),
        "throughput_ops": len(in_limit) / window_s,
        "op_p50_ms": percentile(latencies, 0.50),
        "op_tail_ms": percentile(latencies, w.spec.tail_q),
        "peak_rss_mb": peak_rss_mb,
    }
    # Reference units.  What an average operation spent not computing is its
    # latency less the processor time the hosting process used per operation;
    # on these workloads that wait is a fixed kernel timer (or nothing), so
    # it is taken as every operation's floor and the rest of each latency as
    # processor time, the server's own or a writer's holding the lock.
    slowdown = mean(calibration) / spec.REFERENCE_KERNEL_S
    floor_ms = max(0.0, mean(latencies) - counters["cpu_s"] * 1e3 / len(ops))
    in_reference = [to_reference(ms, floor_ms, slowdown) for ms in latencies]
    end_to_end = {
        "setup_s": median(
            to_reference(elapsed, elapsed - cpu, slowdown) for elapsed, cpu in setups
        ),
        # a closed loop completes operations as fast as their latencies allow
        "throughput_ops": raw["throughput_ops"] * sum(latencies) / sum(in_reference),
        "op_p50_ms": percentile(in_reference, 0.50),
        "op_tail_ms": percentile(in_reference, w.spec.tail_q),
        "peak_rss_mb": peak_rss_mb,
    }
    _print_report(w, seed, trace, window_s, in_limit, setups, generate_s, t_warm,
                  t_verify, calibration, raw, end_to_end)
    print(
        f"  this machine ran the kernel {slowdown:.3f} x as long as the reference; "
        f"{floor_ms:.2f} ms of every operation taken as waiting, the rest as processor time"
    )
    if trace:
        trace_path = OUT_DIR / f"trace-{name}.jsonl"
        tracer.write(trace_path)
        print(f"  trace: {len(tracer.spans)} spans -> {trace_path.relative_to(spec.ROOT)}")
        lines, gap = self_time_table(tracer)
        for line in lines:
            print("  " + line)
        if gap > 0.05:
            faults.append(f"self times miss the traced window by {gap:.1%}")
        for name_, entry in spec.declared("per_layer").items():
            print(f"  {name_:<46} {layer[name_]:14.5f} {entry['unit']}")
    for fault in faults:
        print(f"  FAULT {fault}")
    correct = failed == 0 and not faults
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": spec.metrics_payload(layer if trace else end_to_end, trace),
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _print_report(w: Workload, seed: int, trace: bool, window_s: float, in_limit: list,
                  setups: list, generate_s: float, t_warm: float, t_verify: float,
                  calibration: list, raw: dict, end_to_end: dict) -> None:
    """The lines for people above the result line."""
    name, seconds, ops = w.name, w.seconds, w.ops
    failed = sum(not op.ok for op in ops)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"  {w.spec.loop} loop, {w.spec.clients} client(s); {w.spec.sizes}")
    print(f"  plan_digest {w.digest}")
    print(
        f"  window {window_s:.3f} s in {spec.SLICES} slices; ops attempted "
        f"{len(ops)}, failed {failed}, within {w.spec.limit_ms:g} ms limit "
        f"{len(in_limit)}; tail = p{w.spec.tail_q * 100:g} with "
        f"{int(len(ops) * (1 - w.spec.tail_q))} samples beyond it"
    )
    print(
        f"  setup_s over {len(setups)} repetitions, {min(setups)[0]:.4f}..{max(setups)[0]:.4f} s"
        f"  (input generation {generate_s:.3f} s is not set-up)"
    )
    print(f"  outside the window: warm-up {t_warm:.3f} s, output checks {t_verify:.3f} s")
    print(
        "  bench.calibration_ms around each slice "
        + " ".join(f"{c * 1e3:.2f}" for c in calibration)
        + f"  mean {mean(calibration) * 1e3:.2f}"
    )
    for name_, value in end_to_end.items():
        print(
            f"  {name_:<16} {value:12.4f} {spec.declared('end_to_end')[name_]['unit']:<4}"
            f" (as measured {raw[name_]:.4f})"
        )
    for op in [op for op in ops if not op.ok][:5]:
        print(f"  FAILED op {op.index} ({op.kind}): {'; '.join(op.errors)}")


def _layer_values(w: Workload, tracer: Tracer, counters: dict, generate_s: float,
                  calibration: list[float]) -> dict:
    """Every declared per-layer metric: spans, probe spans, then counts."""
    from . import probes

    window = sum(
        s["end"] - s["start"] for s in tracer.spans if s["name"] == "bench.slice"
    )
    spans_in_window = sum(1 for s in tracer.spans if s["origin"] == "op")
    overhead = spans_in_window * tracer.empty_span_cost() / window
    counts = probes.run_all(w, tracer)
    counts.update(w.layer_counts(counters))
    lates = [op.late_s for op in w.ops]
    counts.update(
        {
            "datasets.generate_s": counts.get("datasets.generate_s", generate_s),
            "bench.tracing_overhead_share": overhead,
            "bench.calibration_ms": mean(calibration) * 1e3,
            # processor time in reference units, like the end-to-end metrics
            "host.cpu_ms_per_op": counters["cpu_s"] * 1e3
            / max(sum(op.ok for op in w.ops), 1)
            / (mean(calibration) / spec.REFERENCE_KERNEL_S),
            "bench.generator_late_ms": median(lates) * 1e3,
            "bench.failed_share": sum(not op.ok for op in w.ops) / len(w.ops),
        }
    )
    values = {}
    for name in spec.declared("per_layer"):
        if name == "serve.app.http_overhead_ms":
            continue  # derived below
        if name in counts:
            values[name] = counts[name]
            continue
        base, __, unit = name.rpartition("_")
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        values[name] = tracer.median_of(base, scale)
    # by definition, so keep-alive = in-process + overhead holds exactly
    values["serve.app.http_overhead_ms"] = (
        values["serve.app.keepalive_bellwether_ms"]
        - values["serve.state.bellwether_warm_ms"]
    )
    return values
