"""The three ``serve_*`` workloads: one server child, three traffic shapes.

* ``serve_warm`` — closed loop, two keep-alive clients, fig13's endpoint
  mix after a warm-up sweep.  ``serve.app`` / ``serve.state`` do all the
  work; ``storage`` and ``ml`` must do none, and that is an output check
  (``store.full_scans`` over the window = 0).
* ``serve_delta_mix`` — closed loop: one keep-alive reader beside a writer
  that lands one retract-and-reappend delta per slice.  The same serve layer
  used differently: ``incremental.maintain``, ``storage.delta`` and the RW
  lock do the work, and the reader stands still while a delta holds the lock.
* ``serve_cold_subsets`` — closed loop, one client, every ``/bellwether``
  names a never-seen item subset, so each request is region reads + solves
  under the write lock: serve-layer changes predict *no change* here.
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time

from . import checks, inputs, spec
from .checks import Op
from .harness import Workload
from .probes import registry_counts
from .server import HttpClient, ServerProc
from .stats import percentile


def run_threads(targets: dict) -> None:
    """Run ``{name: callable}`` to completion; re-raise the first failure."""
    failures: list[BaseException] = []

    def guarded(fn):
        try:
            fn()
        except Exception as exc:  # surfaced below, on the calling thread
            failures.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(fn,), name=name)
        for name, fn in targets.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


class ServeWorkload(Workload):
    """Child process, dataset twin, request issuing and the shared checks."""

    #: Replies whose answers are diffed; ``None`` = every one.
    check_sample: int | None = None
    server: ServerProc | None = None

    # ------------------------------------------------------------ lifecycle

    def prepare(self) -> float:
        self.server = ServerProc()
        reply: dict = {}
        # Two cores: the child generates its copy of the fixed-seed data
        # while this process generates the twin the checks replay on.
        worker = threading.Thread(
            target=lambda: reply.update(self.server.call("generate"))
        )
        worker.start()
        self.ds, self.mem, self.costs = inputs.serve_dataset()
        worker.join()
        self.item_ids = sorted(int(i) for i in self.ds.task.item_ids)
        self.pool = inputs.subset_pool(self.seed, self.item_ids)
        self.levels: list[list[int]] = []
        self.delta_specs: list[list] = []
        self.acked: list[tuple[float, int]] = []
        self.deltas: list[dict] = []
        self.clients: list[HttpClient] = []
        self._op_ids = itertools.count()
        self.plan()
        return reply["generate_s"]

    def plan(self) -> None:
        """Build the seeded request plan and set ``self.digest``."""
        raise NotImplementedError

    def setup(self, live: bool) -> tuple[float, float]:
        """Spill to ``DiskStore`` + cold ``ServerState`` on an empty tables
        dir + listen — run by the child, which owns the program."""
        reply = self.server.call(
            "setup", directory=str(self.scratch.new("serve")), live=live
        )
        if live:
            self.port = reply["port"]
            self.clients = [HttpClient(self.port) for __ in range(self.spec.clients)]
        self.tracer.add("bench.setup", reply["setup_s"], origin="setup")
        self.tracer.add("storage.block_store.spill", reply["spill_s"], origin="setup")
        self.tracer.add("serve.state.cold_start", reply["cold_start_s"], origin="setup")
        return reply["setup_s"], reply["cpu_s"]

    def calibrate(self) -> float:
        return self.server.call("calibrate")["seconds"]

    def snapshot(self) -> dict:
        stats = self.server.call("stats")
        return {"cpu_s": stats["cpu_s"], **stats["metrics"]}

    def peak_rss_mb(self) -> float:
        return self.server.call("stats")["hwm_mb"]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.close()

    # -------------------------------------------------------------- requests

    def _resolve(self, query: tuple):
        """(kind, budget, pool index | item list) -> method, path, payload, items."""
        kind, budget, ref = query
        if kind == "bellwether":
            return "POST", "/bellwether", {"budget": budget}, None
        if kind in ("bellwether_subset", "predict"):
            items = self.pool[ref] if isinstance(ref, int) else ref
            path = "/predict" if kind == "predict" else "/bellwether"
            return "POST", path, {"budget": budget, "items": items}, items
        if kind == "cube":
            level = self.levels[ref % len(self.levels)]
            return "GET", "/cube?level=" + ",".join(map(str, level)), None, None
        if kind == "cube_index":
            return "GET", "/cube", None, None
        return "GET", "/" + kind, None, None

    def issue(self, conn: int, query: tuple, slice_index: int,
              t_due: float | None = None, record: bool = True) -> Op:
        """Send one request on connection ``conn`` and read its reply."""
        method, path, payload, items = self._resolve(query)
        op = Op(
            next(self._op_ids), query[0], 0.0, 0.0, slice_index, conn,
            budget=query[1], items=None if items is None else tuple(items),
        )
        client = self.clients[conn]
        origin = "op" if record else "setup"
        with self.tracer.span("serve.app.request", origin=origin, op=op.index) as sp:
            try:
                reply = client.request(method, path, payload)
            except (http.client.HTTPException, OSError) as exc:
                client.close()
                now = time.perf_counter()
                op.t_due = now if t_due is None else t_due
                op.t_end = now
                op.errors.append(f"transport: {exc!r}")
                reply = None
        if reply is not None:
            self.tracer.phase(sp, "serve.app.send", reply.t_start, reply.t_sent)
            self.tracer.phase(sp, "serve.app.ttfb", reply.t_sent, reply.t_headers)
            self.tracer.phase(sp, "serve.app.body_wait", reply.t_headers, reply.t_end)
            op.t_due = reply.t_start if t_due is None else t_due
            op.late_s = reply.t_start - op.t_due
            op.t_end = reply.t_end
            op.n_bytes = reply.n_bytes
            with self.tracer.span("bench.check", origin="bench", op=op.index):
                if record:
                    op.misread = self.corruptor.maybe(reply.body)
                checks.read_reply(op, reply.status, reply.body)
            if op.kind == "cube_index" and op.ok:
                self.levels = [entry["level"] for entry in reply.body["levels"]]
        if record:
            self.ops.append(op)
        return op

    def sweep(self, queries) -> None:
        """Issue each query once on connection 0, outside the window."""
        for query in queries:
            op = self.issue(0, query, -1, record=False)
            if not op.ok:
                raise RuntimeError(f"warm-up {query[0]} failed: {op.errors}")

    def closed_loop(self, index: int, seconds: float, plans, beside=None) -> None:
        """Each client sends its next request when the previous one is read;
        ``beside`` names threads that run next to the clients (a writer)."""
        deadline = time.perf_counter() + seconds

        def client(conn: int) -> None:
            plan, last_end = plans[conn], None
            with self.tracer.span("bench.client", origin="bench"):
                while time.perf_counter() < deadline:
                    query = plan[self.cursor[conn] % len(plan)]
                    self.cursor[conn] += 1
                    op = self.issue(conn, query, index)
                    # A closed loop is never late for a schedule; what the
                    # generator adds is the gap between reply and next send.
                    if last_end is not None:
                        op.late_s = op.t_due - last_end
                    last_end = op.t_end

        targets = {f"client-{c}": (lambda c=c: client(c)) for c in range(len(plans))}
        run_threads({**targets, **(beside or {})})

    # ---------------------------------------------------------------- checks

    def verify(self, counters: dict) -> list[str]:
        """Version discipline on every reply, then the reference diff."""
        checks.check_versions(self.ops, self.acked)
        final = len(self.acked)
        versions = {final}
        if final > 1:
            # one seeded intermediate version besides the final one
            versions.add(1 + self.seed % (final - 1))
        reference = checks.Reference(self.ds, self.mem, self.costs, self.delta_specs)
        candidates = [op for op in self.ops if op.version in versions]
        if self.check_sample is not None:
            step = max(1, len(candidates) // self.check_sample)
            candidates = candidates[self.seed % step :: step]
        # a misread reply is diffed whatever its version and the sampling
        candidates += [op for op in self.ops if op.misread and op not in candidates]
        if checks.check_answers(candidates, reference) == 0:
            return ["no reply was diffed against the reference"]
        return []

    def layer_counts(self, counters: dict) -> dict:
        return registry_counts(
            counters, len(self.ops), [op.n_bytes for op in self.ops if op.n_bytes]
        )


class ServeWarm(ServeWorkload):
    def plan(self) -> None:
        self.plans = inputs.warm_plans(self.seed, self.spec.clients, 2_000)
        self.cursor = [0] * self.spec.clients
        self.digest = inputs.plan_digest(self.pool, self.plans)

    def warmup(self) -> None:
        """Touch every distinct query once, so the window is all warm."""
        with self.tracer.span("serve.state.warmup_sweep", origin="setup"):
            self.sweep([("model", None, None), ("regions", None, None)])
            self.sweep([("cube_index", None, None)])  # lists the lattice levels
            queries = [("cube", None, k) for k in range(len(self.levels))]
            for budget in spec.SERVE_BUDGETS:
                queries.append(("bellwether", budget, None))
                for k in range(len(self.pool)):
                    queries.append(("bellwether_subset", budget, k))
            for k in range(len(self.pool)):
                queries.append(("predict", max(spec.SERVE_BUDGETS), k))
            self.sweep(queries)
        # both connections open before the first measured request
        self.clients[1].request("GET", "/healthz")

    def run_slice(self, index: int, seconds: float) -> None:
        self.closed_loop(index, seconds, self.plans)

    def verify(self, counters: dict) -> list[str]:
        faults = super().verify(counters)
        if counters.get("store.full_scans", 0.0) != 0:
            faults.append(
                f"warm traffic scanned the store {counters['store.full_scans']:g} times"
            )
        return faults


class ServeColdSubsets(ServeWorkload):
    check_sample = 16  # a from-scratch reference per never-repeated subset is ~40 ms

    def plan(self) -> None:
        self.plans = [inputs.cold_plan(self.seed, self.item_ids, 1_500)]
        self.cursor = [0]
        self.digest = inputs.plan_digest(self.plans)

    def run_slice(self, index: int, seconds: float) -> None:
        self.closed_loop(index, seconds, self.plans)

    def verify(self, counters: dict) -> list[str]:
        faults = super().verify(counters)
        if counters.get("serve.cache_misses", 0.0) != len(self.ops):
            faults.append(
                f"{len(self.ops)} never-seen subsets but "
                f"{counters.get('serve.cache_misses', 0.0):g} cold evaluations"
            )
        return faults


class ServeDeltaMix(ServeWorkload):
    def plan(self) -> None:
        self.plans = [inputs.delta_mix_plan(self.seed, 2_000)]
        self.cursor = [0]
        self.delta_specs = inputs.delta_specs(self.seed, self.mem, spec.SLICES)
        self.digest = inputs.plan_digest(self.pool, self.plans, self.delta_specs)

    def warmup(self) -> None:
        """Every distinct read once; the connection is then in its busy state."""
        queries = []
        for budget in spec.SERVE_BUDGETS:
            queries.append(("bellwether", budget, None))
            for k in range(len(self.pool)):
                queries.append(("bellwether_subset", budget, k))
        self.sweep(queries)

    def run_slice(self, index: int, seconds: float) -> None:
        due = time.perf_counter() + seconds / 3  # a third of the way in

        def writer() -> None:
            time.sleep(max(0.0, due - time.perf_counter()))
            with self.tracer.span("bench.writer", origin="bench"):
                reply = self.server.call("apply_delta", delta_spec=self.delta_specs[index])
            self.acked.append((time.perf_counter(), reply["store_version"]))
            self.deltas.append(reply)
            self.tracer.add(
                "serve.state.apply_delta", reply["t_end"] - reply["t_start"], origin="op"
            )

        self.closed_loop(index, seconds, self.plans, beside={"writer": writer})

    def verify(self, counters: dict) -> list[str]:
        faults = super().verify(counters)
        versions = [v for __, v in self.acked]
        if versions != list(range(1, len(self.delta_specs) + 1)):
            faults.append(f"delta stream acknowledged versions {versions}")
        return faults

    def layer_counts(self, counters: dict) -> dict:
        out = super().layer_counts(counters)
        p50 = percentile([op.latency_ms for op in self.ops], 0.5)
        stalls, post = [], []
        for delta in self.deltas:
            during = [
                op.latency_ms for op in self.ops
                if delta["t_start"] - 0.1 <= op.t_due <= delta["t_end"]
            ]
            if during:
                stalls.append(max(during) - p50)
            after = [
                op for op in self.ops
                if op.kind == "bellwether_subset" and op.t_due > delta["t_end"]
            ]
            if after:
                post.append(min(after, key=lambda op: op.t_due).latency_ms)
        if len(stalls) >= 3:
            out["serve.state.reader_stall_ms"] = percentile(stalls, 0.5)
            out["serve.state.post_delta_subset_ms"] = percentile(post, 0.5)
        out["incremental.maintain.cells_resolved_per_delta"] = (
            counters.get("incr.cells_resolved", 0.0) / max(len(self.deltas), 1)
        )
        return out


WORKLOADS = {
    "serve_warm": ServeWarm,
    "serve_delta_mix": ServeDeltaMix,
    "serve_cold_subsets": ServeColdSubsets,
}
