"""The process that hosts the program for the ``serve_*`` workloads.

The generator's JSON work must never hold the server's GIL, and
``peak_rss_mb`` / ``cpu_ms_per_op`` must be the program's own — so
``ServerState`` + ``serve_in_thread`` run here, in a child process, and
the generator drives it over a control pipe: one JSON object per line on
stdin, one reply per line on stdout.  Only public ``repro`` functions and
their defaults are called.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from repro.serve import ServerHandle, ServerState, make_server
from repro.storage import DiskStore

from . import inputs, probes, spec
from .harness import calibrate, process_stats


class Host:
    """Command handlers; one instance lives as long as the child."""

    def __init__(self):
        self.ds = self.mem = self.costs = None
        self.state: ServerState | None = None
        self.handle = self.root = None

    def generate(self) -> dict:
        start = time.perf_counter()
        self.ds, self.mem, self.costs = inputs.serve_dataset()
        return {"generate_s": time.perf_counter() - start}

    def setup(self, directory: str, live: bool) -> dict:
        """The set-up procedure: spill, cold state on empty tables, bind.

        The live repetition then serves from its socket; a scratch one
        closes it unserved (``shutdown()`` of a serving thread would add
        http.server's 0.5 s poll to every repetition) and is deleted.
        """
        root = Path(directory)
        root.mkdir(parents=True)
        t0, cpu = time.perf_counter(), time.process_time()
        store = DiskStore.from_memory(root / "store", self.mem)
        t1 = time.perf_counter()
        state = ServerState(
            self.ds.task,
            store,
            self.ds.hierarchies,
            tables_dir=root / "tables",
            costs=self.costs,
            dataset_name="mailorder",
            min_subset_size=spec.SERVE_MIN_SUBSET_SIZE,
        )
        t2 = time.perf_counter()
        server = make_server(state)
        t3 = time.perf_counter()
        timing = {
            "setup_s": t3 - t0, "spill_s": t1 - t0, "cold_start_s": t2 - t1,
            "cpu_s": time.process_time() - cpu,
        }
        if live:
            self.state, self.root = state, root
            self.handle = ServerHandle(server)
            timing["port"] = self.handle.port
        else:
            server.server_close()
            shutil.rmtree(root)
        return timing

    def calibrate(self) -> dict:
        """The calibration kernel as this process, the program's host, runs it."""
        return {"seconds": calibrate()}

    def stats(self) -> dict:
        """Process CPU/memory plus the registry as ``/metricsz`` shows it."""
        return {**process_stats(), "metrics": self.state.metricsz()["metrics"]}

    def apply_delta(self, delta_spec: list) -> dict:
        delta = inputs.build_delta(self.mem, delta_spec)
        start = time.perf_counter()
        out = self.state.apply_delta(delta)
        return {
            "store_version": out["store_version"],
            "t_start": start,
            "t_end": time.perf_counter(),
        }

    def probe_deltas(self, seed: int, n: int) -> dict:
        return {"specs": inputs.delta_specs(seed, self.mem, n)}

    def probe(self, directory: str, seed: int) -> dict:
        durations, counts = probes.serve_fixture_probes(
            self.ds, self.mem, self.costs, self.state, self.root,
            Path(directory), seed,
        )
        return {"durations": durations, "counts": counts}

    def stop(self) -> dict:
        if self.handle is not None:
            self.handle.close()
        return {}


def main() -> int:
    host = Host()
    for line in sys.stdin:
        request = json.loads(line)
        command = request.pop("cmd")
        try:
            reply = getattr(host, command)(**request)
        except Exception as exc:  # the generator must learn of it and stop
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if command == "stop":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
