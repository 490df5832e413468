"""Run the bellwether query service from the command line.

Usage::

    python -m repro.serve --port 8000                     # on-disk store
    python -m repro.serve --port 8000 --backend memory    # in-memory store
    python -m repro.serve --port 8000 --workers 4

Generates the chosen retail dataset (always with the algebraic
training-set estimator so the materialized-tables warm path applies),
spills it to a :class:`~repro.storage.DiskStore` (unless
``--backend memory``), materializes the cube tables,
and serves until interrupted.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.core import build_store
from repro.datasets import make_bookstore, make_mailorder
from repro.exec import ParallelConfig
from repro.ml import TrainingSetEstimator
from repro.storage import DiskStore

from .app import make_server
from .state import ServerState


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve bellwether queries over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument(
        "--backend",
        choices=("memory", "disk"),
        default="disk",
        help="where the served training data lives",
    )
    parser.add_argument(
        "--dataset", choices=("mailorder", "bookstore"), default="mailorder"
    )
    parser.add_argument("--n-items", type=int, default=50)
    parser.add_argument("--n-months", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="thread fan-out for re-evaluating delta-touched regions (1 = serial)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="directory for the on-disk store + cube tables "
        "(default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--min-subset-size", type=int, default=5,
        help="cube significance threshold K",
    )
    parser.add_argument(
        "--aqp",
        action="store_true",
        help="enable the learned approximate tier (mode=approx, /aqp)",
    )
    parser.add_argument(
        "--lockcheck",
        action="store_true",
        help="enable the runtime lock checker: track acquisition order "
        "across all instrumented locks and raise on violations",
    )
    args = parser.parse_args(argv)

    if args.lockcheck:
        from repro.analysis.runtime import enable_lockcheck

        enable_lockcheck(strict=True)

    maker = make_mailorder if args.dataset == "mailorder" else make_bookstore
    ds = maker(
        n_items=args.n_items,
        n_months=args.n_months,
        seed=args.seed,
        error_estimator=TrainingSetEstimator(),
    )
    store, costs, __ = build_store(ds.task)
    if args.store_dir is not None:
        root = Path(args.store_dir)
        root.mkdir(parents=True, exist_ok=True)
    else:
        # Held for the server's lifetime; the OS reclaims it afterwards.
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
        root = Path(tmp.name)
    if args.backend != "memory":
        store = DiskStore.from_memory(root / "store", store)
    parallel = (
        ParallelConfig(workers=args.workers, backend="thread")
        if args.workers > 1
        else None
    )
    state = ServerState(
        ds.task,
        store,
        ds.hierarchies,
        tables_dir=root / "tables",
        costs=costs,
        parallel=parallel,
        dataset_name=args.dataset,
        min_subset_size=args.min_subset_size,
        aqp_dir=(root / "aqp") if args.aqp else None,
    )
    server = make_server(state, args.host, args.port)
    host, port = server.server_address[0], server.server_address[1]
    print(
        f"repro.serve: {args.dataset} ({args.n_items} items, "
        f"{args.n_months} months) on {type(store).__name__} "
        f"at http://{host}:{port} — store version {store.version}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
