"""The hot paths never load scipy; an error interval loads scipy.special only.

``scipy.stats`` alone is ~1,000 modules and ~60 MB of resident memory, more
than half of what a batch build or a serve child holds.  Nothing in the batch
pipeline or the serve reply path needs it, so a fresh interpreter that
imports every package entry point and runs one pass of each must not hold
any ``scipy`` module.  The first confidence interval may load
``scipy.special`` (its quantiles), and still not ``scipy.stats``.
"""

import json
import os
import subprocess
import sys

_CHILD = """
import json, sys, tempfile
from pathlib import Path

import repro, repro.serve, repro.verify, repro.experiments
from repro.core import (
    BasicBellwetherSearch, BellwetherCubeBuilder, BellwetherTreeBuilder, build_store,
)
from repro.datasets import make_mailorder
from repro.incremental import build_cube_tables
from repro.ml import ErrorEstimate, TrainingSetEstimator
from repro.serve import ServerState

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": loaded()}
ds = make_mailorder(n_items=20, n_months=4, seed=0, error_estimator=TrainingSetEstimator())
store, costs, __ = build_store(ds.task)
with tempfile.TemporaryDirectory() as tmp:
    builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies, min_subset_size=3)
    tables = build_cube_tables(builder, Path(tmp) / "batch")
    builder.build_from_tables(tables)
    search = BasicBellwetherSearch(ds.task, store, costs=costs)
    search.evaluate_all()
    search.run(budget=50)
    BellwetherTreeBuilder(ds.task, store, min_items=5, max_depth=2).build(method="rf")
    seen["batch"] = loaded()
    state = ServerState(
        ds.task, store, ds.hierarchies, tables_dir=Path(tmp) / "serve",
        costs=costs, min_subset_size=3,
    )
    items = list(range(1, 13))
    state.bellwether_body(50)
    state.bellwether_body(50, items, explain=True)
    state.predict_body(items, budget=50)
    state.regions_body(), state.model_body(), state.cube_body()
    seen["serve"] = loaded()
ErrorEstimate(rmse=1.0, kind="training", sse=3.0, dof=5).interval(0.95)
seen["interval"] = loaded()
sys.stdout.write(json.dumps(seen))
"""


def test_hot_paths_load_no_scipy_and_an_interval_loads_only_special():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]
        ),
    }
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, env=env, check=True
    ).stdout
    seen = json.loads(out)
    assert seen["import"] == []
    assert seen["batch"] == []
    assert seen["serve"] == []
    assert "scipy.special" in seen["interval"]
    assert not [m for m in seen["interval"] if m.startswith("scipy.stats")]
