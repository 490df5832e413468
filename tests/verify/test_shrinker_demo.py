"""The acceptance demo: a planted fault is caught, shrunk, and replayable.

A deliberately injected bug — a refresh that never writes its recomputed
dirty cells back, so a retraction is forgotten — must be flagged by the
``cube-refresh`` oracle class, shrunk
to the 3-item/2-month floor, and serialized as an artifact that reproduces
the failure (with the fault planted) and passes clean (without it).
"""

import json

from repro.verify import (
    DeltaOp,
    Workload,
    get_class,
    inject,
    replay_artifact,
    run_class,
    shrink,
    write_artifact,
)

DEMO = Workload(
    name="demo",
    seed=3,
    kind="mailorder",
    n_items=12,
    n_months=3,
    base_month=2,
    # A plain retraction: the rows are gone for good, so a stack that kept
    # them disagrees with a scratch scan in its integer counts.
    deltas=(DeltaOp("retract", region_rank=0, n_victims=2),),
)
CLS = get_class("cube-refresh")


def test_workload_is_green_without_the_fault():
    result = run_class(CLS, DEMO)
    assert result.ok, "\n".join(str(m) for m in result.mismatches)


def test_skipped_retraction_is_caught_shrunk_and_replayable(tmp_path):
    with inject("skip-retraction"):
        result = run_class(CLS, DEMO)
        assert not result.ok
        # The discrete stack audit flags it: example counts disagree.
        assert any(".n:" in str(m) for m in result.mismatches)

        shrunk = shrink(DEMO, CLS)
        assert shrunk.n_items <= 3
        assert shrunk.n_months <= 2

        path = write_artifact(
            tmp_path,
            shrunk,
            CLS.name,
            run_class(CLS, shrunk).mismatches,
            note="demo: skip-retraction fault",
        )
        payload = json.loads(path.read_text())
        assert payload["oracle_class"] == CLS.name
        assert payload["mismatches"]

        # Replaying with the fault still planted reproduces the failure...
        assert not replay_artifact(path).ok

    # ...and the very same artifact is green once the fault is removed.
    assert replay_artifact(path).ok
