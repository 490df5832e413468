"""Differential conformance harness (verification layer).

Every optimized execution path in this repo — batched cube builds,
RF trees, worker fan-out, incremental refresh — must agree with one
oracle path.  This package holds the shared diffing API, the seeded
workload generator, the oracle-class registry, and the differential
runner that fuzzes, shrinks, and serializes failing workloads.  See
DESIGN.md §7 and ``python -m repro.verify --help``.
"""

from .diff import (
    APPROX,
    EXACT,
    Mismatch,
    Tolerance,
    assert_same_blocks,
    assert_same_cube,
    assert_same_profile,
    assert_same_stacks,
    assert_same_store,
    assert_same_tree,
    diff_blocks,
    diff_coefs,
    diff_cubes,
    diff_profiles,
    diff_stacks,
    diff_stores,
    diff_trees,
    tree_signature,
)
from .faults import FAULTS, inject
from .oracles import (
    OP_COUNTERS,
    OracleClass,
    counters_snapshot,
    get_class,
    ops_delta,
    registry,
    scans_delta,
)
from .runner import (
    DEFAULT_CORPUS,
    ClassResult,
    replay_artifact,
    replay_corpus,
    run_class,
    run_rounds,
    run_workload,
    shrink,
    write_artifact,
)
from .workload import DeltaOp, Workload, fixed_workloads, random_workload

__all__ = [
    "APPROX",
    "DEFAULT_CORPUS",
    "EXACT",
    "FAULTS",
    "ClassResult",
    "DeltaOp",
    "Mismatch",
    "OP_COUNTERS",
    "OracleClass",
    "Tolerance",
    "Workload",
    "assert_same_blocks",
    "assert_same_cube",
    "assert_same_profile",
    "assert_same_stacks",
    "assert_same_store",
    "assert_same_tree",
    "counters_snapshot",
    "diff_blocks",
    "diff_coefs",
    "diff_cubes",
    "diff_profiles",
    "diff_stacks",
    "diff_stores",
    "diff_trees",
    "fixed_workloads",
    "get_class",
    "inject",
    "ops_delta",
    "random_workload",
    "registry",
    "replay_artifact",
    "replay_corpus",
    "run_class",
    "run_rounds",
    "run_workload",
    "scans_delta",
    "shrink",
    "tree_signature",
    "write_artifact",
]
