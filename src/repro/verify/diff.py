"""The diffing API: compare two executions of an equivalent path.

Every comparison is expressed against a :class:`Tolerance`:

* :data:`EXACT` — bit-for-bit.  The suffstats-algebra paths (batched vs.
  per-problem solves, parallel vs. serial fan-out, incremental refresh)
  promise this, because float addition of the *same addends in the
  same order* and LAPACK solves of the same matrices are deterministic.
* :data:`APPROX` — ``rtol=1e-6`` / ``atol=1e-9``.  For paths that compute
  the same quantity through different float orderings: refits vs. Theorem 1
  rollups, and anything through the pinv fallback.

Comparisons return a list of :class:`Mismatch` records (empty = equivalent)
so the differential runner can report, shrink, and serialize them; the
``assert_same_*`` wrappers raise :class:`~repro.exceptions.VerificationError`
(also an ``AssertionError``) for direct use in tests.

Winner near-ties: two equivalent-but-not-bitwise paths can legitimately pick
different bellwether regions when the top candidates' errors agree to within
float drift.  Under a non-exact tolerance, a region disagreement is accepted
iff the two winners' errors are within tolerance of each other (the
ε-optimal rule); under :data:`EXACT` any disagreement is a mismatch.
Interpolating fits (``dof <= 0``) carry numerically meaningless residuals,
so non-exact comparisons skip their error values entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import VerificationError

__all__ = [
    "APPROX",
    "EXACT",
    "Mismatch",
    "Tolerance",
    "assert_same_blocks",
    "assert_same_cube",
    "assert_same_profile",
    "assert_same_stacks",
    "assert_same_store",
    "assert_same_tree",
    "diff_blocks",
    "diff_coefs",
    "diff_cubes",
    "diff_profiles",
    "diff_stacks",
    "diff_stores",
    "diff_trees",
    "tree_signature",
]


@dataclass(frozen=True)
class Tolerance:
    """Per-equivalence-class tolerance policy."""

    rtol: float = 0.0
    atol: float = 0.0

    @property
    def exact(self) -> bool:
        return self.rtol == 0.0 and self.atol == 0.0

    def close(self, a, b) -> bool:
        """Are two scalars/arrays equal under this tolerance?

        Exact tolerance means identical bits (NaN == NaN: both paths
        agreeing an estimate is undefined counts as agreement).
        """
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return False
        if self.exact:
            if a.dtype.kind == "f" and b.dtype.kind == "f":
                return bool(np.array_equal(a, b, equal_nan=True))
            return bool(np.array_equal(a, b))
        return bool(
            np.allclose(a, b, rtol=self.rtol, atol=self.atol, equal_nan=True)
        )


#: Bit-for-bit: suffstats algebra over identical addends.
EXACT = Tolerance()
#: Different float orderings / pinv fallbacks of the same quantity.
APPROX = Tolerance(rtol=1e-6, atol=1e-9)


@dataclass(frozen=True)
class Mismatch:
    """One observed divergence between an oracle and a candidate path."""

    path: str
    expected: str
    actual: str

    def __str__(self) -> str:
        return f"{self.path}: expected {self.expected}, got {self.actual}"


def _mm(path: str, expected, actual) -> Mismatch:
    return Mismatch(path, str(expected), str(actual))


def _raise(mismatches: list[Mismatch]) -> None:
    if mismatches:
        raise VerificationError(
            f"{len(mismatches)} mismatch(es):\n"
            + "\n".join(f"  {m}" for m in mismatches)
        )


# ------------------------------------------------------------------- cubes


def diff_cubes(oracle, candidate, tol: Tolerance = EXACT, label: str = "cube"):
    """Diff two :class:`~repro.core.BellwetherCubeResult` answers."""
    out: list[Mismatch] = []
    if oracle.subsets != candidate.subsets:
        return [_mm(f"{label}.subsets", oracle.subsets, candidate.subsets)]
    for subset in oracle.subsets:
        a, b = oracle.entry(subset), candidate.entry(subset)
        path = f"{label}[{subset}]"
        if a.n_items != b.n_items:
            out.append(_mm(f"{path}.n_items", a.n_items, b.n_items))
        if (a.error is None) != (b.error is None):
            out.append(
                _mm(f"{path}.found", a.error is not None, b.error is not None)
            )
            continue
        if a.error is None:
            continue
        # Interpolating fits (no residual degrees of freedom) have error
        # values made of float noise; only exact classes may compare them.
        junk = not tol.exact and (a.error.dof <= 0 or b.error.dof <= 0)
        if a.region != b.region:
            if junk or (
                not tol.exact and tol.close(a.error.rmse, b.error.rmse)
            ):
                continue  # ε-optimal near-tie between equivalent winners
            out.append(_mm(f"{path}.region", a.region, b.region))
            continue
        if junk:
            continue
        if not tol.close(a.error.rmse, b.error.rmse):
            out.append(_mm(f"{path}.rmse", a.error.rmse, b.error.rmse))
        if (
            a.error.sse is not None
            and b.error.sse is not None
            and not tol.close(a.error.sse, b.error.sse)
        ):
            out.append(_mm(f"{path}.sse", a.error.sse, b.error.sse))
        if a.error.dof != b.error.dof:
            out.append(_mm(f"{path}.dof", a.error.dof, b.error.dof))
    return out


def assert_same_cube(oracle, candidate, tol: Tolerance = EXACT) -> None:
    _raise(diff_cubes(oracle, candidate, tol))


# ----------------------------------------------------------------- profiles


def diff_profiles(
    oracle, candidate, tol: Tolerance = EXACT, label: str = "profile"
):
    """Diff two basic-search profiles (lists of ``RegionResult``)."""
    a_regions = [r.region for r in oracle]
    b_regions = [r.region for r in candidate]
    if a_regions != b_regions:
        return [_mm(f"{label}.regions", a_regions, b_regions)]
    out: list[Mismatch] = []
    for a, b in zip(oracle, candidate):
        path = f"{label}[{a.region}]"
        if not tol.close(a.rmse, b.rmse):
            out.append(_mm(f"{path}.rmse", a.rmse, b.rmse))
        if not tol.close(a.cost, b.cost):
            out.append(_mm(f"{path}.cost", a.cost, b.cost))
        if not tol.close(a.coverage, b.coverage):
            out.append(_mm(f"{path}.coverage", a.coverage, b.coverage))
        if a.n_items != b.n_items:
            out.append(_mm(f"{path}.n_items", a.n_items, b.n_items))
    return out


def assert_same_profile(oracle, candidate, tol: Tolerance = EXACT) -> None:
    _raise(diff_profiles(oracle, candidate, tol))


# -------------------------------------------------------------------- trees


def tree_signature(node):
    """Structure + split + per-leaf (region, items) as a comparable object."""
    if node.is_leaf:
        return ("leaf", str(node.region), tuple(sorted(node.item_ids)))
    return (
        "split",
        str(node.split),
        tuple(tree_signature(c) for c in node.children),
    )


def diff_trees(oracle_root, candidate_root, label: str = "tree"):
    """Diff two bellwether-tree roots, localizing the first divergences."""
    out: list[Mismatch] = []

    def walk(a, b, path: str) -> None:
        if a.is_leaf != b.is_leaf:
            out.append(
                _mm(
                    f"{path}.shape",
                    "leaf" if a.is_leaf else "split",
                    "leaf" if b.is_leaf else "split",
                )
            )
            return
        if a.is_leaf:
            if str(a.region) != str(b.region):
                out.append(_mm(f"{path}.region", a.region, b.region))
            if tuple(sorted(a.item_ids)) != tuple(sorted(b.item_ids)):
                out.append(
                    _mm(
                        f"{path}.items",
                        sorted(a.item_ids),
                        sorted(b.item_ids),
                    )
                )
            return
        if str(a.split) != str(b.split):
            out.append(_mm(f"{path}.split", a.split, b.split))
            return
        if len(a.children) != len(b.children):
            out.append(
                _mm(f"{path}.children", len(a.children), len(b.children))
            )
            return
        for i, (ca, cb) in enumerate(zip(a.children, b.children)):
            walk(ca, cb, f"{path}.child[{i}]")

    walk(oracle_root, candidate_root, label)
    return out


def assert_same_tree(oracle_root, candidate_root) -> None:
    _raise(diff_trees(oracle_root, candidate_root))


# ------------------------------------------------------------------- stores


def diff_blocks(oracle, candidate, tol: Tolerance = EXACT, label: str = "block"):
    """Diff two :class:`~repro.storage.RegionBlock` contents."""
    out: list[Mismatch] = []
    if not np.array_equal(oracle.item_ids, candidate.item_ids):
        return [_mm(f"{label}.item_ids", oracle.item_ids, candidate.item_ids)]
    if not tol.close(oracle.x, candidate.x):
        out.append(_mm(f"{label}.x", "equal features", "diverged"))
    if not tol.close(oracle.y, candidate.y):
        out.append(_mm(f"{label}.y", oracle.y, candidate.y))
    if (oracle.weights is None) != (candidate.weights is None):
        out.append(
            _mm(f"{label}.weights", oracle.weights, candidate.weights)
        )
    elif oracle.weights is not None and not tol.close(
        oracle.weights, candidate.weights
    ):
        out.append(_mm(f"{label}.weights", oracle.weights, candidate.weights))
    return out


def diff_stores(oracle, candidate, tol: Tolerance = EXACT, label: str = "store"):
    """Diff two training-data stores region by region."""
    a_regions, b_regions = set(oracle.regions()), set(candidate.regions())
    if a_regions != b_regions:
        return [
            _mm(
                f"{label}.regions",
                sorted(map(str, a_regions)),
                sorted(map(str, b_regions)),
            )
        ]
    out: list[Mismatch] = []
    for region in oracle.regions():
        out += diff_blocks(
            oracle.read(region),
            candidate.read(region),
            tol,
            f"{label}[{region}]",
        )
    return out


def assert_same_store(oracle, candidate, tol: Tolerance = EXACT) -> None:
    _raise(diff_stores(oracle, candidate, tol))


def assert_same_blocks(oracle, candidate, tol: Tolerance = EXACT) -> None:
    _raise(diff_blocks(oracle, candidate, tol))


# ------------------------------------------------------------------- stacks


def diff_stacks(oracle, candidate, tol: Tolerance = EXACT, label: str = "stacks"):
    """Diff two region -> :class:`~repro.ml.StackedSuffStats` mappings.

    The integer example counts ``n`` must match exactly under *any*
    tolerance — float drift never changes how many rows each
    base cell aggregates, so a count divergence is always a real fault
    (e.g. a skipped retraction), even at sizes where residual-based
    signals drown in interpolation noise.
    """
    a_regions, b_regions = set(oracle), set(candidate)
    if a_regions != b_regions:
        return [
            _mm(
                f"{label}.regions",
                sorted(map(str, a_regions)),
                sorted(map(str, b_regions)),
            )
        ]
    out: list[Mismatch] = []
    for region in oracle:
        a, b = oracle[region], candidate[region]
        path = f"{label}[{region}]"
        if not np.array_equal(a.n, b.n):
            out.append(_mm(f"{path}.n", a.n.tolist(), b.n.tolist()))
            continue
        for field in ("sum_w", "ytwy", "xtwx", "xtwy"):
            if not tol.close(getattr(a, field), getattr(b, field)):
                out.append(_mm(f"{path}.{field}", "equal stats", "diverged"))
    return out


def assert_same_stacks(oracle, candidate, tol: Tolerance = EXACT) -> None:
    _raise(diff_stacks(oracle, candidate, tol))


# -------------------------------------------------------------------- coefs


def diff_coefs(oracle, candidate, tol: Tolerance = EXACT, label: str = "coef"):
    """Diff two model coefficient vectors."""
    a, b = np.asarray(oracle), np.asarray(candidate)
    if not tol.close(a, b):
        return [_mm(label, a.tolist(), b.tolist())]
    return []
