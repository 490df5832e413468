"""Sufficient statistics for weighted least squares — Theorem 1.

The paper's key efficiency result (Section 6.4, Theorem 1): the weighted sum
of squared errors of a WLS linear model is an *algebraic* aggregate of the
item set ``S``:

    g(S)  = <Y'WY, X'WX, X'WY>           (plus n and Σw for bookkeeping)
    q({g(S_k)}) = ΣY'WY − (ΣX'WY)'(ΣX'WX)^{-1}(ΣX'WY)

so statistics computed on disjoint partitions merge by component-wise
addition.  ``g(S)`` is one matrix, ``[X | Y]' W [X | Y]``, and is taken in
one place (``_gram``) from *laid rows* ``a = [x | y]`` — the design
(:func:`design_rows` lays ``[1 | x | y]`` in one allocation) with the target
as its last column.  :class:`LinearSuffStats` implements ``g``
(:meth:`~LinearSuffStats.from_rows`, :meth:`~LinearSuffStats.from_data`), the
merge (``+``), the model solve (:meth:`~LinearSuffStats.solve`) and ``q``
(:meth:`~LinearSuffStats.sse`, where an exact fit reads ``0.0``); the stacked
kernels take one Gram per segment or bin of the same rows, so the same rows
in the same order give the same bits on every path.

This is what lets the optimized bellwether cube fit one model per cube subset
of items without ever revisiting the raw rows: base-cell statistics roll up
the item-hierarchy lattice exactly like SUM/COUNT roll up a data cube.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.obs.catalog import (
    ML_LINEAR_BATCHED_PROBLEMS,
    ML_LINEAR_BATCHED_SOLVES,
    ML_LINEAR_SCALAR_FALLBACKS,
)
from repro.obs.metrics import get_registry

from .exceptions import FitError

# One increment per *batched* LAPACK call, however many problems it carries.
# The Theorem 1 efficiency claim is phrased against this counter: the batched
# optimized cube must issue at most one per lattice level.
_BATCHED_SOLVES = get_registry().counter(ML_LINEAR_BATCHED_SOLVES)
_BATCHED_PROBLEMS = get_registry().counter(ML_LINEAR_BATCHED_PROBLEMS)
_SCALAR_FALLBACKS = get_registry().counter(ML_LINEAR_SCALAR_FALLBACKS)

# sse / Y'WY at or below this is an exact fit, read as 0.0 by every solve:
# what is left of Y'WY − β'X'WY is cancellation noise, which follows the
# evaluation order, not the data.  A genuine fit leaves >= 1e-6.
_EXACT_FIT = 1024 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class LinearSuffStats:
    """Sufficient statistics of a weighted linear regression problem.

    Attributes
    ----------
    ytwy:
        The scalar ``Y'WY``.
    xtwx:
        The ``(p, p)`` matrix ``X'WX``.
    xtwy:
        The ``(p,)`` vector ``X'WY``.
    n:
        Number of examples aggregated.
    sum_w:
        Total example weight.
    """

    ytwy: float
    xtwx: np.ndarray
    xtwy: np.ndarray
    n: int
    sum_w: float

    # ------------------------------------------------------------------ build

    @classmethod
    def from_data(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray | None = None,
    ) -> "LinearSuffStats":
        """Compute ``g(S)`` for a block of examples.

        ``x`` is ``(n, p)``; callers wanting an intercept must include a
        constant column (see :func:`add_intercept`, or lay the rows with
        :func:`design_rows` and call :meth:`from_rows`).
        """
        x, y, w = _checked_block(x, y, w)
        return cls._of_gram(_gram(np.column_stack([x, y]), w), len(y), w)

    @classmethod
    def from_rows(cls, a: np.ndarray, w: np.ndarray | None = None) -> "LinearSuffStats":
        """``g(S)`` of laid rows ``a = [x | y]``: one Gram matrix.

        ``a`` is ``(n, p + 1)`` with ``y`` in the last column (see
        :func:`design_rows`); the same rows give the same bits as
        :meth:`from_data` of ``(a[:, :-1], a[:, -1])`` and as any stacked
        kernel's problem over them.
        """
        a, w = _checked_rows(a, w)
        return cls._of_gram(_gram(a, w), a.shape[0], w)

    @classmethod
    def _of_gram(cls, g: np.ndarray, n: int, w: np.ndarray | None) -> "LinearSuffStats":
        """The components of one Gram matrix, each copied out contiguous."""
        p = g.shape[0] - 1
        return cls(
            ytwy=float(g[p, p]),
            xtwx=g[:p, :p].copy(),
            xtwy=g[:p, p].copy(),
            n=n,
            sum_w=float(n) if w is None else float(w.sum()),
        )

    @classmethod
    def zeros(cls, p: int) -> "LinearSuffStats":
        """The identity element for merging (an empty example set)."""
        return cls(0.0, np.zeros((p, p)), np.zeros(p), 0, 0.0)

    @property
    def p(self) -> int:
        return self.xtwx.shape[0]

    # ------------------------------------------------------------------ merge

    def __add__(self, other: "LinearSuffStats") -> "LinearSuffStats":
        if self.p != other.p:
            raise FitError(f"cannot merge stats with p={self.p} and p={other.p}")
        return LinearSuffStats(
            ytwy=self.ytwy + other.ytwy,
            xtwx=self.xtwx + other.xtwx,
            xtwy=self.xtwy + other.xtwy,
            n=self.n + other.n,
            sum_w=self.sum_w + other.sum_w,
        )

    def __sub__(self, other: "LinearSuffStats") -> "LinearSuffStats":
        """Remove a disjoint block (used by leave-one-fold-out training)."""
        if self.p != other.p:
            raise FitError(f"cannot subtract stats with p={self.p} and p={other.p}")
        return LinearSuffStats(
            ytwy=self.ytwy - other.ytwy,
            xtwx=self.xtwx - other.xtwx,
            xtwy=self.xtwy - other.xtwy,
            n=self.n - other.n,
            sum_w=self.sum_w - other.sum_w,
        )

    # ------------------------------------------------------------------ solve

    def solve(self, ridge: float = 0.0) -> np.ndarray:
        """β_WLS = (X'WX)^{-1} X'WY, via pseudo-inverse when singular.

        ``ridge`` adds ``ridge * I`` to the normal matrix, which both
        regularizes and guards against exact singularity when requested.
        """
        if self.n == 0:
            raise FitError("cannot solve with zero examples")
        a = self.xtwx
        if ridge > 0.0:
            a = a + ridge * np.eye(self.p)
        try:
            beta = np.linalg.solve(a, self.xtwy)
            # Reject solutions from numerically singular systems.
            if not np.all(np.isfinite(beta)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            beta = np.linalg.pinv(a) @ self.xtwy
        return beta

    def sse(self, ridge: float = 0.0) -> float:
        """Weighted sum of squared errors ``q`` of the fitted model.

        ``Y'WY − (X'WY)' β``, read as exactly ``0.0`` at or below
        ``1024·eps·Y'WY``: an exact fit, whose remainder is the cancellation
        noise of the subtraction (it replaces a clamp at zero).
        """
        beta = self.solve(ridge=ridge)
        sse = float(self.ytwy - self.xtwy @ beta)
        return 0.0 if sse <= _EXACT_FIT * self.ytwy else sse

    def mse(self, ridge: float = 0.0) -> float:
        """Weighted mean squared error with ``n − p`` degrees of freedom.

        Follows the paper: the weighted SSE divided by the residual degrees
        of freedom.  Falls back to ``n`` when ``n <= p`` (the model
        interpolates; error is reported against the sample size to stay
        finite rather than raising).
        """
        dof = self.n - self.p
        if dof <= 0:
            dof = self.n
        return self.sse(ridge=ridge) / dof

    def rmse(self, ridge: float = 0.0) -> float:
        return float(np.sqrt(self.mse(ridge=ridge)))

    @property
    def dof(self) -> int:
        """Residual degrees of freedom (clamped to at least 1)."""
        return max(self.n - self.p, 1)


def _checked_block(x, y, w):
    """A block's ``x`` (``(n, p)``), ``y`` and ``w`` (``(n,)`` or None) as
    float64, validated once for whichever kernel takes its statistics."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise FitError(f"x must be 2-D, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise FitError(f"y has shape {y.shape}, expected ({x.shape[0]},)")
    return x, y, _checked_weights(w, y.shape)


def _checked_rows(a, w):
    """Laid rows ``a`` (``(n, p + 1)``, C-contiguous float64) and ``w``,
    validated once for whichever kernel takes their statistics."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] < 1:
        raise FitError(f"laid rows must be 2-D [x | y], got shape {a.shape}")
    return a, _checked_weights(w, a.shape[:1])


def _checked_weights(w, shape):
    if w is None:
        return None
    w = np.asarray(w, dtype=np.float64)
    if w.shape != shape:
        raise FitError(f"w has shape {w.shape}, expected {shape}")
    if (w <= 0).any():
        raise FitError("weights must be strictly positive")
    return w


def _gram(a: np.ndarray, w: np.ndarray | None, out: np.ndarray | None = None):
    """``a' W a`` of contiguous laid rows: ``g(S)`` as one matrix.

    The one place ``g`` is computed.  Unweighted, ``a.T @ a`` is one
    symmetric product (numpy hands it to ``syrk``); weighted, the scaled
    rows' transpose times the rows.  Every kernel calls it on the same rows
    in the same order, so every path's statistics are the same bits.
    """
    if w is None:
        return np.matmul(a.T, a, out=out)
    return np.matmul((a * w[:, None]).T, a, out=out)


def add_intercept(x: np.ndarray) -> np.ndarray:
    """Prepend the constant-1 column (footnote 1 of the paper)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise FitError(f"x must be 2-D, got shape {x.shape}")
    return np.hstack([np.ones((x.shape[0], 1)), x])


def design_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The laid rows ``[1 | x | y]`` of a block, in one allocation.

    What every kernel takes: the design with its intercept, and the target
    in the last column.
    """
    x, y, __ = _checked_block(x, y, None)
    a = np.empty((x.shape[0], x.shape[1] + 2))
    a[:, 0] = 1.0
    a[:, 1:-1] = x
    a[:, -1] = y
    return a


@dataclass(frozen=True)
class StackedSuffStats:
    """Sufficient statistics of N independent WLS problems, stored stacked.

    The batched counterpart of :class:`LinearSuffStats`: component arrays
    hold every problem at once (``ytwy`` is ``(N,)``, ``xtwx`` is
    ``(N, p, p)``, ``xtwy`` is ``(N, p)``), so merging is element-wise array
    addition, rolling up many problems into fewer is one scatter-add, and
    fitting all N models is a single stacked ``np.linalg.solve`` — one LAPACK
    call instead of N Python-level fits.

    Solutions agree with the per-problem path bit-for-bit: stacked LAPACK
    runs the same routine per matrix, and problems whose normal matrix is
    singular fall back to :meth:`LinearSuffStats.solve` individually.
    """

    ytwy: np.ndarray
    xtwx: np.ndarray
    xtwy: np.ndarray
    n: np.ndarray
    sum_w: np.ndarray

    # ------------------------------------------------------------------ build

    @classmethod
    def zeros(cls, n_problems: int, p: int) -> "StackedSuffStats":
        return cls(
            ytwy=np.zeros(n_problems),
            xtwx=np.zeros((n_problems, p, p)),
            xtwy=np.zeros((n_problems, p)),
            n=np.zeros(n_problems, dtype=np.int64),
            sum_w=np.zeros(n_problems),
        )

    @classmethod
    def from_stats(cls, stats: Sequence[LinearSuffStats]) -> "StackedSuffStats":
        """Stack per-problem statistics (components are copied verbatim)."""
        if not stats:
            raise FitError("from_stats needs at least one problem")
        p = stats[0].p
        if any(s.p != p for s in stats):
            raise FitError("cannot stack stats with differing p")
        return cls(
            ytwy=np.array([s.ytwy for s in stats]),
            xtwx=np.stack([s.xtwx for s in stats]),
            xtwy=np.stack([s.xtwy for s in stats]),
            n=np.array([s.n for s in stats], dtype=np.int64),
            sum_w=np.array([s.sum_w for s in stats]),
        )

    @classmethod
    def from_segments(
        cls,
        a: np.ndarray,
        w: np.ndarray | None,
        bounds: np.ndarray,
    ) -> "StackedSuffStats":
        """``g`` of every run of consecutive laid rows of one block.

        Problem ``k`` is rows ``bounds[k]:bounds[k + 1]`` of ``a`` (``(n,
        p + 1)``, ``y`` last, see :func:`design_rows`) and ``w``;
        ``bounds`` is non-decreasing.  The block is validated once; each
        non-empty segment is then one Gram matrix of a contiguous slice of
        the rows — :meth:`LinearSuffStats.from_rows` of those rows, bit for
        bit.  An empty segment is exact zeros with ``n = 0``.
        """
        a, w = _checked_rows(a, w)
        bounds = np.asarray(bounds, dtype=np.intp)
        n = np.diff(bounds)
        if len(bounds) and (
            (n < 0).any() or bounds[0] < 0 or bounds[-1] > len(a)
        ):
            raise FitError("segment bounds must be non-decreasing within the block")
        return cls._segments(a, w, bounds)

    @classmethod
    def from_bins(
        cls,
        a: np.ndarray,
        w: np.ndarray | None,
        codes: np.ndarray,
        n_bins: int,
    ) -> "StackedSuffStats":
        """``g`` of every bin of one block: problem ``b`` sums the rows coded ``b``.

        ``codes`` is a ``(k, n)`` array of unsigned bin indices below
        ``n_bins``: laid row ``i`` of ``a`` (``(n, p + 1)``, ``y`` last) and
        ``w`` belongs to bin ``codes[j, i]`` for every code row ``j``, so
        code rows over disjoint bin ranges give k partitions of the block
        side by side.  One stable argsort of the codes (numpy's radix sort
        for 8- and 16-bit codes) lays every bin's rows out contiguously, in
        block order, with one gather; each non-empty bin then costs one Gram
        matrix of its rows.  That is ``k·n·q²`` multiply-adds for a block,
        however many bins the codes name, and each bin is
        :meth:`LinearSuffStats.from_rows` of its rows bit for bit.  An empty
        bin is exact zeros with ``n = 0``.
        """
        a, w = _checked_rows(a, w)
        n = a.shape[0]
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != n or codes.dtype.kind != "u":
            raise FitError(
                f"codes must be unsigned integers of shape (k, {n}), got "
                f"{codes.dtype} {codes.shape}"
            )
        flat = codes.reshape(-1)
        if flat.size and int(flat.max()) >= n_bins:
            raise FitError(f"bin codes must lie in [0, {n_bins})")
        # entry j·n + i of ``flat`` is row i: the gather wraps modulo n
        order = np.argsort(flat, kind="stable")
        rows = np.take(a, order, axis=0, mode="wrap")
        counts = np.bincount(flat, minlength=n_bins)
        if w is not None:
            w = np.take(w, order, mode="wrap")
        return cls._segments(rows, w, np.append(0, np.cumsum(counts)))

    @classmethod
    def _segments(
        cls, a: np.ndarray, w: np.ndarray | None, bounds: np.ndarray
    ) -> "StackedSuffStats":
        """:meth:`from_segments` of validated rows: one Gram per non-empty
        segment, written into one ``(N, p + 1, p + 1)`` array.

        The components are copied out contiguous: a strided ``X'WY`` takes
        another dot-product path in :meth:`sse` than the scalar one, and
        differs from it in the last bit.
        """
        n = np.diff(bounds).astype(np.int64)
        q = a.shape[1]
        gram = np.zeros((len(n), q, q))
        sum_w = n.astype(np.float64) if w is None else np.zeros(len(n))
        edges = bounds.tolist()
        for k in np.flatnonzero(n).tolist():
            rows = slice(edges[k], edges[k + 1])
            if w is None:
                _gram(a[rows], None, out=gram[k])
            else:
                _gram(a[rows], w[rows], out=gram[k])
                sum_w[k] = w[rows].sum()
        return cls(
            ytwy=gram[:, -1, -1].copy(),
            xtwx=gram[:, :-1, :-1].copy(),
            xtwy=gram[:, :-1, -1].copy(),
            n=n,
            sum_w=sum_w,
        )

    @classmethod
    def concatenate(cls, stacks: Sequence["StackedSuffStats"]) -> "StackedSuffStats":
        """One stack holding every input stack's problems, in order."""
        if not stacks:
            raise FitError("concatenate needs at least one stack")
        p = stacks[0].p
        if any(s.p != p for s in stacks):
            raise FitError("cannot concatenate stacks with differing p")
        return cls(
            ytwy=np.concatenate([s.ytwy for s in stacks]),
            xtwx=np.concatenate([s.xtwx for s in stacks]),
            xtwy=np.concatenate([s.xtwy for s in stacks]),
            n=np.concatenate([s.n for s in stacks]),
            sum_w=np.concatenate([s.sum_w for s in stacks]),
        )

    # ------------------------------------------------------------------ shape

    def __len__(self) -> int:
        return len(self.ytwy)

    @property
    def p(self) -> int:
        return self.xtwx.shape[2]

    def row(self, i: int) -> LinearSuffStats:
        """The i-th problem as a scalar :class:`LinearSuffStats`."""
        return LinearSuffStats(
            ytwy=float(self.ytwy[i]),
            xtwx=self.xtwx[i],
            xtwy=self.xtwy[i],
            n=int(self.n[i]),
            sum_w=float(self.sum_w[i]),
        )

    def select(self, idx: np.ndarray) -> "StackedSuffStats":
        """The sub-stack of the given problem indices (or boolean mask)."""
        return StackedSuffStats(
            self.ytwy[idx], self.xtwx[idx], self.xtwy[idx],
            self.n[idx], self.sum_w[idx],
        )

    # ------------------------------------------------------------------ merge

    def __add__(self, other: "StackedSuffStats") -> "StackedSuffStats":
        """Element-wise merge: problem i absorbs the other stack's problem i."""
        if len(self) != len(other) or self.p != other.p:
            raise FitError(
                f"cannot merge stacks of shape ({len(self)}, p={self.p}) "
                f"and ({len(other)}, p={other.p})"
            )
        return StackedSuffStats(
            self.ytwy + other.ytwy,
            self.xtwx + other.xtwx,
            self.xtwy + other.xtwy,
            self.n + other.n,
            self.sum_w + other.sum_w,
        )

    def copy(self) -> "StackedSuffStats":
        """A deep copy whose component arrays are safe to mutate in place."""
        return StackedSuffStats(
            self.ytwy.copy(), self.xtwx.copy(), self.xtwy.copy(),
            self.n.copy(), self.sum_w.copy(),
        )

    def assign(self, idx: np.ndarray, other: "StackedSuffStats") -> None:
        """Overwrite problems ``idx`` in place with the other stack's rows.

        This is the dirty-cell write-back: a refresh recomputes only the
        problems a delta touched and assigns them over the cached stack.
        """
        if self.p != other.p:
            raise FitError(
                f"cannot assign stats with p={other.p} into a p={self.p} stack"
            )
        self.ytwy[idx] = other.ytwy
        self.xtwx[idx] = other.xtwx
        self.xtwy[idx] = other.xtwy
        self.n[idx] = other.n
        self.sum_w[idx] = other.sum_w

    def rollup(self, target: np.ndarray, n_out: int) -> "StackedSuffStats":
        """Scatter-add problems into ``n_out`` coarser ones (Theorem 1).

        ``target[i]`` names the output problem that input problem ``i``
        merges into — e.g. the cube's base-cell -> subset map, repeated per
        region.  This is the vectorized form of the dict-of-``+`` rollup.

        The sums are taken in rank rounds: round ``k`` adds, with one
        ``out[t] += src`` per component, the ``k``-th input (in input
        order) of every output that has one.  Targets are distinct within a
        round, so the fancy-indexed add loses nothing, and every output
        starts at zero and receives its addends one at a time in input
        order — the IEEE additions ``np.add.at`` performs, hence its bits
        (a pairwise or blocked reduction such as ``np.add.reduceat`` would
        associate them differently).  Rounds number as many as the most
        inputs any output takes, not as many as there are inputs.
        """
        target = np.asarray(target, dtype=np.intp)
        if target.shape != (len(self),):
            raise FitError(
                f"rollup target has shape {target.shape}, expected ({len(self)},)"
            )
        if len(target) and not (0 <= target.min() and target.max() < n_out):
            raise FitError(f"rollup targets must lie in [0, {n_out})")
        out = StackedSuffStats.zeros(n_out, self.p)
        # Inputs grouped by target, input order kept within a group; an
        # input's rank is its distance from the start of its group.
        by_target = np.argsort(target, kind="stable")
        grouped = target[by_target]
        first = np.flatnonzero(np.diff(grouped, prepend=-1))
        rank = np.arange(len(target)) - np.repeat(
            first, np.diff(np.append(first, len(target)))
        )
        by_rank = np.argsort(rank, kind="stable")
        rows, into = by_target[by_rank], grouped[by_rank]
        edges = np.append(0, np.cumsum(np.bincount(rank))).tolist()
        for name in ("ytwy", "xtwx", "xtwy", "n", "sum_w"):
            # one gather lays a component's addends out round after round
            addends, sums = getattr(self, name)[rows], getattr(out, name)
            for a, b in zip(edges[:-1], edges[1:]):
                sums[into[a:b]] += addends[a:b]
        return out

    def cuts(self, width: int) -> tuple["StackedSuffStats", "StackedSuffStats"]:
        """Both sides of every cut of runs of ``width`` ordered bins (Theorem 1).

        The stack is read as consecutive runs of ``width`` problems — the
        bins of one ordered attribute, as :meth:`from_bins` makes them.  Cut
        ``j`` of a run (``0 <= j < width − 1``) puts bins ``0..j`` on its
        left: problem ``r·(width − 1) + j`` of ``left`` is their sum, the
        run's running sum taken in bin order, and the same problem of
        ``right`` is the run's total − left.  A run padded with empty bins
        has cuts past its last bin whose left is the total and whose right
        is empty.
        """
        if width < 1 or len(self) % width:
            raise FitError(f"{len(self)} problems are not runs of {width}")
        runs = len(self) // width
        left, right = {}, {}
        for name in ("ytwy", "xtwx", "xtwy", "n", "sum_w"):
            comp = getattr(self, name)
            running = np.cumsum(comp.reshape(runs, width, *comp.shape[1:]), axis=1)
            shape = (runs * (width - 1), *comp.shape[1:])
            left[name] = running[:, :-1].reshape(shape)
            right[name] = (running[:, -1:] - running[:, :-1]).reshape(shape)
        return StackedSuffStats(**left), StackedSuffStats(**right)

    # ------------------------------------------------------------------ solve

    def solve(self, ridge: float = 0.0) -> np.ndarray:
        """All N solutions ``(N, p)`` from one stacked LAPACK call.

        Problems with a singular (or numerically singular) normal matrix are
        re-solved individually through :meth:`LinearSuffStats.solve`, which
        applies the pseudo-inverse — the batched path never changes which
        fallback a problem gets.
        """
        if (self.n == 0).any():
            raise FitError("cannot solve problems with zero examples")
        if len(self) == 0:
            return np.zeros((0, self.p))
        a = self.xtwx
        if ridge > 0.0:
            a = a + ridge * np.eye(self.p)
        _BATCHED_SOLVES.inc()
        _BATCHED_PROBLEMS.inc(len(self))
        try:
            beta = np.linalg.solve(a, self.xtwy[..., None])[..., 0]
            bad = ~np.isfinite(beta).all(axis=1)
        except np.linalg.LinAlgError:
            # Stacked solve refuses the whole batch when any matrix is
            # exactly singular; redo every problem individually (the
            # well-conditioned ones reproduce the batched bits exactly).
            beta = np.empty_like(self.xtwy)
            bad = np.ones(len(self), dtype=bool)
        _SCALAR_FALLBACKS.inc(int(bad.sum()))
        for i in np.flatnonzero(bad):
            beta[i] = self.row(i).solve(ridge=ridge)
        return beta

    def sse(self, ridge: float = 0.0) -> np.ndarray:
        """Batched ``q``: per-problem weighted SSE, an exact fit read as 0.0
        (the rule of :meth:`LinearSuffStats.sse`)."""
        beta = self.solve(ridge=ridge)
        # (N,1,p) @ (N,p,1) runs the same dot product LAPACK/BLAS uses for
        # the scalar path, keeping the batched SSE bit-identical to it.
        fitted = np.matmul(self.xtwy[:, None, :], beta[:, :, None])[:, 0, 0]
        sse = self.ytwy - fitted
        return np.where(sse <= _EXACT_FIT * self.ytwy, 0.0, sse)

    def _mse_dof(self) -> np.ndarray:
        """``n − p``, falling back to ``n`` where the model interpolates."""
        dof = self.n - self.p
        return np.where(dof <= 0, self.n, dof)

    def mse(self, ridge: float = 0.0) -> np.ndarray:
        """Batched weighted MSE with ``n − p`` degrees of freedom."""
        return self.sse(ridge=ridge) / self._mse_dof()

    def rmse(self, ridge: float = 0.0) -> np.ndarray:
        return np.sqrt(self.mse(ridge=ridge))

    def training_errors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rmse, sse, dof)`` of every problem from one batched solve.

        The triplet :class:`~repro.ml.TrainingSetEstimator` reports for the
        same statistics, bit for bit — what a cube cell or a region profile
        stores as its :class:`~repro.ml.ErrorEstimate`.
        """
        sse = self.sse()
        return np.sqrt(sse / self._mse_dof()), sse, self.dof

    @property
    def dof(self) -> np.ndarray:
        """Per-problem residual degrees of freedom (clamped to at least 1)."""
        return np.maximum(self.n - self.p, 1)

