"""Vectorized item-id -> row-position lookup.

Several hot paths used to resolve item ids through Python dict loops
(``[row_of[i] for i in ids]`` / ``i in id_code``), which costs O(n) Python
object work per block.  :class:`RowIndex` replaces those with one gather
from a direct position table when the ids are non-negative integers of
bounded range (item ids usually are), with sorted-array ``searchsorted``
lookups otherwise, and with a dict only when the ids are not totally
ordered (e.g. mixed-type object arrays).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RowIndex"]


def _position_table(ids: np.ndarray) -> np.ndarray | None:
    """``table[i]`` = first row holding id ``i`` (``len(ids)`` if none).

    Built only for non-negative integer ids whose largest value stays under
    ``4 * len(ids) + 1024``, so the table costs at most a few times the ids
    themselves; ``None`` for every other id set.
    """
    if ids.dtype.kind not in "iu" or ids.ndim != 1 or len(ids) == 0:
        return None
    n = len(ids)
    top = int(ids.max())
    if ids.min() < 0 or top >= 4 * n + 1024:
        return None
    table = np.full(top + 1, n, dtype=np.int64)
    # ufunc.at is unbuffered: every occurrence counts and the first one wins.
    np.minimum.at(table, ids, np.arange(n, dtype=np.int64))
    return table


class RowIndex:
    """Maps item ids to their row positions in a fixed id array."""

    def __init__(self, ids: np.ndarray):
        self._ids = np.asarray(ids)
        self._table = _position_table(self._ids)
        self._order: np.ndarray | None = None
        self._sorted: np.ndarray | None = None
        self._dict: dict | None = None
        if self._table is None:
            self._sort()

    def _sort(self) -> None:
        """The sorted (or, for unorderable ids, dict) lookup structures."""
        try:
            order = np.argsort(self._ids, kind="stable")
        except TypeError:  # unorderable object ids
            self._dict = {i: k for k, i in enumerate(self._ids)}
            return
        # _order lands first: whoever sees _sorted set may use both.
        self._order = order
        self._sorted = self._ids[order]

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    def locate(self, wanted: np.ndarray) -> np.ndarray:
        """Row position of every entry of ``wanted``; ``len(self)`` if absent.

        One lookup answers both "which of these ids are indexed" (``< len``)
        and "where" — what :meth:`contains` and :meth:`rows_of` are views of.
        """
        wanted = np.asarray(wanted)
        if self._table is not None and wanted.dtype.kind in "iu":
            if not len(wanted) or (
                wanted.min() >= 0 and wanted.max() < len(self._table)
            ):
                return self._table.take(wanted)
            inside = (wanted >= 0) & (wanted < len(self._table))
            rows = np.full(len(wanted), len(self._ids), dtype=np.int64)
            rows[inside] = self._table[wanted[inside]]
            return rows
        if self._sorted is None and self._dict is None:
            self._sort()  # a table index asked for non-integer ids
        if self._dict is not None:
            absent = len(self._ids)
            return np.fromiter(
                (self._dict.get(i, absent) for i in wanted),
                dtype=np.int64,
                count=len(wanted),
            )
        if len(self._ids) == 0 or len(wanted) == 0:
            return np.full(len(wanted), len(self._ids), dtype=np.int64)
        outside = False
        kinds = wanted.dtype.kind + self._sorted.dtype.kind
        if kinds in ("iu", "ui") and np.result_type(wanted, self._sorted).kind == "f":
            # uint64 against signed ids would compare as float64, merging ids
            # above 2**53: compare in the indexed dtype, where a value it
            # cannot hold is absent and every other one casts exactly.
            dtype = self._sorted.dtype
            outside = wanted > np.iinfo(dtype).max if kinds == "ui" else wanted < 0
            wanted = np.where(outside, 0, wanted).astype(dtype)
        pos = np.searchsorted(self._sorted, wanted)
        np.minimum(pos, len(self._sorted) - 1, out=pos)
        rows = self._order[pos].astype(np.int64, copy=False)
        missing = (self._sorted[pos] != wanted) | outside
        if missing.any():
            rows = np.where(missing, len(self._ids), rows)
        return rows

    def restrict(self, block):
        """``block``'s rows of indexed items, and each one's row position.

        The :class:`~repro.storage.RegionBlock` ``restrict_to(self.ids)``
        makes, rows in block order, from the one lookup that also says where
        each row's item sits; a block holding nothing else comes back as it
        is, not copied.
        """
        rows = self.locate(block.item_ids)
        held = rows < len(self._ids)
        if held.all():
            return block, rows
        return block.where(held), rows[held]

    def contains(self, wanted: np.ndarray) -> np.ndarray:
        """Boolean per entry of ``wanted``: is it one of the indexed ids?"""
        return self.locate(wanted) < len(self._ids)

    def rows_of(self, wanted: np.ndarray) -> np.ndarray:
        """Row position of every entry of ``wanted`` (KeyError if absent)."""
        wanted = np.asarray(wanted)
        rows = self.locate(wanted)
        missing = rows == len(self._ids)
        if missing.any():
            raise KeyError(f"unknown item id {wanted[missing][0]!r}")
        return rows

    def member_mask(self, wanted: np.ndarray) -> np.ndarray:
        """Boolean over the *indexed* ids: membership in ``wanted``."""
        return np.isin(self._ids, np.asarray(wanted))
