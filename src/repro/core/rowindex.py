"""Vectorized item-id -> row-position lookup.

Several hot paths used to resolve item ids through Python dict loops
(``[row_of[i] for i in ids]`` / ``i in id_code``), which costs O(n) Python
object work per block.  :class:`RowIndex` replaces those with sorted-array
``searchsorted`` lookups (falling back to a dict only when the ids are not
totally ordered, e.g. mixed-type object arrays).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RowIndex"]


class RowIndex:
    """Maps item ids to their row positions in a fixed id array."""

    def __init__(self, ids: np.ndarray):
        self._ids = np.asarray(ids)
        self._dict: dict | None = None
        try:
            self._order = np.argsort(self._ids, kind="stable")
            self._sorted = self._ids[self._order]
        except TypeError:  # unorderable object ids
            self._order = None
            self._sorted = None
            self._dict = {i: k for k, i in enumerate(self._ids)}

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
        if self._dict is not None:
            absent = len(self._ids)
            return np.fromiter(
                (self._dict.get(i, absent) for i in wanted),
                dtype=np.int64,
                count=len(wanted),
            )
        if len(self._ids) == 0 or len(wanted) == 0:
            return np.full(len(wanted), len(self._ids), dtype=np.int64)
        pos = np.searchsorted(self._sorted, wanted)
        np.minimum(pos, len(self._sorted) - 1, out=pos)
        rows = self._order[pos].astype(np.int64, copy=False)
        missing = self._sorted[pos] != wanted
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
