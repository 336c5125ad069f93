"""The uid-keyed column store under both EDBMS backends.

The paper's compatibility claim (Sec. 3.1) is that PRKB runs over any
EDBMS that fits the QPF model.  What PRKB needs from the SP's storage is
the same in every such system: rows named by stable uids, one opaque
64-bit word per cell, random access by uid, and the insert / delete
operations of Sec. 7.  :class:`UidColumnStore` is that storage;
:class:`~repro.edbms.encryption.EncryptedTable` (ciphertext words) and
:class:`~repro.edbms.sdb_backend.SecretSharedTable` (multiplicative
shares) only name what the words are.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..distinct import distinct, has_duplicates

__all__ = ["UidColumnStore", "CHANGE_RECORD"]

#: How many of its latest changes a store remembers
#: (:meth:`UidColumnStore.changes_since`).  A reader that falls further
#: behind starts over from the whole column.
CHANGE_RECORD = 32


class UidColumnStore:
    """Columnar SP-side storage of one relation.

    For every attribute a ``uint64`` array aligned with ``uids``, plus a
    dense ``uid -> position`` array (-1 = absent).  Uids are
    allocator-dense, so random access — which the QPF needs when PRKB
    asks for individual samples — is one gather.
    """

    def __init__(self, name: str, attribute_names: tuple[str, ...],
                 uids: np.ndarray, columns: dict[str, np.ndarray]):
        self.name = name
        self.attribute_names = tuple(attribute_names)
        self._uids = np.asarray(uids, dtype=np.uint64)
        self._columns = {
            attr: np.asarray(col, dtype=np.uint64)
            for attr, col in columns.items()
        }
        if set(self._columns) != set(self.attribute_names):
            raise ValueError("columns do not match attributes")
        for attr, col in self._columns.items():
            if len(col) != len(self._uids):
                raise ValueError(f"column {attr!r} misaligned with uids")
        # Kept on np.unique, unlike the per-write checks below: with a
        # sort here (~1 ms against ~30 ms at 100 000 uids) the selects
        # that follow on the table measured ~7 % slower, from the heap
        # layout set-up leaves behind (DESIGN.md, "Uniqueness by
        # sorting").
        if np.unique(self._uids).size != len(self._uids):
            raise ValueError("duplicate uids in table")
        capacity = int(self._uids.max()) + 1 if len(self._uids) else 0
        self._position_lookup = np.full(capacity, -1, dtype=np.int64)
        self._position_lookup[self._uids] = np.arange(len(self._uids),
                                                      dtype=np.int64)
        self._next_uid = capacity
        self._version = 0
        #: The latest changes, oldest first: a ``slice`` of the positions
        #: an append filled, or the sorted ``int64`` positions a delete
        #: removed (positions as they were before that delete).
        self._changes: deque = deque(maxlen=CHANGE_RECORD)

    # ------------------------------------------------------------------ #
    # read access                                                         #
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        """Number of tuples currently stored."""
        return len(self._uids)

    @property
    def version(self) -> int:
        """Monotonic update counter, bumped on every insert/delete.

        Part of the planner's cache fingerprint: a cached physical plan
        costed against version v is invalid once the table has moved on,
        even when the row count happens to return to its old value.
        """
        return self._version

    def changes_since(self, version: int) -> list | None:
        """The changes that took this store from ``version`` to
        :attr:`version`, oldest first, or ``None`` when the record does
        not reach back that far.

        Each is a ``slice`` of the positions an append filled, or the
        sorted ``int64`` positions a delete removed, numbered as the
        store stood just before that change.  Replayed in order on a
        position-aligned copy of a column at ``version``, they give the
        column now.
        """
        behind = self._version - version
        if not 0 <= behind <= len(self._changes):
            return None
        return list(self._changes)[len(self._changes) - behind:]

    @property
    def uids(self) -> np.ndarray:
        """All row uids (read-only view)."""
        view = self._uids.view()
        view.flags.writeable = False
        return view

    def _known(self, uids: np.ndarray) -> np.ndarray:
        """Mask of the (uint64) uids currently stored."""
        known = uids < self._position_lookup.size
        known[known] = self._position_lookup[uids[known]] >= 0
        return known

    def positions(self, uids: np.ndarray) -> np.ndarray:
        """Physical positions of the given uids.

        Raises ``KeyError`` naming the first unknown uid in request
        order.
        """
        uids = np.asarray(uids, dtype=np.uint64).ravel()
        if uids.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(uids.max()) < self._position_lookup.size:
            pos = self._position_lookup[uids]
            if int(pos.min()) >= 0:
                return pos
        raise KeyError(f"unknown uid {int(uids[~self._known(uids)][0])}")

    def position(self, uid: int) -> int:
        """Scalar :meth:`positions`: one uid, same ``KeyError``."""
        if 0 <= uid < self._position_lookup.size:
            pos = int(self._position_lookup[uid])
            if pos >= 0:
                return pos
        raise KeyError(f"unknown uid {uid}")

    def cells_for(self, attribute: str, uids: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """(stored words, nonce uids) for the requested rows.

        The nonce of a cell is simply the row uid — unique per row; the
        per-attribute subkey provides cross-column separation.
        """
        uids = np.asarray(uids, dtype=np.uint64)
        return self._columns[attribute][self.positions(uids)], uids

    def storage_bytes(self) -> int:
        """Approximate SP-side footprint (cells + uids)."""
        cells = sum(col.nbytes for col in self._columns.values())
        return cells + self._uids.nbytes

    # ------------------------------------------------------------------ #
    # updates (Sec. 7)                                                    #
    # ------------------------------------------------------------------ #

    def allocate_uids(self, count: int) -> np.ndarray:
        """Reserve ``count`` fresh uids for rows about to be inserted.

        Fresh means above every uid ever stored through this object,
        including rows filed by :meth:`insert_rows` with uids allocated
        elsewhere (a replayed journal)."""
        fresh = np.arange(self._next_uid, self._next_uid + count,
                          dtype=np.uint64)
        self._next_uid += count
        return fresh

    def insert_rows(self, uids: np.ndarray,
                    columns: dict[str, np.ndarray]) -> None:
        """Append already-encoded rows (uids from :meth:`allocate_uids`).

        Everything is validated before anything is stored, so a rejected
        insert leaves the table as it was.
        """
        uids = np.asarray(uids, dtype=np.uint64).ravel()
        if has_duplicates(uids):
            raise ValueError("duplicate uids in insert")
        present = uids[self._known(uids)]
        if present.size:
            raise ValueError(f"uid {int(present[0])} already present")
        grown = {}
        for attr in self.attribute_names:
            col = np.asarray(columns[attr], dtype=np.uint64)
            if len(col) != len(uids):
                raise ValueError(f"column {attr!r} misaligned with new uids")
            grown[attr] = np.concatenate([self._columns[attr], col])
        base = len(self._uids)
        self._uids = np.concatenate([self._uids, uids])
        self._columns = grown
        if len(uids):
            needed = int(uids.max()) + 1
            if needed > self._position_lookup.size:
                lookup = np.full(max(needed, 2 * self._position_lookup.size),
                                 -1, dtype=np.int64)
                lookup[:self._position_lookup.size] = self._position_lookup
                self._position_lookup = lookup
            self._position_lookup[uids] = np.arange(
                base, base + len(uids), dtype=np.int64)
            self._next_uid = max(self._next_uid, needed)
        self._changes.append(slice(base, base + len(uids)))
        self._version += 1

    def delete_rows(self, uids: np.ndarray) -> None:
        """Remove rows by uid (compacting the columnar storage).

        Positions below the first removed one keep their rows, so only
        the ``uid -> position`` entries after it are rewritten.
        """
        doomed = distinct(np.asarray(uids, dtype=np.uint64))
        if doomed.size == 0:
            return
        missing = doomed[~self._known(doomed)]
        if missing.size:
            raise KeyError(f"unknown uids: {missing[:5].tolist()}")
        positions = np.sort(self._position_lookup[doomed])
        keep = np.ones(len(self._uids), dtype=bool)
        keep[positions] = False
        self._uids = self._uids[keep]
        for attr in self.attribute_names:
            self._columns[attr] = self._columns[attr][keep]
        self._position_lookup[doomed] = -1
        first = int(positions[0])
        self._position_lookup[self._uids[first:]] = np.arange(
            first, len(self._uids), dtype=np.int64)
        self._changes.append(positions)
        self._version += 1
