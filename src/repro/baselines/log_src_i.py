"""Logarithmic-SRC-i — the paper's state-of-the-art competitor (Sec. 8).

From Demertzis, Papadopoulos, Papapetrou, Deligiannakis, Garofalakis:
"Practical Private Range Search Revisited" (SIGMOD 2016).  The two-level
construction:

* **DS1** — a TDAG over the *value domain*.  For every distinct value a
  record ``(value, pos_lo, pos_hi)`` — the span of its duplicates'
  positions in value order — is filed under every TDAG node covering the
  value: O(log D) replication.
* **DS2** — a TDAG over the *position domain*.  For every tuple a record
  ``(uid, value, 0)`` is filed under every node covering its position.

A range query does a Single Range Cover lookup on DS1, opens the retrieved
records to learn the exact position span of the matching values, then a
second SRC lookup on DS2 whose false positives are bounded by the cover
(≤ 2× the true result) — so query cost is independent of the domain size,
at the price of a large index (Table 3).

Per the paper's experimental setup (Sec. 8.2.1), the client-side work of
the original scheme — building the index and filtering false positives —
is performed by a trusted machine; every record opened inside the TM is
charged like a QPF use, putting both systems on the same cost scale.

Updates use classic order-maintenance: positions are spaced with gaps and
an insert lands mid-gap, falling back to a (charged) rebuild when a gap is
exhausted — giving the roughly size-independent but per-entry-expensive
insert behaviour that Table 4 reports.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..crypto.primitives import SecretKey
from ..distinct import distinct_inverse, run_starts
from ..edbms.costs import CostCounter
from .dyadic import TDAG
from .sse import SSEIndex, node_keyword

__all__ = ["LogSRCiIndex"]

#: Initial spacing between consecutive positions (gap for inserts).
POSITION_GAP = 8

#: SSE keyword of TDAG node ``(level, start)`` in level ``b"ds1"`` /
#: ``b"ds2"`` — the bytes ``query_inclusive`` derives from the cover.
_KEYWORD = b"node:tdag:%d:%d|%s"


class LogSRCiIndex:
    """Logarithmic-SRC-i over one integer attribute."""

    def __init__(self, key: SecretKey, counter: CostCounter,
                 attribute: str, domain: tuple[int, int],
                 uids: np.ndarray, values: np.ndarray):
        lo, hi = domain
        if lo > hi:
            raise ValueError("empty domain")
        self.attribute = attribute
        self.domain = (int(lo), int(hi))
        self.counter = counter
        self._key = key.subkey(f"log-src-i:{attribute}")
        self._tdag1 = TDAG(hi - lo + 1)
        self._ds1 = SSEIndex(self._key.subkey("ds1"), counter)
        self._ds2 = SSEIndex(self._key.subkey("ds2"), counter)
        # TM-side plaintext shadow used for maintenance only (the TM holds
        # the key anyway); queries never consult it.
        self._entries: list[list[int]] = []  # sorted [value, uid, position]
        self._value_span: dict[int, list[int]] = {}
        # value -> sorted positions of its duplicates, so span maintenance
        # after an insert/delete is O(duplicates) rather than O(n).
        self._value_positions: dict[int, list[int]] = {}
        # Serial handles of filed SSE records, so updates remove exactly
        # the affected postings without decrypting lists: implied by the
        # bulk filing for owners filed at build time, kept per record for
        # owners a later update re-filed.
        self._ds1_refs: dict[int, list[tuple[bytes, int]]] = {}
        self._ds2_refs: dict[int, list[tuple[bytes, int]]] = {}
        self._ds1_bulk: _BulkFiling
        self._ds2_bulk: _BulkFiling
        self._tdag2 = TDAG(max(POSITION_GAP,
                               len(np.asarray(uids)) * POSITION_GAP * 2))
        self._bulk_load(np.asarray(uids, dtype=np.uint64),
                        np.asarray(values, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # construction / maintenance (TM side)                                #
    # ------------------------------------------------------------------ #

    def _point(self, value: int) -> int:
        lo, hi = self.domain
        if not lo <= value <= hi:
            raise ValueError(
                f"value {value} outside domain [{lo}, {hi}]"
            )
        return value - lo

    def _bulk_load(self, uids: np.ndarray, values: np.ndarray) -> None:
        if uids.size != values.size:
            raise ValueError("uids and values must align")
        order = np.lexsort((uids, values))
        uids, values = uids[order], values[order]
        # Values are sorted, so each distinct value's duplicates (and
        # their positions) are one contiguous run.
        first = run_starts(values)
        distinct = values[first]
        lo, hi = self.domain
        outside = distinct[(distinct < lo) | (distinct > hi)]
        if outside.size:
            self._point(int(outside[0]))  # raises the domain error
        stop = np.append(first, values.size)[1:]
        positions = np.arange(1, uids.size + 1, dtype=np.int64) * POSITION_GAP
        position_list = positions.tolist()
        self._entries = [list(entry) for entry in zip(
            values.tolist(), uids.tolist(), position_list)]
        for value, begin, end in zip(distinct.tolist(), first.tolist(),
                                     stop.tolist()):
            run = position_list[begin:end]
            self._value_positions[value] = run
            self._value_span[value] = [run[0], run[-1]]
        self._ds2_bulk = _file_bulk(
            self._ds2, self._tdag2, b"ds2", positions, uids.tolist(),
            np.stack([uids, values.view(np.uint64),
                      np.zeros(uids.size, dtype=np.uint64)], axis=1))
        self._ds1_bulk = _file_bulk(
            self._ds1, self._tdag1, b"ds1", distinct - lo, distinct.tolist(),
            np.stack([distinct, positions[first], positions[stop - 1]],
                     axis=1).view(np.uint64))

    def _file_ds1(self, value: int, pos_lo: int, pos_hi: int) -> None:
        refs = self._ds1_refs.setdefault(value, [])
        for level, start in self._tdag1.node_ids_covering_point(
                self._point(value)):
            keyword = _KEYWORD % (level, start, b"ds1")
            refs.append((keyword,
                         self._ds1.add(keyword, (value, pos_lo, pos_hi))))

    def _unfile_ds1(self, value: int) -> None:
        for keyword, serial in (self._ds1_bulk.pop(value)
                                + self._ds1_refs.pop(value, [])):
            self._ds1.remove_serial(keyword, serial)

    def _file_ds2(self, uid: int, value: int, position: int) -> None:
        refs = self._ds2_refs.setdefault(uid, [])
        for level, start in self._tdag2.node_ids_covering_point(position):
            keyword = _KEYWORD % (level, start, b"ds2")
            refs.append((keyword, self._ds2.add(keyword, (uid, value, 0))))

    def _unfile_ds2(self, uid: int, position: int) -> None:
        for keyword, serial in (self._ds2_bulk.pop(uid)
                                + self._ds2_refs.pop(uid, [])):
            self._ds2.remove_serial(keyword, serial)

    def _respan_ds1(self, value: int) -> None:
        """Refresh a value's DS1 span after its duplicate run changed."""
        positions = self._value_positions.get(value, [])
        self._unfile_ds1(value)
        if positions:
            span = [positions[0], positions[-1]]
            self._value_span[value] = span
            self._file_ds1(value, span[0], span[1])
        else:
            self._value_span.pop(value, None)
            self._value_positions.pop(value, None)

    def _rebuild(self, extra_capacity: int = 0) -> None:
        """Re-space positions (and maybe grow DS2's domain); charged."""
        uids = np.asarray([e[1] for e in self._entries], dtype=np.uint64)
        values = np.asarray([e[0] for e in self._entries], dtype=np.int64)
        self._ds1 = SSEIndex(self._key.subkey("ds1"), self.counter)
        self._ds2 = SSEIndex(self._key.subkey("ds2"), self.counter)
        self._value_span = {}
        self._value_positions = {}
        self._ds1_refs = {}
        self._ds2_refs = {}
        needed = (len(self._entries) + extra_capacity) * POSITION_GAP * 2
        self._tdag2 = TDAG(max(POSITION_GAP, needed))
        self._bulk_load(uids, values)

    def insert(self, uid: int, value: int) -> None:
        """Insert one tuple; O(log D + log n) postings plus rare rebuilds."""
        self._point(value)  # domain check
        key = [value, uid]
        slot = bisect.bisect_left(self._entries, key)
        prev_pos = self._entries[slot - 1][2] if slot > 0 else 0
        next_pos = (self._entries[slot][2] if slot < len(self._entries)
                    else prev_pos + 2 * POSITION_GAP)
        if next_pos - prev_pos < 2 or next_pos >= self._tdag2.capacity:
            self._rebuild(extra_capacity=1)
            slot = bisect.bisect_left(self._entries, key)
            prev_pos = self._entries[slot - 1][2] if slot > 0 else 0
            next_pos = (self._entries[slot][2] if slot < len(self._entries)
                        else prev_pos + 2 * POSITION_GAP)
        position = (prev_pos + next_pos) // 2
        self._entries.insert(slot, [value, uid, position])
        bisect.insort(self._value_positions.setdefault(value, []), position)
        self._file_ds2(uid, value, position)
        self._respan_ds1(value)

    def delete(self, uid: int, value: int) -> None:
        """Delete one tuple from both levels."""
        slot = bisect.bisect_left(self._entries, [value, uid])
        if slot >= len(self._entries) or self._entries[slot][:2] != [value,
                                                                     uid]:
            raise KeyError(f"({uid}, {value}) not in index")
        __, __, position = self._entries.pop(slot)
        self._value_positions[value].remove(position)
        self._unfile_ds2(uid, position)
        self._respan_ds1(value)

    # ------------------------------------------------------------------ #
    # querying                                                            #
    # ------------------------------------------------------------------ #

    def query_inclusive(self, low: int, high: int) -> np.ndarray:
        """Uids with ``low <= value <= high`` — the two-level SRC lookup."""
        lo, hi = self.domain
        low, high = max(low, lo), min(high, hi)
        if low > high or not self._entries:
            return np.zeros(0, dtype=np.uint64)
        cover1 = self._tdag1.single_range_cover(self._point(low),
                                                self._point(high))
        token1 = self._ds1.token(
            node_keyword(cover1.token_material()) + b"|ds1")
        words1 = self._ds1.open_records(self._ds1.search(token1))
        spans = words1[_within(words1[:, 0], low, high)]
        if not spans.size:
            return np.zeros(0, dtype=np.uint64)
        cover2 = self._tdag2.single_range_cover(int(spans[:, 1].min()),
                                                int(spans[:, 2].max()))
        token2 = self._ds2.token(
            node_keyword(cover2.token_material()) + b"|ds2")
        words2 = self._ds2.open_records(self._ds2.search(token2))
        return np.sort(words2[_within(words2[:, 1], low, high), 0])

    def query_open(self, low: int, high: int) -> np.ndarray:
        """Uids with ``low < value < high`` (the paper's query form)."""
        return self.query_inclusive(low + 1, high - 1)

    # ------------------------------------------------------------------ #
    # accounting                                                          #
    # ------------------------------------------------------------------ #

    def storage_bytes(self) -> int:
        """Index footprint across both SSE levels (Table 3)."""
        return self._ds1.storage_bytes() + self._ds2.storage_bytes()

    @property
    def num_tuples(self) -> int:
        """Number of indexed tuples."""
        return len(self._entries)


def _within(column: np.ndarray, low: int, high: int) -> np.ndarray:
    """Mask of the opened words of one record column whose signed value
    lies in ``[low, high]``."""
    values = column.view(np.int64)
    return (values >= low) & (values <= high)


def _file_bulk(sse: SSEIndex, tdag: TDAG, tag: bytes, points: np.ndarray,
               owners: list[int], words: np.ndarray) -> _BulkFiling:
    """File record ``words[i]`` under every ``tdag`` node covering
    ``points[i]``, in the order one ``_file_ds*`` call per point would;
    returns the filing, which implies the handles of ``owners[i]``."""
    owner, level, start = tdag.node_ids_covering_points(points)
    nodes, group = distinct_inverse(level * tdag.capacity + start)
    levels, starts = np.divmod(nodes, tdag.capacity)
    keywords = [_KEYWORD % (node_level, node_start, tag)
                for node_level, node_start in zip(levels.tolist(),
                                                  starts.tolist())]
    serials = sse.add_grouped(keywords, group, words[owner])
    return _BulkFiling(
        owners, np.searchsorted(owner, np.arange(len(owners) + 1)),
        nodes, group, int(serials[0]) if serials.size else 0,
        tdag.capacity, tag)


class _BulkFiling:
    """The serial handles of one :func:`_file_bulk` call, implied by its
    filing arrays rather than kept per record.

    Record ``j`` of the call has serial ``first + j`` and lies under node
    ``nodes[group[j]]``; owner ``owners[i]`` filed records ``bounds[i]``
    to ``bounds[i + 1]``.  An owner leaves the filing when an update
    re-files or deletes its records.
    """

    __slots__ = ("_slot", "_bounds", "_nodes", "_group", "_first",
                 "_capacity", "_tag")

    def __init__(self, owners: list[int], bounds: np.ndarray,
                 nodes: np.ndarray, group: np.ndarray, first: int,
                 capacity: int, tag: bytes):
        self._slot = dict(zip(owners, range(len(owners))))
        self._bounds = bounds
        self._nodes = nodes
        self._group = group
        self._first = first
        self._capacity = capacity
        self._tag = tag

    def handles(self, owner: int) -> list[tuple[bytes, int]]:
        """The ``(keyword, serial)`` handles the owner filed here; ``[]``
        for an owner not (or no longer) in the filing."""
        slot = self._slot.get(owner)
        if slot is None:
            return []
        begin, end = self._bounds[slot:slot + 2].tolist()
        nodes = self._nodes[self._group[begin:end]].tolist()
        return [(_KEYWORD % (*divmod(node, self._capacity), self._tag),
                 self._first + record)
                for record, node in zip(range(begin, end), nodes)]

    def pop(self, owner: int) -> list[tuple[bytes, int]]:
        """:meth:`handles`, which the filing then forgets."""
        handles = self.handles(owner)
        self._slot.pop(owner, None)
        return handles

    def owners(self) -> list[int]:
        """The owners whose handles the filing still implies."""
        return list(self._slot)


def multi_dimensional_query(indexes: dict[str, LogSRCiIndex],
                            bounds: dict[str, tuple[int, int]]
                            ) -> np.ndarray:
    """Per-dimension SRC-i queries intersected (the paper's MD usage).

    Each dimension issues its own token set (Sec. 8.2.5: "Logarithmic-
    SRC-i sent a set of hashed values for keyword search for each
    dimension"); the TM-confirmed per-dimension results are intersected.
    """
    winners: np.ndarray | None = None
    for attribute, (low, high) in bounds.items():
        index = indexes[attribute]
        part = index.query_open(low, high)
        if winners is None:
            winners = part
        else:
            index.counter.charge(
                comparisons=int(winners.size + part.size))
            winners = np.intersect1d(winners, part, assume_unique=True)
        if winners.size == 0:
            break
    return winners if winners is not None else np.zeros(0, dtype=np.uint64)
