"""Logarithmic-BRC and Logarithmic-SRC — the rest of the scheme family.

"Practical Private Range Search Revisited" (Demertzis et al., SIGMOD
2016) proposes a family of range-search schemes trading storage, query
tokens and false positives.  The PRKB paper benchmarks against the
strongest member (Logarithmic-SRC-i, in :mod:`.log_src_i`); this module
implements its two simpler siblings so the trade-off space itself can be
reproduced (see ``benchmarks/bench_ablation_src_family.py``):

* **Logarithmic-BRC** — each tuple is filed along its *aligned* dyadic
  path (log D postings per tuple).  A query decomposes its range into the
  minimal dyadic cover (Best Range Cover, <= 2 log D nodes), sends one
  token per node, and the union of postings is the *exact* answer: no
  false positives, no trusted-machine confirmation — but many tokens per
  query.
* **Logarithmic-SRC** — each tuple is filed at *every* TDAG node covering
  it (~2 log D postings).  A query sends a single token for the Single
  Range Cover node; the postings are a superset whose size scales with
  the cover (up to ~2x the range *in domain terms* — which for narrow
  ranges over dense data can still be the whole dataset near the root),
  confirmed tuple-by-tuple inside the trusted machine.

Both are value-domain-only schemes (no position level), which is exactly
why SRC-i exists: SRC's false positives depend on the *domain*, not the
result.
"""

from __future__ import annotations

import numpy as np

from ..crypto.primitives import SecretKey
from ..edbms.costs import CostCounter
from .dyadic import TDAG
from .sse import SSEIndex

__all__ = ["dyadic_cover", "LogBRCIndex", "LogSRCIndex"]


def dyadic_cover(low: int, high: int) -> list[tuple[int, int]]:
    """Minimal aligned dyadic decomposition of ``[low, high]``.

    Returns ``(level, start)`` pairs; the classic greedy takes the
    largest aligned block starting at the cursor that fits, yielding at
    most ``2 log(span)`` nodes.
    """
    if low > high:
        raise ValueError(f"empty range [{low}, {high}]")
    if low < 0:
        raise ValueError("dyadic cover is defined on non-negative points")
    nodes: list[tuple[int, int]] = []
    cursor = low
    while cursor <= high:
        if cursor == 0:
            level = (high - cursor + 1).bit_length() - 1
        else:
            alignment = (cursor & -cursor).bit_length() - 1
            level = alignment
            while level > 0 and cursor + (1 << level) - 1 > high:
                level -= 1
        while cursor + (1 << level) - 1 > high:
            level -= 1
        nodes.append((level, cursor))
        cursor += 1 << level
    return nodes


class _DomainScheme:
    """Shared machinery: a value-domain tree over one attribute."""

    def __init__(self, key: SecretKey, counter: CostCounter,
                 attribute: str, domain: tuple[int, int], label: str):
        lo, hi = domain
        if lo > hi:
            raise ValueError("empty domain")
        self.attribute = attribute
        self.domain = (int(lo), int(hi))
        self.counter = counter
        self._label = label.encode()
        self._tdag = TDAG(hi - lo + 1)
        self._sse = SSEIndex(key.subkey(label), counter)
        self._num_tuples = 0

    def _point(self, value: int) -> int:
        lo, hi = self.domain
        if not lo <= value <= hi:
            raise ValueError(
                f"value {value} outside domain [{lo}, {hi}]")
        return value - lo

    def _keyword(self, level: int, start: int) -> bytes:
        return b"node:%d:%d|" % (level, start) + self._label

    @property
    def num_tuples(self) -> int:
        """Number of indexed tuples."""
        return self._num_tuples

    def storage_bytes(self) -> int:
        """Index footprint in bytes."""
        return self._sse.storage_bytes()


class LogBRCIndex(_DomainScheme):
    """Logarithmic-BRC: aligned-path filing, multi-token exact queries."""

    def __init__(self, key: SecretKey, counter: CostCounter,
                 attribute: str, domain: tuple[int, int],
                 uids: np.ndarray, values: np.ndarray):
        super().__init__(key, counter, attribute, domain, "log-brc")
        uids = np.asarray(uids, dtype=np.uint64)
        values = np.asarray(values, dtype=np.int64)
        if uids.size != values.size:
            raise ValueError("uids and values must align")
        items = []
        for uid, value in zip(uids.tolist(), values.tolist()):
            point = self._point(value)
            for level in range(self._tdag.height + 1):
                start = (point >> level) << level
                items.append((self._keyword(level, start),
                              (int(uid), 0, 0)))
        self._sse.add_bulk(items)
        self._num_tuples = int(uids.size)

    def query_inclusive(self, low: int, high: int) -> np.ndarray:
        """Exact uids with ``low <= value <= high`` — no false positives."""
        lo, hi = self.domain
        low, high = max(low, lo), min(high, hi)
        if low > high or self._num_tuples == 0:
            return np.zeros(0, dtype=np.uint64)
        winners: set[int] = set()
        for level, start in dyadic_cover(self._point(low),
                                         self._point(high)):
            token = self._sse.token(self._keyword(level, start))
            words = self._sse.reveal_records(self._sse.search(token))
            winners.update(words[:, 0].tolist())
        return np.asarray(sorted(winners), dtype=np.uint64)

    def query_open(self, low: int, high: int) -> np.ndarray:
        """Uids with ``low < value < high``."""
        return self.query_inclusive(low + 1, high - 1)


class LogSRCIndex(_DomainScheme):
    """Logarithmic-SRC: TDAG filing, single-token queries, TM-confirmed."""

    def __init__(self, key: SecretKey, counter: CostCounter,
                 attribute: str, domain: tuple[int, int],
                 uids: np.ndarray, values: np.ndarray):
        super().__init__(key, counter, attribute, domain, "log-src")
        uids = np.asarray(uids, dtype=np.uint64)
        values = np.asarray(values, dtype=np.int64)
        if uids.size != values.size:
            raise ValueError("uids and values must align")
        items = []
        for uid, value in zip(uids.tolist(), values.tolist()):
            point = self._point(value)
            for level, start in self._tdag.node_ids_covering_point(point):
                items.append((self._keyword(level, start),
                              (int(uid), value, 0)))
        self._sse.add_bulk(items)
        self._num_tuples = int(uids.size)

    def query_inclusive(self, low: int, high: int
                        ) -> tuple[np.ndarray, int]:
        """(exact uids, number of candidates the TM had to confirm)."""
        lo, hi = self.domain
        low, high = max(low, lo), min(high, hi)
        if low > high or self._num_tuples == 0:
            return np.zeros(0, dtype=np.uint64), 0
        cover = self._tdag.single_range_cover(self._point(low),
                                              self._point(high))
        token = self._sse.token(self._keyword(cover.level, cover.start))
        words = self._sse.open_records(self._sse.search(token))
        values = words[:, 1].view(np.int64)
        winners = np.sort(words[(values >= low) & (values <= high), 0])
        return winners, len(words)

    def query_open(self, low: int, high: int) -> tuple[np.ndarray, int]:
        """Open-interval form of :meth:`query_inclusive`."""
        return self.query_inclusive(low + 1, high - 1)
