"""TDAG — the tree-like DAG with the single range cover property.

The structure underlying Logarithmic-SRC(-i) from Demertzis et al.,
"Practical Private Range Search Revisited" (SIGMOD 2016): a full binary
tree over a power-of-two domain, augmented at every internal level with
*straddling* nodes shifted by half a node width.  Its key property
(property-tested in this repo): **any range is covered by a single node of
size at most twice the range size** — the Single Range Cover (SRC).

Nodes are identified by ``(level, start)`` where the node covers
``[start, start + 2**level - 1]``; straddling nodes have
``start % 2**level == 2**(level-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TDAG", "TDAGNode"]


@dataclass(frozen=True)
class TDAGNode:
    """One TDAG node: the dyadic or straddling interval it covers."""

    level: int
    start: int

    @property
    def size(self) -> int:
        """Number of domain points covered."""
        return 1 << self.level

    @property
    def end(self) -> int:
        """Inclusive upper end of the covered interval."""
        return self.start + self.size - 1

    def covers(self, low: int, high: int) -> bool:
        """Whether the node's interval contains ``[low, high]``."""
        return self.start <= low and high <= self.end

    def token_material(self) -> bytes:
        """Stable byte identity used to derive SSE tokens."""
        return b"tdag:%d:%d" % (self.level, self.start)


class TDAG:
    """TDAG over the integer domain ``[0, capacity - 1]``.

    ``capacity`` is rounded up to a power of two.  The structure is purely
    combinatorial — nothing is materialised; nodes are computed on demand,
    so million-point domains cost nothing to "build".
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.height = max(1, (capacity - 1).bit_length())
        self.capacity = 1 << self.height

    def _check_point(self, point: int) -> None:
        if not 0 <= point < self.capacity:
            raise ValueError(
                f"point {point} outside domain [0, {self.capacity - 1}]"
            )

    def node_ids_covering_point(self, point: int) -> list[tuple[int, int]]:
        """``(level, start)`` pairs of all nodes containing ``point``.

        Allocation-light variant of :meth:`nodes_covering_point` for bulk
        index construction — identical node set, plain tuples instead of
        dataclass instances.
        """
        self._check_point(point)
        ids = []
        for level in range(self.height + 1):
            width = 1 << level
            ids.append((level, (point // width) * width))
            if level >= 1:
                half = width >> 1
                shifted = point - half
                if shifted >= 0:
                    straddle_start = (shifted // width) * width + half
                    if straddle_start + width <= self.capacity:
                        ids.append((level, straddle_start))
        return ids

    def node_ids_covering_points(self, points: np.ndarray
                                 ) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
        """:meth:`node_ids_covering_point` for all ``points`` at once.

        Returns ``(owner, level, start)`` int64 arrays: node ``i`` covers
        ``points[owner[i]]``.  Owners ascend, and each point's nodes come
        in the scalar method's order (level by level, aligned before
        straddling); an out-of-domain point raises the same
        ``ValueError``.
        """
        points = np.asarray(points, dtype=np.int64).ravel()
        outside = (points < 0) | (points >= self.capacity)
        if outside.any():
            self._check_point(int(points[np.argmax(outside)]))
        # One column per candidate node of a point: level 0 aligned, then
        # (aligned, straddling) for each higher level.  An aligned node
        # is a straddling one shifted by half = 0, so one formula serves
        # (column 0 is even too, but half a level-0 width is 0).
        level = np.repeat(np.arange(self.height + 1, dtype=np.int64), 2)[1:]
        width = np.int64(1) << level
        half = np.where(np.arange(level.size) % 2 == 0, width >> 1, 0)
        shifted = points[:, None] - half
        start = (shifted >> level << level) + half
        owner, column = np.nonzero((shifted >= 0)
                                   & (start + width <= self.capacity))
        return owner, level[column], start[owner, column]

    def nodes_covering_point(self, point: int) -> list[TDAGNode]:
        """All TDAG nodes containing ``point`` — where its entry is filed.

        One aligned node per level plus (where one exists) one straddling
        node per level: at most ``2·height + 1`` nodes, the O(log D)
        replication factor of Logarithmic-SRC.
        """
        return [TDAGNode(level, start)
                for level, start in self.node_ids_covering_point(point)]

    def single_range_cover(self, low: int, high: int) -> TDAGNode:
        """The smallest single node covering ``[low, high]`` (the SRC).

        Searches the aligned and straddling candidates at the two relevant
        levels; the TDAG construction guarantees one of them covers with
        size at most twice the range length (except when the range spans
        more than half the domain, where the root is the cover).
        """
        self._check_point(low)
        self._check_point(high)
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        base_level = max(0, (span - 1).bit_length())
        for level in range(base_level, self.height + 1):
            width = 1 << level
            aligned = TDAGNode(level, (low // width) * width)
            if aligned.covers(low, high):
                return aligned
            if level >= 1:
                half = width >> 1
                shifted = low - half
                if shifted >= 0:
                    straddle = TDAGNode(level,
                                        (shifted // width) * width + half)
                    if (straddle.start + width <= self.capacity
                            and straddle.covers(low, high)):
                        return straddle
        raise AssertionError(
            f"no cover found for [{low}, {high}] — TDAG invariant broken"
        )
