"""MIN / MAX / TOP-k candidate pruning over POP — the paper's future work.

Sec. 9 suggests the partial order in PRKB can optimise "queries like Min,
Max or Skyline".  The key constraint is that the chain's *direction* is
unknowable to the server: the extreme value lives in either the first or
the last partition — but the server cannot tell which.  What the server
*can* do is return a provably sufficient candidate set (both chain ends)
and let the trusted machine resolve it by decrypting only the candidates,
each resolution charged like a QPF use.

With a chain of k roughly balanced partitions this reduces the trusted
machine's work from n decryptions to ≈ 2n/k for MIN/MAX — the same
orders-of-magnitude shape as the selection speed-ups in Sec. 8.
"""

from __future__ import annotations

import numpy as np

from ..crypto.primitives import SecretKey
from ..edbms.encryption import decrypt_column
from .prkb import PRKBIndex

__all__ = ["AggregateResolver"]

_EMPTY = np.zeros(0, dtype=np.uint64)


class AggregateResolver:
    """Resolve extreme-value queries with POP-pruned candidate sets.

    The resolver plays the trusted machine's role for the final
    confirmation step; the candidate-set computation (the interesting,
    PRKB-powered part) is pure server-side logic.
    """

    def __init__(self, index: PRKBIndex, key: SecretKey):
        self.index = index
        self._key = key

    # -- server-side candidate pruning ------------------------------------ #

    @staticmethod
    def candidate_count(index: PRKBIndex) -> int:
        """Exact size of the MIN/MAX candidate set for ``index``.

        The cost of an unfiltered MIN/MAX is precisely this many TM
        decryptions, so the planner's estimate for ``aggregate-ends``
        steps is exact (no key material needed — pure POP inspection).
        """
        pop = index.pop
        k = pop.num_partitions
        if k == 0:
            return 0
        if k == 1:
            return len(pop[0])
        return len(pop[0]) + len(pop[k - 1])

    def min_max_candidates(self) -> np.ndarray:
        """Uids that may hold the minimum or the maximum.

        Both chain ends must be returned because the direction is unknown;
        with k = 1 this degenerates to the full table, exactly like an
        unindexed EDBMS.
        """
        pop = self.index.pop
        k = pop.num_partitions
        if k == 0:
            return _EMPTY
        if k == 1:
            return pop[0].uids
        return np.concatenate([pop[0].uids, pop[k - 1].uids])

    def top_k_candidates(self, k_items: int) -> np.ndarray:
        """Uids sufficient to contain the k smallest *and* k largest values.

        Partitions are taken from both ends of the chain until each side
        covers at least ``k_items`` tuples.
        """
        if k_items < 1:
            raise ValueError("k_items must be positive")
        pop = self.index.pop
        chain_len = pop.num_partitions
        if chain_len == 0:
            return _EMPTY
        chunks: list[np.ndarray] = []
        taken_front = taken_back = 0
        front, back = 0, chain_len - 1
        while front <= back and (taken_front < k_items
                                 or taken_back < k_items):
            if taken_front < k_items:
                chunks.append(pop[front].uids)
                taken_front += len(pop[front])
                front += 1
            if front <= back and taken_back < k_items:
                chunks.append(pop[back].uids)
                taken_back += len(pop[back])
                back -= 1
        return np.unique(np.concatenate(chunks))

    # -- trusted-machine resolution ---------------------------------------- #

    def _decrypt_candidates(self, candidates: np.ndarray) -> np.ndarray:
        """Decrypt candidate cells inside the TM, charging QPF-like cost."""
        counter = self.index.qpf.counter
        counter.charge(qpf_uses=int(candidates.size),
                       tuples_retrieved=int(candidates.size))
        return decrypt_column(self._key, self.index.table,
                              self.index.attribute, candidates)

    def minimum(self) -> tuple[int, int]:
        """(uid, plaintext value) of the minimum; TM-resolved."""
        candidates = self.min_max_candidates()
        if candidates.size == 0:
            raise ValueError("empty table has no minimum")
        values = self._decrypt_candidates(candidates)
        best = int(np.argmin(values))
        return int(candidates[best]), int(values[best])

    def maximum(self) -> tuple[int, int]:
        """(uid, plaintext value) of the maximum; TM-resolved."""
        candidates = self.min_max_candidates()
        if candidates.size == 0:
            raise ValueError("empty table has no maximum")
        values = self._decrypt_candidates(candidates)
        best = int(np.argmax(values))
        return int(candidates[best]), int(values[best])

    # -- filtered aggregates (MIN/MAX over a selection's winners) --------- #

    def _extreme_candidates_among(self, uids: np.ndarray) -> np.ndarray:
        """Winners that can hold the min or max of the winner set.

        The winners of a range selection occupy a contiguous run of chain
        positions; only those in the run's two end partitions can be the
        extreme values (direction unknown, so both ends are kept).
        """
        uids = np.asarray(uids, dtype=np.uint64)
        if uids.size == 0:
            return _EMPTY
        # Order keys increase along the chain: the run's end partitions
        # hold the smallest and the largest key.
        keys = self.index.pop.keys_of_uids(uids)
        lo, hi = int(keys.min()), int(keys.max())
        return uids[(keys == lo) | (keys == hi)]

    def minimum_among(self, uids: np.ndarray) -> tuple[int, int]:
        """(uid, value) of the minimum within a winner set (filtered MIN)."""
        candidates = self._extreme_candidates_among(uids)
        if candidates.size == 0:
            raise ValueError("empty winner set has no minimum")
        values = self._decrypt_candidates(candidates)
        best = int(np.argmin(values))
        return int(candidates[best]), int(values[best])

    def maximum_among(self, uids: np.ndarray) -> tuple[int, int]:
        """(uid, value) of the maximum within a winner set (filtered MAX)."""
        candidates = self._extreme_candidates_among(uids)
        if candidates.size == 0:
            raise ValueError("empty winner set has no maximum")
        values = self._decrypt_candidates(candidates)
        best = int(np.argmax(values))
        return int(candidates[best]), int(values[best])

    def top_k(self, k_items: int, largest: bool = True
              ) -> list[tuple[int, int]]:
        """The k extreme (uid, value) pairs, ordered extreme-first.

        Returns fewer than ``k_items`` pairs only when the table is
        smaller than ``k_items``.
        """
        candidates = self.top_k_candidates(k_items)
        if candidates.size == 0:
            return []
        values = self._decrypt_candidates(candidates)
        order = np.argsort(values)
        if largest:
            order = order[::-1]
        order = order[:k_items]
        return [(int(candidates[i]), int(values[i])) for i in order]
