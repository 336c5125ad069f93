"""Skyline candidate pruning over multi-attribute POP chains (future work).

For a 2-D (or d-D) skyline the server holds one POP chain per attribute.
A tuple's grid cell is its vector of chain positions.  Dominance between
*cells* would prune candidates — but every chain's direction is unknown,
so the server evaluates all ``2^d`` orientation hypotheses and keeps a
tuple as a candidate if it survives (is not strictly cell-dominated) under
*at least one* hypothesis that could be the true one... except the true
hypothesis is unknown, so soundness requires keeping tuples that survive
under *any* hypothesis being insufficient — instead we keep the union of
per-hypothesis skyline candidate sets, which is a superset of the true
skyline whichever orientation reality picked.  The trusted machine then
confirms candidates by decryption (QPF-like cost each).

Pruning strength grows with chain resolution: with k partitions per
attribute the candidate set shrinks towards the true skyline plus the
straddling cells.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..crypto.primitives import SecretKey
from ..edbms.encryption import decrypt_column
from .prkb import PRKBIndex

__all__ = ["SkylineResolver"]


class SkylineResolver:
    """Compute skyline candidates from POP chains; TM-confirm the answer.

    The skyline convention here is *minimise every attribute*: a tuple is
    on the skyline if no other tuple is <= on all attributes and < on at
    least one.
    """

    def __init__(self, indexes: dict[str, PRKBIndex], key: SecretKey):
        if not indexes:
            raise ValueError("at least one index required")
        tables = {id(ix.table) for ix in indexes.values()}
        if len(tables) != 1:
            raise ValueError("all indexes must cover the same table")
        self.indexes = dict(indexes)
        self._attributes = sorted(indexes)
        self._key = key
        self._table = next(iter(indexes.values())).table

    # -- server-side candidate pruning ------------------------------------ #

    @staticmethod
    def _cell_dominates(winner: tuple[int, ...], loser: tuple[int, ...],
                        signs: tuple[int, ...]) -> bool:
        """Strict cell dominance under one orientation hypothesis.

        ``signs[i] = +1`` means chain position ascends with plain value on
        attribute i; ``-1`` means it descends.  Strict (< in every
        coordinate) cell dominance is required: tuples in the same or a
        tied cell might still beat each other, so only *strictly* better
        cells certify dominance of every member over every member.
        """
        return all(
            (w - l) * s < 0 for w, l, s in zip(winner, loser, signs)
        )

    def candidates(self) -> np.ndarray:
        """A provable superset of the skyline, from POP knowledge alone."""
        uids = self._table.uids
        # Grid cell = vector of order keys across attributes: keys
        # compare as chain positions do, which is all dominance reads.
        keys = np.stack([self.indexes[attr].pop.keys_of_uids(uids)
                         for attr in self._attributes], axis=1)
        cells = dict(zip(uids.tolist(), map(tuple, keys.tolist())))
        occupied = sorted(set(cells.values()))
        d = len(self._attributes)
        survivors_by_cell: set[tuple[int, ...]] = set()
        for signs in itertools.product((1, -1), repeat=d):
            for cell in occupied:
                if not any(
                    self._cell_dominates(other, cell, signs)
                    for other in occupied
                    if other != cell
                ):
                    survivors_by_cell.add(cell)
        keep = [u for u, cell in cells.items()
                if cell in survivors_by_cell]
        counter = next(iter(self.indexes.values())).qpf.counter
        counter.charge(comparisons=len(occupied) ** 2 * (2 ** d))
        return np.asarray(sorted(keep), dtype=np.uint64)

    # -- trusted-machine confirmation -------------------------------------- #

    def skyline(self) -> list[int]:
        """Uids on the true skyline (minimising all attributes)."""
        candidates = self.candidates()
        if candidates.size == 0:
            return []
        counter = next(iter(self.indexes.values())).qpf.counter
        counter.charge(
            qpf_uses=int(candidates.size) * len(self._attributes),
            tuples_retrieved=int(candidates.size))
        matrix = np.stack([
            decrypt_column(self._key, self._table, attr, candidates)
            for attr in self._attributes
        ], axis=1)
        keep = []
        for i in range(len(candidates)):
            dominated = False
            for j in range(len(candidates)):
                if i == j:
                    continue
                leq = matrix[j] <= matrix[i]
                lt = matrix[j] < matrix[i]
                if leq.all() and lt.any():
                    dominated = True
                    break
            if not dominated:
                keep.append(int(candidates[i]))
        return sorted(keep)
