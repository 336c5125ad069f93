"""SDB-style secret-sharing backend — a second EDBMS under PRKB.

The paper's compatibility claim (Sec. 3.1): PRKB runs on top of *any*
EDBMS whose selection processing fits the QPF model — trusted-hardware
systems (our default :class:`~repro.edbms.qpf.TrustedMachine`) and
secret-sharing systems like SDB alike.  This module provides the latter:

* :class:`SecretSharedTable` — the service provider's half of the data:
  one multiplicative share per cell (``value · m^r mod n``); the data
  owner keeps only the share-generating key (the paper's footnote 2:
  the ``r`` exponents come from an RSA-like generator, so DO-side
  storage is O(1)).
* :class:`MPCQueryProcessingFunction` — Θ realised as a two-party
  protocol: for each probed tuple the SP ships the masked share to the
  DO, who unmasks and evaluates the comparison, returning the 0/1 bit.
  Each use costs one ``qpf_uses`` tick *plus* two ``mpc_messages``
  (request + response), which the cost model prices higher than a local
  trusted-machine call — reproducing SDB's "communication is the price
  of avoiding trusted hardware" trade-off.

Because the interface matches :class:`QueryProcessingFunction`,
``PRKBIndex`` and every processor on top of it run unmodified — the
compatibility claim is exercised directly by the test suite.

Values must fit ``[1, modulus)`` after an affine domain shift; the
table applies the shift internally so callers use natural values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..crypto.primitives import SecretKey
from ..crypto.secret_sharing import SecretSharingScheme
from ..crypto.trapdoor import (
    EncryptedPredicate,
    unseal_predicate,
)
from .costs import CostCounter
from .qpf import PREDICATE_CACHE_SIZE, PredicateLRU, QPFRequest, \
    _bump, _evaluate_plain
from .store import UidColumnStore

__all__ = ["SecretSharedTable", "MPCQueryProcessingFunction",
           "share_table", "share_rows"]


class SecretSharedTable(UidColumnStore):
    """SP-side storage of a secret-shared relation: one multiplicative
    share per cell, plus the public per-attribute ``domain_shift``."""

    def __init__(self, name: str, attribute_names: tuple[str, ...],
                 uids: np.ndarray, sp_shares: dict[str, np.ndarray],
                 domain_shift: dict[str, int]):
        super().__init__(name, attribute_names, uids, sp_shares)
        self.domain_shift = dict(domain_shift)

    shares_for = UidColumnStore.cells_for


def share_rows(key: SecretKey, table: SecretSharedTable,
               rows: dict[str, np.ndarray],
               uids: np.ndarray) -> dict[str, np.ndarray]:
    """DO-side sharing of new rows for insertion into ``table``."""
    scheme = SecretSharingScheme(key)
    sp_shares = {}
    for attr in table.attribute_names:
        shift = table.domain_shift[attr]
        shifted = np.asarray(rows[attr], dtype=np.int64) + shift
        __, sp = scheme.share_many(shifted,
                                   np.asarray(uids, dtype=np.uint64))
        sp_shares[attr] = sp
    return sp_shares


def share_table(key: SecretKey, table) -> SecretSharedTable:
    """Split a :class:`PlainTable` into shares; returns the SP half.

    Attribute domains are shifted so every shared value is >= 1 (zero has
    no multiplicative inverse); the shift is public metadata.
    """
    scheme = SecretSharingScheme(key)
    sp_shares = {}
    domain_shift = {}
    for attr in table.schema.names:
        spec = table.schema[attr]
        shift = 1 - spec.domain_min  # maps domain_min -> 1
        domain_shift[attr] = shift
        shifted = table.columns[attr].astype(np.int64) + shift
        __, sp = scheme.share_many(shifted, table.uids)
        sp_shares[attr] = sp
    return SecretSharedTable(
        name=table.name,
        attribute_names=table.schema.names,
        uids=table.uids.copy(),
        sp_shares=sp_shares,
        domain_shift=domain_shift,
    )


class MPCQueryProcessingFunction:
    """Θ as a two-party computation between SP and DO (SDB style).

    Drop-in replacement for :class:`QueryProcessingFunction`: same call
    signatures, same 0/1 observable, different cost profile.  The DO-side
    unmasking lives here because in SDB the owner *is* part of query
    processing (the paper's footnote 4 explicitly exempts this from the
    "no DO involvement" property, which concerns the index only).
    """

    def __init__(self, key: SecretKey, counter: CostCounter | None = None,
                 predicate_cache_size: int = PREDICATE_CACHE_SIZE):
        self._key = key
        self._scheme = SecretSharingScheme(key)
        self.counter = counter if counter is not None else CostCounter()
        self._predicate_cache = PredicateLRU(predicate_cache_size)

    def _exchange(self, tuples: int) -> dict:
        """Open the tally of one SP↔DO exchange carrying ``tuples``.

        Same convention as ``TrustedMachine._cross``: helpers add to the
        returned dict and the caller charges it once, in a ``finally``,
        so a raising exchange is still billed and every charge reaches
        the calling thread's :meth:`CostCounter.measure` scopes.
        """
        return {"qpf_uses": tuples, "tuples_retrieved": tuples,
                "mpc_messages": 2 * tuples, "qpf_roundtrips": 1,
                "parallel_wall_roundtrips": 1,
                "parallel_wall_qpf_uses": tuples}

    def _plain_predicate(self, trapdoor: EncryptedPredicate, deltas: dict):
        cached = self._predicate_cache.get(trapdoor.serial)
        if cached is None:
            _bump(deltas, "predicate_cache_misses")
            cached = unseal_predicate(self._key, trapdoor)
            self._predicate_cache.put(trapdoor.serial, cached)
        else:
            _bump(deltas, "predicate_cache_hits")
        return cached

    def _recover_values(self, table: SecretSharedTable, attribute: str,
                        uids: np.ndarray) -> np.ndarray:
        """DO-side share recombination for the probed cells."""
        sp_shares, nonces = table.shares_for(attribute, uids)
        values = self._scheme.reconstruct_many(sp_shares, nonces)
        return values.view(np.int64) - table.domain_shift[attribute]

    def __call__(self, trapdoor: EncryptedPredicate,
                 table: SecretSharedTable, uid: int) -> bool:
        """Θ(p̂, t̂) for one tuple — one QPF use, one message round-trip."""
        return bool(self.batch(trapdoor, table,
                               np.asarray([uid], dtype=np.uint64))[0])

    def batch(self, trapdoor: EncryptedPredicate,
              table: SecretSharedTable, uids: np.ndarray) -> np.ndarray:
        """Θ over many tuples; ``len(uids)`` QPF uses + 2 messages each.

        One call is one SP↔DO exchange, metered as one ``qpf_roundtrips``
        tick — the same convention as the trusted-hardware backend, so
        roundtrip figures are comparable across backends.  Empty
        payloads are never shipped (and charge nothing).
        """
        uids = np.asarray(uids, dtype=np.uint64)
        if uids.size == 0:
            return np.zeros(0, dtype=bool)
        deltas = self._exchange(int(uids.size))
        try:
            predicate = self._plain_predicate(trapdoor, deltas)
            values = self._recover_values(table, trapdoor.attribute, uids)
            return _evaluate_plain(predicate, values)
        finally:
            self.counter.charge(**deltas)

    def batch_many(self, requests: Sequence[QPFRequest]) -> list[np.ndarray]:
        """Θ over a coalesced multi-request payload — one SP↔DO exchange.

        Per-tuple accounting (``qpf_uses`` and the 2-messages-per-tuple
        MPC price) is identical to sending each request alone; only the
        number of exchanges (``qpf_roundtrips``) shrinks to one.
        """
        total = sum(int(r.uids.size) for r in requests)
        if total == 0:
            return [np.zeros(0, dtype=bool) for _ in requests]
        deltas = self._exchange(total)
        try:
            results = []
            for request in requests:
                if request.uids.size == 0:
                    results.append(np.zeros(0, dtype=bool))
                    continue
                predicate = self._plain_predicate(request.trapdoor, deltas)
                values = self._recover_values(
                    request.table, request.trapdoor.attribute, request.uids)
                results.append(_evaluate_plain(predicate, values))
            return results
        finally:
            self.counter.charge(**deltas)
