"""Searchable symmetric encryption (SSE) substrate for Logarithmic-SRC-i.

A standard result-revealing SSE index in the Curtmola/Cash mould, toy
realisation: the searchable *token* of a keyword is a keyed PRF of the
keyword (so the server learns nothing from tokens it has not received),
and each posting is an encrypted fixed-size record.  Lookups and
retrievals are metered through the shared cost counter so Logarithmic-
SRC-i's query costs are measured on the same scale as PRKB's.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..crypto.primitives import SecretKey, prf_words
from ..edbms.costs import CostCounter

__all__ = ["SSEIndex"]

#: Bytes per encrypted posting record (three encrypted 64-bit words plus
#: per-record IV overhead) — used for storage accounting.
POSTING_BYTES = 32

#: Bytes per stored token key in the dictionary.
TOKEN_BYTES = 16

#: Word mask: records carry 64-bit words; signed values are stored in
#: two's complement (see :func:`pack_signed` / :func:`unpack_signed`).
_WORD_MASK = (1 << 64) - 1


class SSEIndex:
    """Encrypted multimap: token → list of encrypted 3-word records.

    Records are triples of 64-bit words (Logarithmic-SRC-i stores either
    ``(value, pos_lo, pos_hi)`` or ``(uid, 0, 0)``), encrypted with the
    PRF stream keyed per record.
    """

    def __init__(self, key: SecretKey, counter: CostCounter):
        self._key = key.subkey("sse")
        self.counter = counter
        # token -> {record serial -> encrypted record}.  The serial is the
        # record's public handle (it is stored in the clear as word 0), so
        # deletion is O(1) without decrypting the posting list.
        self._postings: dict[bytes, dict[int, np.ndarray]] = {}
        self._record_serial = 0
        self._record_key = self._key.subkey("records")
        # Keyed BLAKE2b is a bona fide MAC and much faster than HMAC-SHA256
        # for the hundreds of thousands of token derivations bulk index
        # construction performs.
        self._token_key = self._key.subkey("tokens").raw[:32]

    # -- owner-side token derivation ---------------------------------------- #

    def token(self, keyword: bytes) -> bytes:
        """Searchable token for a keyword (keyed-PRF output)."""
        return hashlib.blake2b(keyword, key=self._token_key,
                               digest_size=TOKEN_BYTES).digest()

    def _keystream(self, serials: np.ndarray) -> np.ndarray:
        """``(count, 3)`` keystream words of the records with these
        (uint64) serials: record ``s`` owns nonces ``3s .. 3s + 2``."""
        nonces = serials[:, None] * np.uint64(3) \
            + np.arange(3, dtype=np.uint64)
        return prf_words(self._record_key, nonces)

    def _seal(self, words: np.ndarray) -> np.ndarray:
        """Encrypt ``(count, 3)`` uint64 words under the next ``count``
        serials; returns the ``(count, 4)`` records, serial in word 0."""
        count = len(words)
        records = np.empty((count, 4), dtype=np.uint64)
        records[:, 0] = np.arange(self._record_serial,
                                  self._record_serial + count,
                                  dtype=np.uint64)
        self._record_serial += count
        records[:, 1:] = words ^ self._keystream(records[:, 0])
        return records

    def _unseal(self, records: list[np.ndarray]) -> np.ndarray:
        """Plain ``(count, 3)`` words of a block of retrieved records —
        one stacked array, one keystream expansion."""
        block = np.asarray(records, dtype=np.uint64).reshape(-1, 4)
        return block[:, 1:] ^ self._keystream(block[:, 0])

    # -- index maintenance ---------------------------------------------------- #

    def add(self, keyword: bytes, words: tuple[int, int, int]) -> int:
        """File one record under a keyword; returns its serial handle."""
        record = self._seal(_pack_words([words]))[0]
        serial = int(record[0])
        self._postings.setdefault(self.token(keyword), {})[serial] = record
        self.counter.charge(index_updates=1)
        return serial

    def add_grouped(self, keywords: list[bytes], group: np.ndarray,
                    words: np.ndarray) -> np.ndarray:
        """File record ``i`` (``words[i]``, three uint64 words) under
        ``keywords[group[i]]``; returns the serials, aligned with
        ``words``.

        Same serials, ciphertexts and postings as one :meth:`add` per
        record in order, but the block shares one keystream expansion
        and each distinct keyword costs one token derivation and one
        dictionary update, however many records it receives.
        """
        group = np.asarray(group, dtype=np.intp)
        count = group.size
        if count == 0:
            return np.zeros(0, dtype=np.uint64)
        records = self._seal(np.asarray(words, dtype=np.uint64)
                             .reshape(count, 3))
        serials = records[:, 0].copy()
        # Runs of equal keyword after a stable sort keep serial order, so
        # each posting list fills in the order per-record adds would.
        order = np.argsort(group, kind="stable")
        grouped = group[order]
        starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        handles = serials[order].tolist()
        rows = list(records[order])
        for index, start, stop in zip(grouped[starts].tolist(),
                                      starts.tolist(),
                                      [*starts[1:].tolist(), count]):
            self._postings.setdefault(
                self.token(keywords[index]), {}
            ).update(zip(handles[start:stop], rows[start:stop]))
        self.counter.charge(index_updates=count)
        return serials

    def add_bulk(self, items: list[tuple[bytes, tuple[int, int, int]]]
                 ) -> np.ndarray:
        """File many ``(keyword, words)`` items at once.

        Semantically identical to calling :meth:`add` per item; a thin
        adapter over :meth:`add_grouped`.  Returns the serials, aligned
        with ``items``.
        """
        index_of: dict[bytes, int] = {}
        group = [index_of.setdefault(keyword, len(index_of))
                 for keyword, __ in items]
        return self.add_grouped(list(index_of), group,
                                _pack_words([words for __, words in items]))

    def remove_serial(self, keyword: bytes, serial: int) -> bool:
        """Remove one record by its serial handle — O(1), no decryption."""
        token = self.token(keyword)
        postings = self._postings.get(token)
        if not postings or serial not in postings:
            return False
        del postings[serial]
        if not postings:
            del self._postings[token]
        self.counter.charge(index_updates=1)
        return True

    def remove(self, keyword: bytes, first_word: int) -> int:
        """Remove records under ``keyword`` whose first word matches.

        Returns the number of records removed.  This form decrypts the
        posting list to find matches; prefer :meth:`remove_serial` when
        the caller kept the serial handles.
        """
        token = self.token(keyword)
        postings = self._postings.get(token)
        if not postings:
            return 0
        target = first_word & _WORD_MASK
        first_words = self._unseal(list(postings.values()))[:, 0].tolist()
        doomed = [serial for serial, word in zip(postings, first_words)
                  if word == target]
        for serial in doomed:
            del postings[serial]
        if not postings:
            del self._postings[token]
        self.counter.charge(index_updates=len(doomed))
        return len(doomed)

    # -- server-side search ----------------------------------------------------- #

    def search(self, token: bytes) -> list[np.ndarray]:
        """Encrypted postings for a token — one SSE lookup."""
        postings = self._postings.get(token, {})
        self.counter.charge(sse_lookups=1, tuples_retrieved=len(postings))
        return list(postings.values())

    # -- trusted-machine decryption ----------------------------------------------- #

    def open_records(self, records: list[np.ndarray]
                     ) -> list[tuple[int, int, int]]:
        """Decrypt retrieved records (TM side); QPF-like cost per record."""
        self.counter.charge(qpf_uses=len(records))
        return [tuple(row) for row in self._unseal(records).tolist()]

    def reveal_records(self, records: list[np.ndarray]
                       ) -> list[tuple[int, int, int]]:
        """Decode retrieved records server-side — cheap, no TM involved.

        Standard result-revealing SSE lets the server decode the postings
        it legitimately retrieved (the token carries the decoding
        capability).  Use this when the scheme needs no trusted
        confirmation (e.g. Logarithmic-BRC, which has no false
        positives); use :meth:`open_records` when the decode is a
        trusted-machine confirmation step.
        """
        self.counter.charge(comparisons=len(records))
        return [tuple(row) for row in self._unseal(records).tolist()]

    # -- accounting ------------------------------------------------------------------ #

    @property
    def num_records(self) -> int:
        """Total records across all postings."""
        return sum(len(p) for p in self._postings.values())

    def storage_bytes(self) -> int:
        """Index footprint: dictionary keys plus encrypted postings."""
        return (len(self._postings) * TOKEN_BYTES
                + self.num_records * POSTING_BYTES)


def _pack_words(triples: list[tuple[int, int, int]]) -> np.ndarray:
    """``(count, 3)`` uint64 words of signed-or-unsigned int triples."""
    return np.asarray([(a & _WORD_MASK, b & _WORD_MASK, c & _WORD_MASK)
                       for a, b, c in triples],
                      dtype=np.uint64).reshape(len(triples), 3)


def pack_signed(value: int) -> int:
    """Map a signed integer into the 64-bit word space for records."""
    return value & ((1 << 64) - 1)


def unpack_signed(word: int) -> int:
    """Invert :func:`pack_signed`."""
    if word >= 1 << 63:
        return word - (1 << 64)
    return word


def node_keyword(material: bytes) -> bytes:
    """Keyword bytes for a TDAG node (namespaced)."""
    return b"node:" + material
