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
import threading

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
#: two's complement (see :func:`pack_signed`; an opened block reads them
#: back with ``.view(np.int64)``).
_WORD_MASK = (1 << 64) - 1


class SSEIndex:
    """Encrypted multimap: token → block of encrypted 3-word records.

    Records are triples of 64-bit words (Logarithmic-SRC-i stores either
    ``(value, pos_lo, pos_hi)`` or ``(uid, 0, 0)``), encrypted with the
    PRF stream keyed per record.  A token's postings are one ``(m, 4)``
    uint64 block in serial order: word 0 is the record's serial, in the
    clear, and words 1–3 the ciphertext.
    """

    def __init__(self, key: SecretKey, counter: CostCounter):
        self._key = key.subkey("sse")
        self.counter = counter
        # token -> (m, 4) block, serials increasing.  The serial is the
        # record's public handle, so a removal finds its row by binary
        # search without decrypting the posting list.
        self._postings: dict[bytes, np.ndarray] = {}
        # token -> blocks filed under a token already in ``_postings``
        # since its last read; folded onto it by :meth:`_block`, so a
        # run of adds costs no copy of a growing posting list.
        self._pending: dict[bytes, list[np.ndarray]] = {}
        self._fold_lock = threading.Lock()
        self._num_records = 0
        self._record_serial = 0
        self._record_key = self._key.subkey("records")
        # Keyed BLAKE2b is a bona fide MAC and much faster than HMAC-SHA256
        # for the tens of thousands of token derivations bulk index
        # construction performs; the key block is absorbed once, here.
        self._token_mac = hashlib.blake2b(
            key=self._key.subkey("tokens").raw[:32], digest_size=TOKEN_BYTES)

    # -- owner-side token derivation ---------------------------------------- #

    def token(self, keyword: bytes) -> bytes:
        """Searchable token for a keyword (keyed-PRF output)."""
        mac = self._token_mac.copy()
        mac.update(keyword)
        return mac.digest()

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
        self._num_records += count
        records[:, 1:] = words ^ self._keystream(records[:, 0])
        return records

    def _unseal(self, records: np.ndarray) -> np.ndarray:
        """Plain ``(count, 3)`` words of a block of retrieved records —
        one keystream expansion."""
        block = np.asarray(records, dtype=np.uint64).reshape(-1, 4)
        return block[:, 1:] ^ self._keystream(block[:, 0])

    def _file(self, token: bytes, block: np.ndarray) -> None:
        """File freshly sealed records (later serials than any filed)."""
        if token in self._postings:
            self._pending.setdefault(token, []).append(block)
        else:
            self._postings[token] = block

    def _block(self, token: bytes) -> np.ndarray | None:
        """The token's posting block with its pending records folded in."""
        if self._pending:
            with self._fold_lock:
                pending = self._pending.get(token)
                if pending:
                    self._postings[token] = np.concatenate(
                        [self._postings[token], *pending])
                    # Dropped only once the folded block is visible, so a
                    # concurrent reader never sees it missing records.
                    del self._pending[token]
        return self._postings.get(token)

    def _store(self, token: bytes, block: np.ndarray,
               kept: np.ndarray) -> None:
        """Replace the token's posting block by ``kept``, a subset of
        its rows; an emptied token leaves the dictionary."""
        self._num_records -= len(block) - len(kept)
        if len(kept):
            self._postings[token] = kept
        else:
            del self._postings[token]

    # -- index maintenance ---------------------------------------------------- #

    def add(self, keyword: bytes, words: tuple[int, int, int]) -> int:
        """File one record under a keyword; returns its serial handle."""
        record = self._seal(_pack_words([words]))
        self._file(self.token(keyword), record)
        self.counter.charge(index_updates=1)
        return int(record[0, 0])

    def add_grouped(self, keywords: list[bytes], group: np.ndarray,
                    words: np.ndarray) -> np.ndarray:
        """File record ``i`` (``words[i]``, three uint64 words) under
        ``keywords[group[i]]``; returns the serials, aligned with
        ``words``.

        Same serials, ciphertexts and postings as one :meth:`add` per
        record in order, but the block shares one keystream expansion
        and each distinct keyword costs one token derivation and one
        slice of the sealed block, however many records it receives.
        """
        group = np.asarray(group, dtype=np.intp)
        count = group.size
        if count == 0:
            return np.zeros(0, dtype=np.uint64)
        records = self._seal(np.asarray(words, dtype=np.uint64)
                             .reshape(count, 3))
        serials = records[:, 0].copy()
        # Sorting by (group, serial) — unique keys, so any sort is the
        # stable one — makes each keyword's records one run in serial
        # order, the order per-record adds would file them in.
        order = np.argsort(group * count + np.arange(count))
        grouped = group[order]
        block = records[order]
        del records
        starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        bounds = [*starts.tolist(), count]
        for index, start, stop in zip(grouped[starts].tolist(), bounds,
                                      bounds[1:]):
            self._file(self.token(keywords[index]), block[start:stop])
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
        """Remove one record by its serial handle — a binary search on
        the block's serial column, no decryption."""
        token = self.token(keyword)
        block = self._block(token)
        if block is None:
            return False
        serials = block[:, 0]
        row = int(serials.searchsorted(serial))
        if row == len(serials) or serials[row] != serial:
            return False
        self._store(token, block,
                    np.concatenate((block[:row], block[row + 1:])))
        self.counter.charge(index_updates=1)
        return True

    def remove(self, keyword: bytes, first_word: int) -> int:
        """Remove records under ``keyword`` whose first word matches.

        Returns the number of records removed.  This form decrypts the
        posting list to find matches; prefer :meth:`remove_serial` when
        the caller kept the serial handles.
        """
        token = self.token(keyword)
        block = self._block(token)
        if block is None:
            return 0
        target = np.uint64(first_word & _WORD_MASK)
        doomed = self._unseal(block)[:, 0] == target
        removed = int(np.count_nonzero(doomed))
        if removed:
            self._store(token, block, block[~doomed])
        self.counter.charge(index_updates=removed)
        return removed

    # -- server-side search ----------------------------------------------------- #

    def search(self, token: bytes) -> np.ndarray:
        """Encrypted postings for a token, one ``(m, 4)`` block in serial
        order (``m`` may be 0) — one SSE lookup."""
        block = self._block(token)
        if block is None:
            block = _NO_RECORDS
        self.counter.charge(sse_lookups=1, tuples_retrieved=len(block))
        return block

    # -- trusted-machine decryption ----------------------------------------------- #

    def open_records(self, records: np.ndarray) -> np.ndarray:
        """Decrypt a retrieved block (TM side) into its ``(m, 3)`` uint64
        plain words; QPF-like cost per record."""
        self.counter.charge(qpf_uses=len(records))
        return self._unseal(records)

    def reveal_records(self, records: np.ndarray) -> np.ndarray:
        """Decode a retrieved block server-side — cheap, no TM involved.

        Standard result-revealing SSE lets the server decode the postings
        it legitimately retrieved (the token carries the decoding
        capability).  Use this when the scheme needs no trusted
        confirmation (e.g. Logarithmic-BRC, which has no false
        positives); use :meth:`open_records` when the decode is a
        trusted-machine confirmation step.
        """
        self.counter.charge(comparisons=len(records))
        return self._unseal(records)

    # -- accounting ------------------------------------------------------------------ #

    @property
    def num_records(self) -> int:
        """Total records across all postings."""
        return self._num_records

    def storage_bytes(self) -> int:
        """Index footprint: dictionary keys plus encrypted postings."""
        return (len(self._postings) * TOKEN_BYTES
                + self._num_records * POSTING_BYTES)


#: The block :meth:`SSEIndex.search` returns for a token with no postings.
_NO_RECORDS = np.zeros((0, 4), dtype=np.uint64)
_NO_RECORDS.flags.writeable = False


def _pack_words(triples: list[tuple[int, int, int]]) -> np.ndarray:
    """``(count, 3)`` uint64 words of signed-or-unsigned int triples."""
    return np.asarray([(a & _WORD_MASK, b & _WORD_MASK, c & _WORD_MASK)
                       for a, b, c in triples],
                      dtype=np.uint64).reshape(len(triples), 3)


def pack_signed(value: int) -> int:
    """Map a signed integer into the 64-bit word space for records."""
    return value & ((1 << 64) - 1)


def node_keyword(material: bytes) -> bytes:
    """Keyword bytes for a TDAG node (namespaced)."""
    return b"node:" + material
