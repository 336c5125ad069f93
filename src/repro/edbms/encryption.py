"""Encrypted table representation and the DO-side encryption pipeline.

The data owner encrypts each attribute value with a per-attribute subkey
and a nonce derived from the row uid, so the service provider stores only
opaque 64-bit ciphertext words.  ``EncryptedTable`` supports the update
operations of Sec. 7 (insert / delete) while preserving uid stability.
"""

from __future__ import annotations

import numpy as np

from ..crypto.primitives import SecretKey, encrypt_words, decrypt_words

__all__ = ["EncryptedTable", "encrypt_table", "attribute_key"]


def attribute_key(key: SecretKey, table_name: str, attribute: str
                  ) -> SecretKey:
    """Per-(table, attribute) data subkey with domain separation."""
    return key.subkey(f"data:{table_name}:{attribute}")


class EncryptedTable:
    """Server-side storage of an encrypted relation.

    The layout is columnar: for every attribute a ``uint64`` ciphertext
    array aligned with ``uids``.  A ``uid -> position`` dict supports O(1)
    random access, which the QPF needs when PRKB asks for individual
    samples.
    """

    def __init__(self, name: str, attribute_names: tuple[str, ...],
                 uids: np.ndarray, ciphertexts: dict[str, np.ndarray]):
        self.name = name
        self.attribute_names = tuple(attribute_names)
        self._uids = np.asarray(uids, dtype=np.uint64)
        self._ciphertexts = {
            attr: np.asarray(col, dtype=np.uint64)
            for attr, col in ciphertexts.items()
        }
        if set(self._ciphertexts) != set(self.attribute_names):
            raise ValueError("ciphertext columns do not match attributes")
        for attr, col in self._ciphertexts.items():
            if len(col) != len(self._uids):
                raise ValueError(f"column {attr!r} misaligned with uids")
        if len(self._uids) and np.unique(self._uids).size != len(self._uids):
            raise ValueError("duplicate uids in encrypted table")
        # Dense uid -> row-position lookup (-1 = absent): uids are
        # allocator-dense, so one gather replaces a per-uid dict walk on
        # the decrypt hot path.
        capacity = int(self._uids.max()) + 1 if len(self._uids) else 0
        self._position_lookup = np.full(capacity, -1, dtype=np.int64)
        if len(self._uids):
            self._position_lookup[self._uids] = np.arange(
                len(self._uids), dtype=np.int64)
        self._next_uid = capacity
        self._version = 0

    # ------------------------------------------------------------------ #
    # read access                                                         #
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        """Number of encrypted tuples currently stored."""
        return len(self._uids)

    @property
    def version(self) -> int:
        """Monotonic update counter, bumped on every insert/delete.

        Part of the planner's cache fingerprint: a cached physical plan
        costed against version v is invalid once the table has moved on,
        even when the row count happens to return to its old value.
        """
        return self._version

    @property
    def uids(self) -> np.ndarray:
        """All row uids (read-only view)."""
        view = self._uids.view()
        view.flags.writeable = False
        return view

    def positions(self, uids: np.ndarray) -> np.ndarray:
        """Physical positions of the given uids (raises on unknown uid)."""
        uids = np.asarray(uids, dtype=np.uint64).ravel()
        if uids.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(uids.max()) >= self._position_lookup.size:
            raise KeyError(f"unknown uid {int(uids.max())}")
        pos = self._position_lookup[uids]
        if int(pos.min()) < 0:
            raise KeyError(f"unknown uid {int(uids[int(np.argmin(pos))])}")
        return pos

    def position(self, uid: int) -> int:
        """Scalar :meth:`positions`: one uid, same ``KeyError``."""
        if 0 <= uid < self._position_lookup.size:
            pos = int(self._position_lookup[uid])
            if pos >= 0:
                return pos
        raise KeyError(f"unknown uid {uid}")

    def ciphertexts_for(self, attribute: str, uids: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """(ciphertext words, nonce uids) for the requested rows.

        The nonce of a cell is simply the row uid — unique per row, and the
        per-attribute subkey provides cross-column separation.
        """
        uids = np.asarray(uids, dtype=np.uint64)
        pos = self.positions(uids)
        return self._ciphertexts[attribute][pos], uids

    def full_column(self, attribute: str) -> tuple[np.ndarray, np.ndarray]:
        """``(ciphertext column, nonce uids)`` for *every* stored row.

        Position-aligned: the cell at physical position ``p`` was
        encrypted with nonce ``uids[p]``, so decrypting the pair
        whole-column and gathering by :meth:`positions` is bit-identical
        to any per-request :meth:`ciphertexts_for` decrypt.  This is the
        bulk path of the trusted machine's decrypted-column cache;
        callers must treat the result as a frozen snapshot of the
        current :attr:`version`.
        """
        return self._ciphertexts[attribute], self._uids

    def storage_bytes(self) -> int:
        """Approximate size of the encrypted relation (ciphertext + uids)."""
        cells = sum(col.nbytes for col in self._ciphertexts.values())
        return cells + self._uids.nbytes

    # ------------------------------------------------------------------ #
    # updates (Sec. 7)                                                    #
    # ------------------------------------------------------------------ #

    def allocate_uids(self, count: int) -> np.ndarray:
        """Reserve ``count`` fresh uids for rows about to be inserted."""
        fresh = np.arange(self._next_uid, self._next_uid + count,
                          dtype=np.uint64)
        self._next_uid += count
        return fresh

    def insert_rows(self, uids: np.ndarray,
                    ciphertexts: dict[str, np.ndarray]) -> None:
        """Append already-encrypted rows (uids must come from allocate_uids)."""
        uids = np.asarray(uids, dtype=np.uint64)
        if len(uids):
            if np.unique(uids).size != len(uids):
                raise ValueError("duplicate uids in insert")
            in_range = uids[uids < self._position_lookup.size]
            if in_range.size:
                present = in_range[self._position_lookup[in_range] >= 0]
                if present.size:
                    raise ValueError(
                        f"uid {int(present[0])} already present")
        base = len(self._uids)
        self._uids = np.concatenate([self._uids, uids])
        for attr in self.attribute_names:
            col = np.asarray(ciphertexts[attr], dtype=np.uint64)
            if len(col) != len(uids):
                raise ValueError(f"column {attr!r} misaligned with new uids")
            self._ciphertexts[attr] = np.concatenate(
                [self._ciphertexts[attr], col])
        if len(uids):
            needed = int(uids.max()) + 1
            if needed > self._position_lookup.size:
                grown = np.full(max(needed,
                                    2 * self._position_lookup.size),
                                -1, dtype=np.int64)
                grown[:self._position_lookup.size] = self._position_lookup
                self._position_lookup = grown
            self._position_lookup[uids] = np.arange(
                base, base + len(uids), dtype=np.int64)
        self._version += 1

    def delete_rows(self, uids: np.ndarray) -> None:
        """Remove rows by uid (compacting the columnar storage)."""
        doomed = np.unique(np.asarray(uids, dtype=np.uint64).ravel())
        if doomed.size == 0:
            return
        if self._position_lookup.size == 0:
            known = np.zeros(doomed.size, dtype=bool)
        else:
            clipped = np.minimum(
                doomed, np.uint64(self._position_lookup.size - 1))
            known = ((doomed < self._position_lookup.size)
                     & (self._position_lookup[clipped] >= 0))
        if not known.all():
            missing = [int(u) for u in doomed[~known][:5]]
            raise KeyError(f"unknown uids in delete: {missing}")
        keep = np.ones(len(self._uids), dtype=bool)
        keep[self._position_lookup[doomed]] = False
        self._uids = self._uids[keep]
        for attr in self.attribute_names:
            self._ciphertexts[attr] = self._ciphertexts[attr][keep]
        self._position_lookup[:] = -1
        if len(self._uids):
            self._position_lookup[self._uids] = np.arange(
                len(self._uids), dtype=np.int64)
        self._version += 1


def encrypt_table(key: SecretKey, table) -> EncryptedTable:
    """Encrypt a :class:`~repro.edbms.schema.PlainTable` for upload.

    Every cell is stream-encrypted under the per-attribute subkey with the
    row uid as nonce; the SP receives only the resulting ciphertext columns.
    """
    ciphertexts = {}
    for attr in table.schema.names:
        subkey = attribute_key(key, table.name, attr)
        values = table.columns[attr].astype(np.int64).view(np.uint64)
        ciphertexts[attr] = encrypt_words(subkey, values, table.uids)
    return EncryptedTable(
        name=table.name,
        attribute_names=table.schema.names,
        uids=table.uids.copy(),
        ciphertexts=ciphertexts,
    )


def decrypt_column(key: SecretKey, table: EncryptedTable, attribute: str,
                   uids: np.ndarray) -> np.ndarray:
    """Decrypt selected cells (trusted-machine side only)."""
    subkey = attribute_key(key, table.name, attribute)
    ciphertexts, nonces = table.ciphertexts_for(attribute, uids)
    return decrypt_words(subkey, ciphertexts, nonces).view(np.int64)
