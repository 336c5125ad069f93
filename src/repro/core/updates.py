"""Database update handling (paper Sec. 7).

:class:`TableUpdater` coordinates the three SQL update forms over an
encrypted table and all PRKB indexes that cover it:

* INSERT — the data owner encrypts the new row; the server appends it and
  files it into every index with the O(log k) separator binary search of
  Sec. 7.1 (``β·log k`` QPF uses for β indexed attributes).
* DELETE — the server drops the row; an index partition that empties is
  removed and its separator retired (Sec. 7.2: POP_k degrades to POP_{k-1}).
* UPDATE — modelled as delete-then-insert, as the paper prescribes.

The insertion *throughput* is independent of table size (Table 4): the
work per row is the encryption plus O(β log k) QPF probes.

Each SP-side operation is one durability epoch
(:func:`~repro.edbms.durability.wal.commit_epoch`): the table record and
one transaction per index are appended, every touched log is synced
once — table log first — and only then does the call return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..crypto.primitives import SecretKey, encrypt_words
from ..distinct import has_duplicates
from ..edbms.durability.wal import commit_epoch
from ..edbms.encryption import EncryptedTable, attribute_key
from .prkb import PRKBIndex

__all__ = ["TableUpdater", "InsertReceipt"]


@dataclass(frozen=True)
class InsertReceipt:
    """Outcome of one batch insert."""

    uids: np.ndarray
    qpf_uses: int


class TableUpdater:
    """Apply inserts/deletes to an encrypted table and its PRKB indexes."""

    def __init__(self, table: EncryptedTable,
                 indexes: dict[str, PRKBIndex], journal=None):
        for attr, index in indexes.items():
            if index.table is not table:
                raise ValueError(
                    f"index for {attr!r} does not cover table {table.name!r}"
                )
        self.table = table
        self.indexes = dict(indexes)
        # Optional durability hook (TableJournal): row batches are logged
        # to the table WAL *before* the dependent index work commits, so
        # crash recovery always repairs indexes toward the durable table.
        self.journal = journal

    # -- DO-side helper --------------------------------------------------- #

    def encrypt_rows(self, key: SecretKey,
                     rows: dict[str, np.ndarray]) -> tuple[np.ndarray, dict]:
        """Encrypt plaintext rows for upload (data-owner side).

        Returns the freshly allocated uids and the ciphertext columns; the
        server never sees the plaintext ``rows``.
        """
        sizes = {len(np.asarray(v)) for v in rows.values()}
        if len(sizes) != 1:
            raise ValueError("ragged insert batch")
        count = sizes.pop()
        if set(rows) != set(self.table.attribute_names):
            raise ValueError(
                f"insert columns {sorted(rows)} do not match table "
                f"attributes {sorted(self.table.attribute_names)}"
            )
        uids = self.table.allocate_uids(count)
        ciphertexts = {}
        for attr in self.table.attribute_names:
            subkey = attribute_key(key, self.table.name, attr)
            values = np.asarray(rows[attr], dtype=np.int64).view(np.uint64)
            ciphertexts[attr] = encrypt_words(subkey, values, uids)
        return uids, ciphertexts

    # -- SP-side operations ------------------------------------------------ #

    def insert_encrypted(self, uids: np.ndarray,
                         ciphertexts: dict[str, np.ndarray]) -> InsertReceipt:
        """Store encrypted rows and file them into every PRKB index."""
        counter = next(iter(self.indexes.values())).qpf.counter \
            if self.indexes else None
        before = counter.qpf_uses if counter else 0
        uids = np.asarray(uids, dtype=np.uint64)
        with commit_epoch():
            self.table.insert_rows(uids, ciphertexts)
            if self.journal is not None:
                self.journal.rows_insert(uids, ciphertexts)
            for index in self.indexes.values():
                index.insert_many(uids)
        after = counter.qpf_uses if counter else 0
        return InsertReceipt(uids=uids, qpf_uses=after - before)

    def insert_plain(self, key: SecretKey,
                     rows: dict[str, np.ndarray]) -> InsertReceipt:
        """Convenience: encrypt (DO side) then insert (SP side)."""
        uids, ciphertexts = self.encrypt_rows(key, rows)
        return self.insert_encrypted(uids, ciphertexts)

    def delete(self, uids: np.ndarray) -> None:
        """Delete rows by uid from the table and every index."""
        uids = np.asarray(uids, dtype=np.uint64)
        # Validate before journaling: a committed rows_del record naming
        # an unknown uid would be replayed at recovery against a table
        # that never performed the delete, failing recovery permanently.
        # A repeated uid fails on its second removal from an index, after
        # the record is logged and before the table drops the rows.
        if has_duplicates(uids):
            raise ValueError("duplicate uids in delete")
        self.table.positions(uids)
        with commit_epoch():
            if self.journal is not None:
                self.journal.rows_delete(uids)
            for index in self.indexes.values():
                index.delete_many(uids)
            self.table.delete_rows(uids)

    def update_plain(self, key: SecretKey, uid: int,
                     new_row: dict[str, int]) -> InsertReceipt:
        """UPDATE = DELETE old row + INSERT new row (Sec. 7 opening)."""
        rows = {
            attr: np.asarray([new_row[attr]], dtype=np.int64)
            for attr in self.table.attribute_names
        }
        with commit_epoch():
            self.delete(np.asarray([uid], dtype=np.uint64))
            return self.insert_plain(key, rows)
