"""Encrypted table representation and the DO-side encryption pipeline.

The data owner encrypts each attribute value with a per-attribute subkey
and a nonce derived from the row uid, so the service provider stores only
opaque 64-bit ciphertext words.  ``EncryptedTable`` is the shared
:class:`~repro.edbms.store.UidColumnStore` holding those words.
"""

from __future__ import annotations

import numpy as np

from ..crypto.primitives import SecretKey, encrypt_words, decrypt_words
from .store import UidColumnStore

__all__ = ["EncryptedTable", "encrypt_table", "attribute_key"]


def attribute_key(key: SecretKey, table_name: str, attribute: str
                  ) -> SecretKey:
    """Per-(table, attribute) data subkey with domain separation."""
    return key.subkey(f"data:{table_name}:{attribute}")


class EncryptedTable(UidColumnStore):
    """Server-side storage of an encrypted relation: one ``uint64``
    ciphertext word per cell, encrypted under the per-attribute subkey
    with the row uid as nonce."""

    def __init__(self, name: str, attribute_names: tuple[str, ...],
                 uids: np.ndarray, ciphertexts: dict[str, np.ndarray]):
        super().__init__(name, attribute_names, uids, ciphertexts)

    ciphertexts_for = UidColumnStore.cells_for

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
        return self._columns[attribute], self._uids


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
