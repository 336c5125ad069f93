"""Order-preserving encryption (OPE) — the CryptDB-style comparison point.

The paper contrasts its QPF model with CryptDB/MONOMI, which encrypt
comparison columns with OPE so the server can compare ciphertexts directly.
The price is that *the total order of the plaintexts leaks immediately*
(RPOI = 100 % before a single query is processed — Sec. 8.1's closing
remark).  We implement a simple random-monotone OPE so the security_audit
example and the attack benchmarks can demonstrate exactly that contrast.

Construction: a keyed PRF drives a deterministic pseudo-random strictly
increasing mapping ``domain -> ciphertext space`` built from positive random
gaps (a standard "random order-preserving function" sampler, in the spirit of
Boldyreva et al.).  Encryption of a value not seen before is resolved lazily
by binary expansion of the gap table.
"""

from __future__ import annotations

import numpy as np

from ..distinct import distinct
from .primitives import SecretKey, prf_words

__all__ = ["OrderPreservingEncryption"]


class OrderPreservingEncryption:
    """Stateful OPE over an integer domain ``[domain_min, domain_max]``.

    The ciphertext for plaintext ``v`` is the prefix sum of pseudo-random
    positive gaps up to ``v``: strictly increasing in ``v``, deterministic
    given the key, and with an expansion factor controlled by ``gap_bits``.

    For the domain sizes used in this reproduction (up to a few tens of
    millions) the gap table is materialised lazily in fixed-size chunks so
    that encrypting a handful of values does not allocate the full domain.
    """

    #: Number of domain values covered by one lazily-built chunk.
    CHUNK = 1 << 16

    def __init__(self, key: SecretKey, domain_min: int, domain_max: int,
                 gap_bits: int = 8):
        if domain_min > domain_max:
            raise ValueError("empty OPE domain")
        if not 1 <= gap_bits <= 32:
            raise ValueError("gap_bits must be in [1, 32]")
        self._key = key.subkey("ope")
        self.domain_min = int(domain_min)
        self.domain_max = int(domain_max)
        self._gap_mask = np.uint64((1 << gap_bits) - 1)
        # _chunk_base[i] = ciphertext offset at the start of chunk i;
        # computed incrementally as chunks are materialised in order.
        self._chunk_prefix: list[np.ndarray] = []
        self._chunk_base: list[int] = [0]

    @property
    def domain_size(self) -> int:
        """Number of values in the plaintext domain."""
        return self.domain_max - self.domain_min + 1

    def _gaps_for_chunk(self, chunk_index: int) -> np.ndarray:
        """Pseudo-random positive gaps for one chunk of the domain."""
        start = np.uint64(chunk_index) * np.uint64(self.CHUNK)
        nonces = start + np.arange(self.CHUNK, dtype=np.uint64)
        words = prf_words(self._key, nonces)
        # Gaps in [1, 2**gap_bits]: strictly positive keeps the map strict.
        return (words & self._gap_mask).astype(np.uint64) + np.uint64(1)

    def _ensure_chunks(self, chunk_index: int) -> None:
        """Materialise prefix-sum tables up to and including ``chunk_index``."""
        while len(self._chunk_prefix) <= chunk_index:
            i = len(self._chunk_prefix)
            gaps = self._gaps_for_chunk(i)
            prefix = np.cumsum(gaps, dtype=np.uint64)
            self._chunk_prefix.append(prefix)
            self._chunk_base.append(self._chunk_base[-1] + int(prefix[-1]))

    def encrypt(self, value: int) -> int:
        """Encrypt one plaintext value; strictly monotone in ``value``."""
        if not self.domain_min <= value <= self.domain_max:
            raise ValueError(
                f"value {value} outside OPE domain "
                f"[{self.domain_min}, {self.domain_max}]"
            )
        offset = value - self.domain_min
        chunk_index, within = divmod(offset, self.CHUNK)
        self._ensure_chunks(chunk_index)
        return self._chunk_base[chunk_index] + int(
            self._chunk_prefix[chunk_index][within])

    def encrypt_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encrypt` (used to OPE-encrypt whole columns)."""
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            return np.zeros(0, dtype=np.uint64)
        if values.min() < self.domain_min or values.max() > self.domain_max:
            raise ValueError("values outside OPE domain")
        offsets = (values - self.domain_min).astype(np.int64)
        chunk_indices = offsets // self.CHUNK
        within = offsets % self.CHUNK
        self._ensure_chunks(int(chunk_indices.max()))
        bases = np.asarray(self._chunk_base, dtype=np.uint64)[chunk_indices]
        out = np.empty(values.size, dtype=np.uint64)
        for chunk in distinct(chunk_indices):
            mask = chunk_indices == chunk
            out[mask] = self._chunk_prefix[int(chunk)][within[mask]]
        return bases + out
