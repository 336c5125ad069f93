"""Low-level cryptographic primitives for the EDBMS simulation.

These primitives simulate application-level encryption: the data owner (DO)
encrypts every attribute value before upload and only the trusted machine
holds the key.  The constructions here are *real* (keyed SHA-256 PRF, stream
cipher by XOR with the PRF keystream) but are toy-sized and NOT intended to
be production secure.  They exist so the rest of the system exercises the
same code path as a real EDBMS: the service provider only ever sees opaque
64-bit ciphertext words and cannot evaluate predicates without the trusted
machine.

Vectorised variants (numpy) are provided because the benchmarks encrypt
hundreds of thousands of values.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct

import numpy as np

__all__ = [
    "SecretKey",
    "generate_key",
    "prf",
    "prf_word",
    "prf_words",
    "prf_words_into",
    "prf_keystream",
    "encrypt_word",
    "decrypt_word",
    "encrypt_words",
    "decrypt_words",
    "decrypt_words_into",
    "encrypt_value",
    "decrypt_value",
]

#: Number of bytes in a secret key.
KEY_BYTES = 32

#: Modulus for the 64-bit word space; ciphertexts live in [0, 2**64).
WORD_MODULUS = 1 << 64


class SecretKey:
    """An opaque symmetric key held by the data owner / trusted machine.

    The raw bytes are kept on a private attribute to make accidental leakage
    into server-side code easy to spot in review; the server is only ever
    handed ciphertexts and trapdoors, never a ``SecretKey``.
    """

    __slots__ = ("_raw", "_word_seed")

    def __init__(self, raw: bytes):
        if not isinstance(raw, (bytes, bytearray)):
            raise TypeError("key material must be bytes")
        if len(raw) != KEY_BYTES:
            raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(raw)}")
        self._raw = bytes(raw)
        # Lazily-derived keystream seed (see prf_words) — pure function
        # of the raw key, so caching it never changes any ciphertext.
        self._word_seed: int | None = None

    @property
    def raw(self) -> bytes:
        """Raw key bytes (trusted-side use only)."""
        return self._raw

    def subkey(self, label: str) -> "SecretKey":
        """Derive an independent subkey for a labelled purpose.

        Standard HKDF-style domain separation: different labels yield
        computationally independent keys, so e.g. the per-attribute data
        keys and the trapdoor-wrapping key never collide.
        """
        material = hmac.new(self._raw, label.encode("utf-8"),
                            hashlib.sha256).digest()
        return SecretKey(material)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SecretKey(<hidden>)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SecretKey):
            return NotImplemented
        return hmac.compare_digest(self._raw, other._raw)

    def __hash__(self) -> int:
        return hash(self._raw)


def generate_key(seed: int | None = None) -> SecretKey:
    """Generate a fresh key, optionally deterministically from ``seed``.

    Deterministic generation is used by tests and benchmarks so runs are
    reproducible; pass ``None`` for an OS-random key.
    """
    if seed is None:
        return SecretKey(os.urandom(KEY_BYTES))
    digest = hashlib.sha256(b"repro-key-seed:%d" % seed).digest()
    return SecretKey(digest)


def prf(key: SecretKey, message: bytes) -> bytes:
    """Keyed pseudo-random function: HMAC-SHA256."""
    return hmac.new(key.raw, message, hashlib.sha256).digest()


_WORD_MASK = WORD_MODULUS - 1

#: Below this many nonces the pure-Python mixer wins: numpy's fixed
#: per-op dispatch (~2us x 6 ops, plus the errstate context) dwarfs the
#: actual math on the 1-2 uid probes of the QFilter binary search.
_SCALAR_PRF_CUTOFF = 8


def _mix64(x: int) -> int:
    """splitmix64 finalizer on a Python int — bit-identical to the
    vectorised pipeline in :func:`prf_words` (masks replace uint64
    wraparound)."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _WORD_MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _WORD_MASK
    return x ^ (x >> 31)


def _word_seed(key: SecretKey) -> int:
    if key._word_seed is None:
        seed_bytes = prf(key, b"prf-words-seed")
        key._word_seed = struct.unpack("<Q", seed_bytes[:8])[0]
    return key._word_seed


def prf_word(key: SecretKey, nonce: int) -> int:
    """A pseudo-random 64-bit word derived from ``nonce``.

    Same keystream as :func:`prf_words`, via the scalar mixer.
    """
    return _mix64((nonce + _word_seed(key)) & _WORD_MASK)


def prf_words(key: SecretKey, nonces: np.ndarray) -> np.ndarray:
    """Vectorised ``prf_word`` over an array of nonces.

    A single HMAC keyed by the secret seeds a counter-mode expansion that is
    then mixed with the nonces using a splitmix64-style finalizer.  This is
    the simulation's keystream generator: deterministic given (key, nonce),
    unpredictable without the key.
    """
    nonces = np.asarray(nonces, dtype=np.uint64)
    seed = _word_seed(key)
    if nonces.size <= _SCALAR_PRF_CUTOFF:
        return np.array([_mix64((int(n) + seed) & _WORD_MASK)
                         for n in nonces.ravel()],
                        dtype=np.uint64).reshape(nonces.shape)
    x = nonces + np.uint64(seed)
    # splitmix64 finalizer: a fast, high-quality 64-bit mixing permutation.
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


def prf_words_into(key: SecretKey, nonces: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """:func:`prf_words` written into a caller-provided buffer.

    The whole-column keystream path: expanding a 100k-cell column
    through :func:`prf_words` allocates one intermediate per pipeline
    stage, which is exactly the churn the decrypted-column cache's cold
    fills want to avoid.  This variant runs the same splitmix64
    pipeline with ``out=`` ufunc calls — ``out`` receives the
    keystream, one same-shaped temporary holds the shifts — and is
    bit-identical to :func:`prf_words` for every size, including below
    the scalar cutoff (the scalar and vector mixers agree by
    construction).
    """
    nonces = np.asarray(nonces, dtype=np.uint64)
    if out.shape != nonces.shape or out.dtype != np.uint64:
        raise ValueError("out must be a uint64 array shaped like nonces")
    tmp = np.empty_like(out)
    with np.errstate(over="ignore"):
        np.add(nonces, np.uint64(_word_seed(key)), out=out)
        np.right_shift(out, np.uint64(30), out=tmp)
        np.bitwise_xor(out, tmp, out=out)
        np.multiply(out, np.uint64(0xBF58476D1CE4E5B9), out=out)
        np.right_shift(out, np.uint64(27), out=tmp)
        np.bitwise_xor(out, tmp, out=out)
        np.multiply(out, np.uint64(0x94D049BB133111EB), out=out)
        np.right_shift(out, np.uint64(31), out=tmp)
        np.bitwise_xor(out, tmp, out=out)
    return out


def prf_keystream(key: SecretKey, base: int, length: int) -> bytes:
    """``length`` bytes of counter-mode keystream from word ``base``.

    Equivalent to ``prf_words(key, base + arange(words)).tobytes()``
    truncated to ``length`` — the scalar path trapdoor sealing uses for
    its few-word payloads.
    """
    seed = _word_seed(key)
    words = (length + 7) // 8
    if words <= _SCALAR_PRF_CUTOFF:
        stream = b"".join(
            _mix64((base + i + seed) & _WORD_MASK).to_bytes(8, "little")
            for i in range(words))
        return stream[:length]
    with np.errstate(over="ignore"):
        nonces = np.uint64(base) + np.arange(words, dtype=np.uint64)
    return prf_words(key, nonces).tobytes()[:length]


def encrypt_word(key: SecretKey, value: int, nonce: int) -> int:
    """Encrypt a 64-bit word under (key, nonce) — stream-cipher XOR."""
    if not 0 <= value < WORD_MODULUS:
        raise ValueError("plaintext word out of 64-bit range")
    return value ^ prf_word(key, nonce)


def decrypt_word(key: SecretKey, ciphertext: int, nonce: int) -> int:
    """Invert :func:`encrypt_word`."""
    return ciphertext ^ prf_word(key, nonce)


def encrypt_words(key: SecretKey, values: np.ndarray,
                  nonces: np.ndarray) -> np.ndarray:
    """Vectorised word encryption (used for bulk table upload)."""
    values = np.asarray(values, dtype=np.uint64)
    return values ^ prf_words(key, nonces)


def decrypt_words(key: SecretKey, ciphertexts: np.ndarray,
                  nonces: np.ndarray) -> np.ndarray:
    """Vectorised word decryption (trusted-machine side)."""
    ciphertexts = np.asarray(ciphertexts, dtype=np.uint64)
    return ciphertexts ^ prf_words(key, nonces)


def decrypt_words_into(key: SecretKey, ciphertexts: np.ndarray,
                       nonces: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`decrypt_words` into a caller-provided buffer.

    Generates the keystream in place via :func:`prf_words_into`, then
    XORs the ciphertexts on top — no intermediate beyond the one
    shift temporary.  Bit-identical to :func:`decrypt_words`;
    this is the bulk path the trusted machine's decrypted-column cache
    uses for whole-column cold fills.
    """
    ciphertexts = np.asarray(ciphertexts, dtype=np.uint64)
    prf_words_into(key, nonces, out)
    np.bitwise_xor(out, ciphertexts, out=out)
    return out


def _to_word(value: int) -> int:
    """Map a signed Python int into the 64-bit word space (two's complement)."""
    return value & (WORD_MODULUS - 1)


def _from_word(word: int) -> int:
    """Invert :func:`_to_word` back to a signed integer."""
    if word >= WORD_MODULUS >> 1:
        return word - WORD_MODULUS
    return word


def encrypt_value(key: SecretKey, value: int, nonce: int) -> int:
    """Encrypt a (possibly negative) Python integer attribute value."""
    return encrypt_word(key, _to_word(value), nonce)


def decrypt_value(key: SecretKey, ciphertext: int, nonce: int) -> int:
    """Invert :func:`encrypt_value`."""
    return _from_word(decrypt_word(key, ciphertext, nonce))
