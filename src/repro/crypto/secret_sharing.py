"""SDB-style secret sharing — the alternative EDBMS backend (Sec. 2.1).

SDB (Wong et al., SIGMOD'14 / PVLDB'15) splits every data item into two
multiplicative shares modulo a public modulus: one kept by the data owner,
one stored at the service provider.  Neither share alone reveals the value.
Query operators are multi-party protocols between DO and SP.

PRKB is backend-agnostic: it only needs a QPF that reveals selection
results.  We include this substrate so the library demonstrates PRKB
running on top of a *second*, structurally different EDBMS (the test suite
runs the single-dimension processor against both backends), and so the
per-QPF cost asymmetry the paper describes (MPC rounds are even more
expensive than trusted-hardware decryption) can be modelled.

The arithmetic here follows SDB's scheme shape: for item ``v`` the owner
draws a random ``r`` and publishes ``share_sp = v * m^r mod n`` while
keeping ``r`` (compressible via an RSA-like generator, per the paper's
footnote 2).  Reconstruction multiplies by the modular inverse of ``m^r``.

Modulus and base are public and fixed, so both ``m^r`` and ``m^-r`` are
*fixed-base* powers: the product of one precomputed table entry per
8-bit window of ``r``.  The array methods (:meth:`SecretSharingScheme.
share_many`, :meth:`~SecretSharingScheme.reconstruct_many`) multiply
those entries with a vectorised ``a·b mod n`` over 31-bit limbs; the
scalar methods keep Python's ``pow`` and are the reference the array
methods are tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .primitives import SecretKey, prf_word, prf_words

__all__ = ["SecretSharingScheme", "SharePair"]

#: The public prime modulus ``n``: the largest prime below ``2**62``.
#: :func:`_mulmod` relies on its shape (``2**62 ≡ 57 (mod n)``).
MODULUS = 2**62 - 57

#: Public multiplicative base ``m``; any generator-ish element works.
BASE = 3

#: Fixed-base windows: 8 bits each, 8 of them cover any exponent below
#: ``2**64``.  One ``(8, 256)`` uint64 table per direction is 16 KB.
_WINDOW_BITS = 8
_WINDOWS = 8
_DIGIT_MAX = (1 << _WINDOW_BITS) - 1
_WINDOW_SHIFTS = np.arange(0, _WINDOWS * _WINDOW_BITS, _WINDOW_BITS,
                           dtype=np.uint64)[:, None]
_WINDOW_ROWS = np.arange(_WINDOWS)[:, None]

#: Up to this many items the array methods walk the window tables in
#: pure Python: the vector kernel is ~120 numpy dispatches whatever the
#: size, and QFilter probes carry 1-2 uids (DESIGN.md has the
#: measurement; same idea as ``primitives._SCALAR_PRF_CUTOFF``).
_SCALAR_SHARE_CUTOFF = 32

_M31 = np.uint64(2**31 - 1)
_M62 = np.uint64(2**62 - 1)
_S31 = np.uint64(31)
_S62 = np.uint64(62)
_FOLD = np.uint64(57)
_N = np.uint64(MODULUS)


def _mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b mod n`` element-wise for uint64 residues ``a, b < n``.

    Schoolbook product over 31-bit limbs — every partial product and sum
    stays below ``2**64`` — with each multiple of ``2**62`` folded back
    as ``× 57``, which is exact because ``2**62 = n + 57``.  The bounds
    in the comments are what keeps uint64 from wrapping.
    """
    a_hi, a_lo = a >> _S31, a & _M31
    b_hi, b_lo = b >> _S31, b & _M31
    high = a_hi * b_hi                      # < 2**62, weight 2**62
    low = a_lo * b_lo                       # < 2**62, weight 1
    mid = a_hi * b_lo
    mid += a_lo * b_hi                      # < 2**63, weight 2**31
    high += mid >> _S31                     # < 2**62 + 2**32
    mid &= _M31
    # 57·high + mid·2**31 + low, with high = h1·2**31 + h0:
    #   (57·h1 + mid)·2**31 + 57·h0 + low
    carry = high >> _S31                    # h1 <= 2**31 + 1
    high &= _M31                            # h0
    carry *= _FOLD
    carry += mid                            # < 2**37, weight 2**31
    high += carry >> _S31                   # h0 + (< 2**6), one more fold
    high *= _FOLD                           # < 2**37
    carry &= _M31
    carry <<= _S31                          # < 2**62
    low += carry
    low += high                             # < 2**63 + 2**37
    high = low >> _S62                      # <= 2
    high *= _FOLD
    low &= _M62
    low += high                             # < 2**62 + 114 < 2n
    np.subtract(low, _N, out=low, where=low >= _N)
    return low


@functools.cache
def _window_tables() -> tuple[tuple[np.ndarray, list[list[int]]], ...]:
    """The fixed-base tables ``t[w][i] = g^(i · 256^w) mod n``, for
    ``g = m`` at index 0 and ``g = m^-1`` at index 1, each as a uint64
    array and as nested lists of Python ints for the scalar walk.  A
    pure function of the two public constants, built on first use rather
    than at import."""
    tables = []
    for generator in (BASE, pow(BASE, -1, MODULUS)):
        rows = []
        for _ in range(_WINDOWS):
            row = [1]
            for _ in range(_DIGIT_MAX):
                row.append(row[-1] * generator % MODULUS)
            rows.append(row)
            generator = row[-1] * generator % MODULUS
        tables.append((np.asarray(rows, dtype=np.uint64), rows))
    return tuple(tables)


def _mask(values: np.ndarray, exponents: np.ndarray,
          inverse: bool) -> np.ndarray:
    """``values · m^exponents mod n`` (``m^-exponents`` when ``inverse``)
    for uint64 residues and exponents; uint64 out."""
    table, rows = _window_tables()[inverse]
    if values.size <= _SCALAR_SHARE_CUTOFF:
        out = []
        for acc, exponent in zip(values.tolist(), exponents.tolist()):
            for row in rows:
                acc = acc * row[exponent & _DIGIT_MAX] % MODULUS
                exponent >>= _WINDOW_BITS
            out.append(acc)
        return np.asarray(out, dtype=np.uint64)
    digits = (exponents >> _WINDOW_SHIFTS) & np.uint64(_DIGIT_MAX)
    factors = table[_WINDOW_ROWS, digits]
    # Pairwise tree: three products over 4n, 2n and n entries instead of
    # seven over n — same arithmetic, fewer numpy dispatches.
    factors = _mulmod(factors[:4], factors[4:])
    factors = _mulmod(factors[:2], factors[2:])
    return _mulmod(_mulmod(factors[0], factors[1]), values)


@dataclass(frozen=True)
class SharePair:
    """The two shares of one item: ``owner_share`` (= r) and ``sp_share``."""

    owner_share: int
    sp_share: int


class SecretSharingScheme:
    """Multiplicative secret sharing over ``Z_n*`` in the style of SDB.

    Values must be in ``[1, n-1]`` (0 has no multiplicative inverse); the
    EDBMS layer shifts attribute domains accordingly.
    """

    modulus = MODULUS
    base = BASE

    def __init__(self, key: SecretKey):
        self._key = key.subkey("secret-sharing")

    def _random_exponent(self, nonce: int) -> int:
        """Deterministic pseudo-random exponent for item ``nonce``."""
        return prf_word(self._key, nonce) % (MODULUS - 1)

    def _random_exponents(self, nonces: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_random_exponent` (uint64)."""
        return prf_words(self._key, nonces) % np.uint64(MODULUS - 1)

    def share(self, value: int, nonce: int) -> SharePair:
        """Split ``value`` into (owner, SP) shares."""
        if not 1 <= value < MODULUS:
            raise ValueError(
                f"value {value} outside sharable range [1, {MODULUS - 1}]"
            )
        r = self._random_exponent(nonce)
        mask = pow(BASE, r, MODULUS)
        return SharePair(owner_share=r, sp_share=(value * mask) % MODULUS)

    def reconstruct(self, pair: SharePair) -> int:
        """Recombine the two shares into the plaintext value."""
        mask = pow(BASE, pair.owner_share, MODULUS)
        inverse = pow(mask, -1, MODULUS)
        return (pair.sp_share * inverse) % MODULUS

    def share_many(self, values: np.ndarray,
                   nonces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`share`; returns (owner_shares, sp_shares).

        Element for element the same shares as :meth:`share`, and the
        same ``ValueError`` for the first value outside ``[1, n-1]``.
        """
        values = np.asarray(values, dtype=np.int64)
        nonces = np.asarray(nonces, dtype=np.uint64)
        if values.shape != nonces.shape:
            raise ValueError("values and nonces must align")
        values, nonces = values.ravel(), nonces.ravel()
        bad = (values < 1) | (values >= MODULUS)
        if bad.any():
            raise ValueError(
                f"value {int(values[np.argmax(bad)])} outside sharable "
                f"range [1, {MODULUS - 1}]"
            )
        exponents = self._random_exponents(nonces)
        return (exponents.astype(np.int64),
                _mask(values.astype(np.uint64), exponents, inverse=False))

    def reconstruct_many(self, sp_shares: np.ndarray,
                         nonces: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`reconstruct` of items shared under ``nonces``.

        The owner keeps no per-item state: the exponents are regenerated
        from the nonces, exactly as :meth:`share_many` drew them.
        Returns the plaintext values as uint64.
        """
        sp_shares = np.asarray(sp_shares, dtype=np.uint64)
        nonces = np.asarray(nonces, dtype=np.uint64)
        if sp_shares.shape != nonces.shape:
            raise ValueError("shares and nonces must align")
        # An SP word is whatever the SP stored: reduce it, as the scalar
        # method's Python arithmetic does, before the limb kernel.
        return _mask(sp_shares.ravel() % _N,
                     self._random_exponents(nonces.ravel()), inverse=True)
