"""Unit tests for the SDB-style secret-sharing substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import SecretSharingScheme, SharePair, generate_key
from repro.crypto.secret_sharing import (
    MODULUS,
    _SCALAR_SHARE_CUTOFF,
    _mulmod,
)

#: Sizes on both sides of the scalar / vector switch.
SIZES = (0, 1, _SCALAR_SHARE_CUTOFF, _SCALAR_SHARE_CUTOFF + 1, 1000)
residues = st.integers(min_value=0, max_value=MODULUS - 1)


def make_scheme(seed=0):
    return SecretSharingScheme(generate_key(seed))


class TestSecretSharing:
    def test_roundtrip(self):
        scheme = make_scheme()
        for value in (1, 2, 12345, MODULUS - 1):
            pair = scheme.share(value, nonce=7)
            assert scheme.reconstruct(pair) == value

    def test_sp_share_alone_hides_value(self):
        """Two different values can map to the same-looking SP shares under
        different randomness; at minimum the SP share must differ from the
        plaintext almost always."""
        scheme = make_scheme()
        hits = sum(
            scheme.share(v, nonce=v).sp_share == v
            for v in range(1, 2000)
        )
        assert hits <= 2

    def test_nonce_changes_share(self):
        scheme = make_scheme()
        assert scheme.share(5, 1).sp_share != scheme.share(5, 2).sp_share

    def test_range_enforced(self):
        scheme = make_scheme()
        with pytest.raises(ValueError):
            scheme.share(0, 1)
        with pytest.raises(ValueError):
            scheme.share(MODULUS, 1)

    def test_modulus_and_base_are_fixed_and_readable(self):
        scheme = make_scheme()
        assert scheme.modulus == MODULUS == 2**62 - 57
        assert scheme.base == 3
        with pytest.raises(TypeError):
            SecretSharingScheme(generate_key(0), modulus=2**61 - 1)

    def test_share_many_roundtrip(self):
        scheme = make_scheme(3)
        values = np.asarray([1, 10, 100, 1000], dtype=np.int64)
        nonces = np.arange(4, dtype=np.uint64)
        owner, sp = scheme.share_many(values, nonces)
        for i in range(4):
            pair = SharePair(int(owner[i]), int(sp[i]))
            assert scheme.reconstruct(pair) == int(values[i])

    def test_share_many_alignment_checked(self):
        scheme = make_scheme()
        with pytest.raises(ValueError):
            scheme.share_many(np.asarray([1, 2]), np.asarray([1],
                                                             dtype=np.uint64))

    @given(value=st.integers(min_value=1, max_value=MODULUS - 1),
           nonce=st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, value, nonce):
        scheme = make_scheme(9)
        assert scheme.reconstruct(scheme.share(value, nonce)) == value


class TestArrayKernel:
    """The numpy kernel against Python-int arithmetic, bit for bit."""

    @given(pairs=st.lists(st.tuples(residues, residues), min_size=1,
                          max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_mulmod_matches_python(self, pairs):
        a = np.asarray([a for a, __ in pairs], dtype=np.uint64)
        b = np.asarray([b for __, b in pairs], dtype=np.uint64)
        assert _mulmod(a, b).tolist() == [x * y % MODULUS for x, y in pairs]

    def test_mulmod_edges_and_bulk(self):
        edges = [0, 1, 2, 2**31 - 1, 2**31, 2**32, 2**61, MODULUS - 2,
                 MODULUS - 1]
        rng = np.random.default_rng(5)
        a = np.concatenate([np.repeat(edges, len(edges)),
                            rng.integers(0, MODULUS, 19_999)]
                           ).astype(np.uint64)
        b = np.concatenate([np.tile(edges, len(edges)),
                            rng.integers(0, MODULUS, 19_999)]
                           ).astype(np.uint64)
        want = [x * y % MODULUS for x, y in zip(a.tolist(), b.tolist())]
        assert _mulmod(a, b).tolist() == want
        # A stacked (rows, n) operand, as the pairwise product tree uses.
        assert _mulmod(a.reshape(2, -1), b.reshape(2, -1)).ravel().tolist() \
            == want

    @pytest.mark.parametrize("size", SIZES)
    def test_share_many_equals_share(self, size):
        scheme = make_scheme(11)
        rng = np.random.default_rng(size)
        values = rng.integers(1, MODULUS, size, dtype=np.int64)
        values[:2] = (1, MODULUS - 1)[:size]
        nonces = rng.integers(0, 2**63, size, dtype=np.uint64)
        owner, sp = scheme.share_many(values, nonces)
        assert owner.dtype == np.int64 and sp.dtype == np.uint64
        pairs = [scheme.share(v, n)
                 for v, n in zip(values.tolist(), nonces.tolist())]
        assert owner.tolist() == [pair.owner_share for pair in pairs]
        assert sp.tolist() == [pair.sp_share for pair in pairs]

    @pytest.mark.parametrize("size", SIZES)
    def test_reconstruct_many_equals_reconstruct(self, size):
        scheme = make_scheme(12)
        rng = np.random.default_rng(size + 1)
        # Arbitrary SP words, not only well-formed shares: the DO-side
        # arithmetic must agree with the scalar reference on all of them.
        sp = rng.integers(0, 2**64, size, dtype=np.uint64)
        sp[:3] = (0, MODULUS, 2**64 - 1)[:size]
        nonces = rng.integers(0, 2**63, size, dtype=np.uint64)
        got = scheme.reconstruct_many(sp, nonces)
        assert got.dtype == np.uint64
        assert got.tolist() == [
            scheme.reconstruct(
                SharePair(scheme._random_exponent(nonce), share))
            for share, nonce in zip(sp.tolist(), nonces.tolist())]

    @pytest.mark.parametrize("size", SIZES[2:])
    @pytest.mark.parametrize("bad", (0, -3, MODULUS))
    def test_share_many_range_error_matches_share(self, size, bad):
        scheme = make_scheme()
        values = np.full(size, 7, dtype=np.int64)
        values[size // 2] = bad
        values[-1] = 0  # a later offender: the first one is reported
        nonces = np.arange(size, dtype=np.uint64)
        with pytest.raises(ValueError) as scalar:
            scheme.share(bad, 0)
        with pytest.raises(ValueError) as many:
            scheme.share_many(values, nonces)
        assert str(many.value) == str(scalar.value)

    def test_reconstruct_many_alignment_checked(self):
        with pytest.raises(ValueError):
            make_scheme().reconstruct_many(
                np.asarray([1, 2], dtype=np.uint64),
                np.asarray([1], dtype=np.uint64))
