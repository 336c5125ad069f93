"""Tests for Logarithmic-BRC / Logarithmic-SRC and the dyadic cover."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LogBRCIndex, LogSRCIndex, dyadic_cover
from repro.crypto import generate_key
from repro.edbms import CostCounter

pytestmark = pytest.mark.hybrid


class TestDyadicCover:
    def test_single_point(self):
        assert dyadic_cover(5, 5) == [(0, 5)]

    def test_aligned_block(self):
        assert dyadic_cover(8, 15) == [(3, 8)]

    def test_classic_decomposition(self):
        # [3, 12] -> [3], [4,7], [8,11], [12]
        assert dyadic_cover(3, 12) == [(0, 3), (2, 4), (2, 8), (0, 12)]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            dyadic_cover(5, 4)
        with pytest.raises(ValueError):
            dyadic_cover(-1, 4)

    @given(low=st.integers(min_value=0, max_value=4000),
           span=st.integers(min_value=0, max_value=4000))
    @settings(max_examples=80, deadline=None)
    def test_cover_is_exact_partition(self, low, span):
        high = low + span
        nodes = dyadic_cover(low, high)
        covered = []
        for level, start in nodes:
            assert start % (1 << level) == 0  # aligned
            covered.extend(range(start, start + (1 << level)))
        assert covered == list(range(low, high + 1))

    @given(low=st.integers(min_value=0, max_value=10**6),
           span=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_cover_is_logarithmic(self, low, span):
        high = low + span
        nodes = dyadic_cover(low, high)
        assert len(nodes) <= 2 * max(1, (span + 1).bit_length())


def make_indexes(values, domain=(0, 1000), seed=0):
    values = np.asarray(values, dtype=np.int64)
    uids = np.arange(values.size, dtype=np.uint64)
    counter = CostCounter()
    key = generate_key(seed)
    brc = LogBRCIndex(key, counter, "X", domain, uids, values)
    src = LogSRCIndex(key, counter, "X", domain, uids, values)
    lookup = {int(u): int(v) for u, v in zip(uids, values)}
    return brc, src, counter, lookup


def expect(lookup, low, high):
    return sorted(u for u, v in lookup.items() if low <= v <= high)


class TestLogBRC:
    def test_exact_answers(self):
        brc, __, __, lookup = make_indexes(range(0, 1000, 7))
        for low, high in ((0, 1000), (13, 14), (500, 500), (990, 1000)):
            got = sorted(map(int, brc.query_inclusive(low, high)))
            assert got == expect(lookup, low, high), (low, high)

    def test_no_trusted_machine_confirmations(self):
        brc, __, counter, __ = make_indexes(range(0, 500))
        counter.reset()
        brc.query_inclusive(100, 200)
        assert counter.qpf_uses == 0  # BRC has no false positives
        assert counter.sse_lookups >= 1

    def test_multiple_tokens_per_query(self):
        brc, __, counter, __ = make_indexes(range(0, 500))
        counter.reset()
        brc.query_inclusive(3, 300)  # unaligned range -> several nodes
        assert counter.sse_lookups > 1

    def test_open_interval(self):
        brc, __, __, lookup = make_indexes(range(0, 100))
        got = sorted(map(int, brc.query_open(10, 20)))
        assert got == expect(lookup, 11, 19)

    def test_empty(self):
        brc, __, __, __ = make_indexes([], domain=(0, 15))
        assert brc.query_inclusive(0, 15).size == 0

    def test_misaligned_input_rejected(self):
        with pytest.raises(ValueError):
            make_indexes([], domain=(5, 4))


class TestLogSRC:
    def test_exact_after_confirmation(self):
        __, src, __, lookup = make_indexes(range(0, 1000, 3))
        for low, high in ((0, 1000), (10, 40), (998, 1000)):
            got, __ = src.query_inclusive(low, high)
            assert sorted(map(int, got)) == expect(lookup, low, high)

    def test_single_token_per_query(self):
        __, src, counter, __ = make_indexes(range(0, 500))
        counter.reset()
        src.query_inclusive(100, 200)
        assert counter.sse_lookups == 1

    def test_false_positives_confirmed_by_tm(self):
        __, src, counter, lookup = make_indexes(range(0, 500))
        counter.reset()
        got, candidates = src.query_inclusive(3, 40)
        assert candidates >= got.size  # superset before confirmation
        assert counter.qpf_uses == candidates

    def test_domain_wide_query_touches_everything(self):
        __, src, __, lookup = make_indexes(range(0, 500), domain=(0, 511))
        got, candidates = src.query_inclusive(0, 511)
        assert candidates == 500
        assert got.size == 500


class TestFamilyTradeoffs:
    def test_storage_ordering(self):
        """SRC files at ~2x the nodes BRC does (TDAG straddles)."""
        brc, src, __, __ = make_indexes(range(0, 800), domain=(0, 30_000))
        assert src.storage_bytes() > 1.3 * brc.storage_bytes()

    def test_src_false_positive_blowup_vs_brc(self):
        """SRC's candidates scale with the cover, BRC stays exact —
        the motivation for SRC-i in the source paper."""
        brc, src, counter, lookup = make_indexes(
            np.linspace(0, 30_000, 600).astype(int), domain=(0, 30_000))
        counter.reset()
        brc_got = brc.query_inclusive(100, 400)
        brc_tm = counter.qpf_uses
        counter.reset()
        src_got, candidates = src.query_inclusive(100, 400)
        assert np.array_equal(np.sort(brc_got), np.sort(src_got))
        assert brc_tm == 0
        assert candidates > src_got.size  # SRC pays false positives
