"""Property tests for the decrypted-column cache and bulk keystream path.

Pinned invariants:

* the in-place bulk keystream/decrypt variants
  (:func:`~repro.crypto.primitives.prf_words_into` /
  :func:`~repro.crypto.primitives.decrypt_words_into`) are bit-identical
  to their allocating counterparts for every payload size; and
* a warm :class:`~repro.edbms.qpf.TrustedMachine` (column cache on, any
  byte budget — including one too small to hold a single column) gives
  bit-identical ``evaluate_batch`` / ``evaluate_many`` answers to a cold
  machine across arbitrary interleavings of inserts, deletes, write
  bursts deeper than the table's change record, and queries.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.crypto.primitives import (
    decrypt_words,
    decrypt_words_into,
    generate_key,
    prf_words,
    prf_words_into,
)
from repro.crypto.primitives import encrypt_words
from repro.edbms.costs import CostCounter
from repro.edbms.encryption import attribute_key
from repro.edbms.owner import DataOwner
from repro.edbms.qpf import QPFRequest, TrustedMachine
from repro.edbms.store import CHANGE_RECORD
from repro.workloads import uniform_table

_WORDS = st.integers(min_value=0, max_value=2**64 - 1)


class TestBulkKeystream:
    @given(st.lists(_WORDS, max_size=300), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_prf_words_into_matches_prf_words(self, nonces, seed):
        key = generate_key(seed)
        nonces = np.asarray(nonces, dtype=np.uint64)
        out = np.empty_like(nonces)
        prf_words_into(key, nonces, out)
        assert np.array_equal(out, prf_words(key, nonces))

    @given(st.lists(st.tuples(_WORDS, _WORDS), max_size=200),
           st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_decrypt_words_into_matches_decrypt_words(self, cells, seed):
        key = generate_key(seed)
        ciphertexts = np.asarray([c for c, _ in cells], dtype=np.uint64)
        nonces = np.asarray([n for _, n in cells], dtype=np.uint64)
        out = np.empty_like(nonces)
        decrypt_words_into(key, ciphertexts, nonces, out)
        assert np.array_equal(out, decrypt_words(key, ciphertexts, nonces))

    def test_rejects_misshapen_out(self):
        key = generate_key(0)
        nonces = np.arange(4, dtype=np.uint64)
        try:
            prf_words_into(key, nonces, np.empty(3, dtype=np.uint64))
        except ValueError:
            return
        raise AssertionError("expected ValueError")


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"),
                  st.lists(st.integers(1, 9_999), min_size=1, max_size=8)),
        st.tuples(st.just("delete"), st.integers(0, 2**31)),
        st.tuples(st.just("query"), st.integers(1, 10_000),
                  st.integers(0, 2**31)),
        # A run of one-row writes with no read between them: shorter
        # than the store's change record (caught up) or longer (refill).
        st.tuples(st.just("burst"), st.integers(1, CHANGE_RECORD + 8),
                  st.integers(0, 2**31)),
    ),
    min_size=1, max_size=12,
)


def _build(seed, budget):
    plain = uniform_table("t", 60, ["X", "Y"], domain=(1, 10_000),
                          seed=seed)
    owner = DataOwner(key=generate_key(seed))
    table = owner.encrypt_table(plain)
    warm = TrustedMachine(owner.key, CostCounter(),
                          column_cache_bytes=budget)
    cold = TrustedMachine(owner.key, CostCounter(), column_cache_bytes=0)
    return owner, table, warm, cold


def _insert(owner, table, values):
    values = np.asarray(values, dtype=np.int64)
    uids = table.allocate_uids(values.size)
    table.insert_rows(uids, {
        attr: encrypt_words(attribute_key(owner.key, "t", attr),
                            values.view(np.uint64), uids)
        for attr in ("X", "Y")
    })


def _apply_ops(owner, table, warm, cold, ops, budget_label):
    """Replay ops against one shared table, comparing warm vs cold."""
    for op in ops:
        live = table.uids
        if op[0] == "insert":
            _insert(owner, table, op[1])
        elif op[0] == "delete":
            if live.size == 0:
                continue
            rng = np.random.default_rng(op[1])
            count = int(rng.integers(1, min(6, live.size) + 1))
            table.delete_rows(rng.choice(live, size=count, replace=False))
        elif op[0] == "burst":
            rng = np.random.default_rng(op[2])
            for __ in range(op[1]):
                if table.num_rows and rng.integers(2):
                    table.delete_rows(rng.choice(table.uids, size=1))
                else:
                    _insert(owner, table, rng.integers(1, 10_000, size=1))
        else:
            if live.size == 0:
                continue
            __, constant, subset_seed = op
            rng = np.random.default_rng(subset_seed)
            subset = rng.choice(
                live, size=int(rng.integers(1, live.size + 1)),
                replace=False)
            requests = [
                QPFRequest(owner.comparison_trapdoor("X", "<", constant),
                           table, subset),
                QPFRequest(owner.comparison_trapdoor("Y", ">",
                                                     constant // 2),
                           table, live.copy()),
            ]
            got_batch = warm.evaluate_batch(requests[0].trapdoor, table,
                                            subset)
            want_batch = cold.evaluate_batch(requests[0].trapdoor, table,
                                             subset)
            assert np.array_equal(got_batch, want_batch), budget_label
            got_many = warm.evaluate_many(requests)
            want_many = cold.evaluate_many(requests)
            for got, want in zip(got_many, want_many):
                assert np.array_equal(got, want), budget_label
    assert warm.counter.qpf_uses == cold.counter.qpf_uses


class TestWarmColdEquivalence:
    @given(_OPS, st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_default_budget(self, ops, seed):
        owner, table, warm, cold = _build(seed, 64 * 1024 * 1024)
        _apply_ops(owner, table, warm, cold, ops, "default budget")

    @given(_OPS, st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_eviction_pressure_budget_below_one_column(self, ops, seed):
        # 60 rows * 8 bytes = 480 bytes/column; while the table stays
        # that size a 256-byte budget can never retain a full column, so
        # fills are rejected and the machine silently stays on the
        # per-request path.  Enough deletes can shrink a column under
        # the budget, at which point admission is legitimate — but the
        # budget itself is still binding.
        owner, table, warm, cold = _build(seed, 256)
        _apply_ops(owner, table, warm, cold, ops, "starved budget")
        resident = warm.column_cache_stats()["resident_bytes"]
        assert resident <= 256
        if table.uids.size * 8 > 256:
            assert resident == 0

    @given(_OPS, st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_eviction_pressure_budget_one_and_a_half_columns(self, ops,
                                                             seed):
        # Room for one of the two columns at a time: X and Y queries
        # continuously evict each other while staying exact.
        owner, table, warm, cold = _build(seed, 720)
        _apply_ops(owner, table, warm, cold, ops, "thrashing budget")
        stats = warm.column_cache_stats()
        assert stats["resident_bytes"] <= stats["budget_bytes"]
