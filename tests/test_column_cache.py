"""Tests for the trusted machine's decrypted-column cache.

Covers the :class:`~repro.edbms.qpf.ColumnCache` container itself, the
warm-gather decrypt path (bit-identical to cold), zero-QPF priming,
byte-budget enforcement under eviction pressure, the catch-up of a
column a write left behind (and the refill once the table's change
record is outrun), and the engine-level stale-read regression: version
bumps from insert/delete must invalidate the plan cache and bring the
column cache forward.
"""

import numpy as np
import pytest

from repro import EncryptedDatabase
from repro.bench import Testbed
from repro.edbms.costs import CostCounter
from repro.edbms.owner import DataOwner
from repro.edbms.qpf import (
    COLUMN_CACHE_BYTES,
    ColumnCache,
    TrustedMachine,
)
from repro.crypto.primitives import encrypt_words, generate_key
from repro.edbms.encryption import attribute_key
from repro.edbms.store import CHANGE_RECORD
from repro.workloads import uniform_table


def _insert(owner, table, values):
    """Append rows the way the data owner encrypts them; their uids."""
    values = np.asarray(values, dtype=np.int64)
    uids = table.allocate_uids(values.size)
    table.insert_rows(uids, {"X": encrypt_words(
        attribute_key(owner.key, table.name, "X"), values.view(np.uint64),
        uids)})
    return uids


def _machine_and_table(rows=200, attributes=("X",), seed=5,
                       **machine_kwargs):
    plain = uniform_table("t", rows, list(attributes), domain=(1, 10_000),
                          seed=seed)
    owner = DataOwner(key=generate_key(seed))
    table = owner.encrypt_table(plain)
    machine = TrustedMachine(owner.key, CostCounter(), **machine_kwargs)
    return owner, machine, table, plain


class TestColumnCacheContainer:
    def test_miss_then_hit(self):
        cache = ColumnCache(budget_bytes=1024)
        assert cache.get("t", "X", 0) is None
        column = np.arange(10, dtype=np.int64)
        cache.put("t", "X", 0, column)
        assert cache.get("t", "X", 0) is column
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.resident_bytes == column.nbytes

    def test_version_mismatch_invalidates(self):
        cache = ColumnCache(budget_bytes=1024)
        cache.put("t", "X", 0, np.arange(10, dtype=np.int64))
        assert cache.get("t", "X", 1) is None
        assert cache.invalidations == 1
        assert cache.resident_bytes == 0
        assert len(cache) == 0

    def test_over_budget_column_rejected(self):
        cache = ColumnCache(budget_bytes=8)
        assert not cache.admits(16)
        cache.put("t", "X", 0, np.arange(10, dtype=np.int64))
        assert cache.rejects == 1
        assert len(cache) == 0

    def test_lru_eviction_respects_budget(self):
        column = np.arange(10, dtype=np.int64)  # 80 bytes
        cache = ColumnCache(budget_bytes=2 * column.nbytes)
        cache.put("t", "A", 0, column)
        cache.put("t", "B", 0, column.copy())
        cache.get("t", "A", 0)  # A is now most recent
        evicted = cache.put("t", "C", 0, column.copy())
        assert evicted == 1
        assert cache.resident_bytes <= cache.budget_bytes
        assert cache.get("t", "B", 0) is None  # LRU victim
        assert cache.get("t", "A", 0) is not None

    def test_replace_same_key_keeps_residency_exact(self):
        cache = ColumnCache(budget_bytes=1024)
        cache.put("t", "X", 0, np.arange(10, dtype=np.int64))
        cache.put("t", "X", 1, np.arange(10, dtype=np.int64))
        assert cache.resident_bytes == 80
        assert len(cache) == 1

    def test_stats_keys(self):
        stats = ColumnCache().stats()
        assert set(stats) == {"hits", "misses", "evictions",
                              "invalidations", "fills", "rejects",
                              "catch_ups", "columns", "resident_bytes",
                              "budget_bytes"}
        assert stats["budget_bytes"] == COLUMN_CACHE_BYTES


class TestWarmPath:
    def test_warm_equals_cold_labels(self):
        owner, machine, table, plain = _machine_and_table()
        cold = TrustedMachine(owner.key, CostCounter(),
                              column_cache_bytes=0)
        trapdoor = owner.comparison_trapdoor("X", "<", 5000)
        uids = plain.uids[:150]
        want = cold.evaluate_batch(trapdoor, table, uids)
        first = machine.evaluate_batch(trapdoor, table, uids)  # fills
        second = machine.evaluate_batch(trapdoor, table, uids)  # warm
        assert np.array_equal(first, want)
        assert np.array_equal(second, want)
        assert machine.counter.column_cache_misses == 1
        assert machine.counter.column_cache_hits == 1

    def test_caching_never_changes_qpf_uses(self):
        owner, machine, table, plain = _machine_and_table()
        cold = TrustedMachine(owner.key, CostCounter(),
                              column_cache_bytes=0)
        trapdoor = owner.comparison_trapdoor("X", ">", 2000)
        uids = plain.uids[:77]
        cold.evaluate_batch(trapdoor, table, uids)
        machine.evaluate_batch(trapdoor, table, uids)
        machine.evaluate_batch(trapdoor, table, uids)
        assert cold.counter.qpf_uses == 77
        assert machine.counter.qpf_uses == 154

    def test_prime_column_spends_zero_qpf(self):
        owner, machine, table, plain = _machine_and_table()
        assert machine.prime_column(table, "X")
        assert machine.counter.qpf_uses == 0
        assert machine.counter.qpf_roundtrips == 0
        trapdoor = owner.comparison_trapdoor("X", "<", 5000)
        machine.evaluate_batch(trapdoor, table, plain.uids[:10])
        assert machine.counter.column_cache_hits == 1
        assert machine.counter.column_cache_misses == 0

    def test_prime_column_idempotent(self):
        __, machine, table, __ = _machine_and_table()
        assert machine.prime_column(table, "X")
        assert machine.prime_column(table, "X")
        assert machine.column_cache_stats()["fills"] == 1

    def test_disabled_cache_bypasses(self):
        owner, machine, table, plain = _machine_and_table(
            column_cache_bytes=0)
        trapdoor = owner.comparison_trapdoor("X", "<", 5000)
        machine.evaluate_batch(trapdoor, table, plain.uids[:10])
        assert machine.counter.column_cache_hits == 0
        assert machine.counter.column_cache_misses == 0
        assert not machine.prime_column(table, "X")

    def test_over_budget_column_stays_uncached_but_correct(self):
        owner, machine, table, plain = _machine_and_table(
            rows=300, column_cache_bytes=100)  # column = 2400 bytes
        cold = TrustedMachine(owner.key, CostCounter(),
                              column_cache_bytes=0)
        trapdoor = owner.comparison_trapdoor("X", "<", 5000)
        want = cold.evaluate_batch(trapdoor, table, plain.uids)
        got = machine.evaluate_batch(trapdoor, table, plain.uids)
        assert np.array_equal(got, want)
        assert machine.column_cache_stats()["resident_bytes"] == 0
        assert machine.counter.column_cache_misses == 1

    def test_write_catches_up_without_refill(self):
        owner, machine, table, plain = _machine_and_table()
        cold = TrustedMachine(owner.key, CostCounter(),
                              column_cache_bytes=0)
        trapdoor = owner.comparison_trapdoor("X", "<", 5000)
        machine.evaluate_batch(trapdoor, table, plain.uids[:20])
        table.delete_rows(plain.uids[3:9])
        fresh = _insert(owner, table, [10, 9_000, 4_999])
        live = table.uids.copy()
        got = machine.evaluate_batch(trapdoor, table, live)
        assert np.array_equal(got, cold.evaluate_batch(trapdoor, table,
                                                       live))
        assert got[-3:].tolist() == [True, False, True]
        assert np.isin(fresh, live).all()
        stats = machine.column_cache_stats()
        assert (stats["fills"], stats["catch_ups"],
                stats["invalidations"]) == (1, 1, 0)
        assert machine.counter.column_cache_misses == 1

    def test_outrun_change_record_refills(self):
        owner, machine, table, plain = _machine_and_table()
        trapdoor = owner.comparison_trapdoor("X", "<", 5000)
        machine.evaluate_batch(trapdoor, table, plain.uids[:20])
        for uid in plain.uids[:CHANGE_RECORD + 1]:
            table.delete_rows(np.asarray([uid], dtype=np.uint64))
        live = table.uids.copy()
        got = machine.evaluate_batch(trapdoor, table, live)
        want = (plain.columns["X"][CHANGE_RECORD + 1:] < 5000)
        assert np.array_equal(got, want)
        stats = machine.column_cache_stats()
        assert (stats["fills"], stats["catch_ups"],
                stats["invalidations"]) == (2, 0, 1)


class TestEvictionPressure:
    def test_budget_respected_across_three_columns(self):
        rows = 200
        column_bytes = rows * 8
        owner, machine, table, plain = _machine_and_table(
            rows=rows, attributes=("A", "B", "C"),
            column_cache_bytes=int(column_bytes * 1.5))
        cold = TrustedMachine(owner.key, CostCounter(),
                              column_cache_bytes=0)
        for round_no in range(3):
            for attribute in ("A", "B", "C"):
                trapdoor = owner.comparison_trapdoor(attribute, "<", 5000)
                want = cold.evaluate_batch(trapdoor, table, plain.uids)
                got = machine.evaluate_batch(trapdoor, table, plain.uids)
                assert np.array_equal(got, want)
                stats = machine.column_cache_stats()
                assert stats["resident_bytes"] <= stats["budget_bytes"]
        assert machine.counter.column_cache_evictions > 0


class TestShardPoolModes:
    def test_pool_warm_matches_serial_cold(self):
        table = uniform_table("t", 300, ["X"], domain=(1, 10_000), seed=9)
        serial = Testbed(table, ["X"], seed=9, column_cache_bytes=0)
        pooled = Testbed(table, ["X"], seed=9, qpf_workers=2)
        try:
            pooled.prime_column_cache("X")
            for constant in (2500, 5000, 7500):
                trapdoor = serial.owner.comparison_trapdoor("X", "<",
                                                            constant)
                want = serial.qpf.batch(trapdoor, serial.table,
                                        table.uids)
                got = pooled.qpf.batch(trapdoor, pooled.table, table.uids)
                assert np.array_equal(got, want)
            assert pooled.counter.qpf_uses == serial.counter.qpf_uses
        finally:
            pooled.close()
            serial.close()

    def test_pool_stats_aggregate_workers(self):
        table = uniform_table("t", 100, ["X"], domain=(1, 1000), seed=2)
        bed = Testbed(table, ["X"], seed=2, qpf_workers=2)
        try:
            stats = bed.column_cache_stats()
            assert stats["workers"] == 2
            assert stats["budget_bytes"] == COLUMN_CACHE_BYTES
        finally:
            bed.close()


class TestEngineStaleReadRegression:
    """The DO's plaintext mirror is upload-time only, so ground truth is
    tracked locally as a ``uid -> value`` dict updated alongside every
    insert/delete sent to the engine."""

    def _database(self):
        db = EncryptedDatabase(seed=0)
        rng = np.random.default_rng(0)
        values = rng.integers(1, 10_001, size=300, dtype=np.int64)
        db.create_table("t", {"X": (1, 10_000)}, {"X": values})
        db.enable_prkb("t", ["X"])
        plain = db.owner.plain_table("t")
        truth = {int(u): int(v) for u, v in zip(plain.uids, values)}
        return db, truth

    @staticmethod
    def _want(truth, constant):
        return np.sort(np.asarray(
            [u for u, v in truth.items() if v < constant],
            dtype=np.uint64))

    def test_no_stale_read_after_delete(self):
        db, truth = self._database()
        sql = "SELECT * FROM t WHERE X < 5000"
        before = db.query(sql)
        assert np.array_equal(before.uids, self._want(truth, 5000))
        victims = before.uids[:25]
        db.delete("t", victims)
        for uid in victims:
            del truth[int(uid)]
        # Same SQL: a stale plan *or* a stale decrypted column would
        # resurrect deleted uids here.
        after = db.query(sql)
        assert np.array_equal(after.uids, self._want(truth, 5000))
        assert not np.intersect1d(after.uids, victims).size

    def test_no_stale_read_after_insert(self):
        db, truth = self._database()
        sql = "SELECT * FROM t WHERE X < 5000"
        db.query(sql)
        values = [10, 20, 30]
        fresh = db.insert("t", {"X": np.asarray(values, dtype=np.int64)})
        truth.update({int(u): v for u, v in zip(fresh, values)})
        after = db.query(sql)
        assert np.array_equal(after.uids, self._want(truth, 5000))
        assert np.isin(fresh, after.uids).all()

    def test_interleaved_updates_stay_exact(self):
        db, truth = self._database()
        sql = "SELECT * FROM t WHERE X < 7000"
        for step in range(4):
            answer = db.query(sql)
            assert np.array_equal(answer.uids, self._want(truth, 7000))
            if step % 2 == 0 and answer.uids.size >= 10:
                victims = answer.uids[:10]
                db.delete("t", victims)
                for uid in victims:
                    del truth[int(uid)]
            else:
                values = [100 * (step + 1)] * 5
                fresh = db.insert("t", {"X": np.asarray(values,
                                                        dtype=np.int64)})
                truth.update({int(u): v for u, v in zip(fresh, values)})
        final = db.query(sql)
        assert np.array_equal(final.uids, self._want(truth, 7000))
