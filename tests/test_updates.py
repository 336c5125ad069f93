"""Unit tests for database update handling (Sec. 7)."""

import numpy as np
import pytest

from repro import EncryptedDatabase
from repro.bench import Testbed
from repro.core import SingleDimensionProcessor, TableUpdater
from repro.core.partitions import PartialOrderPartitions
from repro.crypto import ComparisonPredicate
from repro.edbms.qpf import TrustedMachine
from repro.workloads import uniform_table


def make_bed(n=200, seed=0):
    table = uniform_table("t", n, ["X", "Y"], domain=(1, 10_000), seed=seed)
    bed = Testbed(table, ["X", "Y"], seed=seed)
    bed.warm_up("X", 20, seed=seed)
    bed.warm_up("Y", 20, seed=seed + 1)
    return bed


def oracle(bed):
    """uid -> {attr: value} for all live rows, maintained by the tests."""
    return {
        int(u): {attr: int(bed.plain.columns[attr][i])
                 for attr in ("X", "Y")}
        for i, u in enumerate(bed.plain.uids)
    }


class TestInsert:
    def test_insert_then_query(self):
        bed = make_bed(seed=1)
        updater = TableUpdater(bed.table, bed.prkb)
        rows = {"X": np.asarray([5_000, 1, 9_999], dtype=np.int64),
                "Y": np.asarray([10, 20, 30], dtype=np.int64)}
        receipt = updater.insert_plain(bed.owner.key, rows)
        assert receipt.uids.size == 3
        live = oracle(bed)
        for uid, x in zip(receipt.uids, rows["X"]):
            live[int(uid)] = {"X": int(x), "Y": 0}
        processor = SingleDimensionProcessor(bed.prkb["X"])
        trapdoor = bed.owner.comparison_trapdoor("X", ">=", 5_000)
        got = set(map(int, processor.select(trapdoor)))
        want = {u for u, vals in live.items() if vals["X"] >= 5_000}
        assert got == want

    def test_insert_cost_independent_of_table_size(self):
        """Sec. 7.1 / Table 4: per-insert QPF cost is O(β log k), not O(n)."""
        costs = {}
        for n in (200, 2000):
            bed = make_bed(n=n, seed=2)
            updater = TableUpdater(bed.table, bed.prkb)
            receipt = updater.insert_plain(bed.owner.key, {
                "X": np.asarray([4_321], dtype=np.int64),
                "Y": np.asarray([1_234], dtype=np.int64),
            })
            costs[n] = receipt.qpf_uses
        assert costs[2000] <= costs[200] + 4  # log k wobble only

    def test_ragged_batch_rejected(self):
        bed = make_bed(seed=3)
        updater = TableUpdater(bed.table, bed.prkb)
        with pytest.raises(ValueError):
            updater.encrypt_rows(bed.owner.key, {
                "X": np.asarray([1, 2]),
                "Y": np.asarray([1]),
            })

    def test_missing_column_rejected(self):
        bed = make_bed(seed=3)
        updater = TableUpdater(bed.table, bed.prkb)
        with pytest.raises(ValueError):
            updater.encrypt_rows(bed.owner.key, {"X": np.asarray([1])})

    def test_mismatched_table_rejected(self):
        bed_a = make_bed(seed=4)
        bed_b = make_bed(seed=5)
        with pytest.raises(ValueError):
            TableUpdater(bed_a.table, bed_b.prkb)


class TestDelete:
    def test_delete_then_query(self):
        bed = make_bed(seed=6)
        updater = TableUpdater(bed.table, bed.prkb)
        doomed = bed.plain.uids[:5]
        updater.delete(doomed)
        assert bed.table.num_rows == 195
        processor = SingleDimensionProcessor(bed.prkb["X"])
        trapdoor = bed.owner.comparison_trapdoor("X", ">", 0)
        got = set(map(int, processor.select(trapdoor)))
        assert got.isdisjoint({int(u) for u in doomed})
        assert len(got) == 195

    def test_delete_shrinks_index(self):
        bed = make_bed(seed=7)
        updater = TableUpdater(bed.table, bed.prkb)
        k_before = bed.prkb["X"].num_partitions
        updater.delete(bed.plain.uids)
        assert bed.table.num_rows == 0
        assert bed.prkb["X"].num_partitions < k_before


    def test_repeated_uid_rejected_before_anything_moves(self):
        """Regression: ``delete([5, 5])`` used to drop uid 5 from every
        index, then fail before the table dropped the row — the PRKB
        answer lost a row the table scan still returned."""
        bed = make_bed(seed=10)
        updater = TableUpdater(bed.table, bed.prkb)
        with pytest.raises(ValueError, match="duplicate"):
            updater.delete(np.asarray([5, 5], dtype=np.uint64))
        assert bed.table.num_rows == 200
        trapdoor = bed.owner.comparison_trapdoor("X", ">=", 0)
        indexed = SingleDimensionProcessor(bed.prkb["X"]).select(trapdoor)
        scanned = bed.table.uids[
            bed.qpf.batch(trapdoor, bed.table, bed.table.uids)]
        assert np.array_equal(np.sort(indexed), np.sort(scanned))
        assert indexed.size == 200


class TestUpdateStatement:
    def test_update_is_delete_plus_insert(self):
        bed = make_bed(seed=8)
        updater = TableUpdater(bed.table, bed.prkb)
        victim = int(bed.plain.uids[0])
        receipt = updater.update_plain(bed.owner.key, victim,
                                       {"X": 7_777, "Y": 42})
        assert bed.table.num_rows == 200
        new_uid = int(receipt.uids[0])
        assert new_uid != victim
        processor = SingleDimensionProcessor(bed.prkb["X"])
        trapdoor = bed.owner.comparison_trapdoor("X", ">=", 7_777)
        got = set(map(int, processor.select(trapdoor)))
        assert new_uid in got
        assert victim not in got


class TestInterleavedWorkload:
    def test_queries_stay_correct_through_update_storm(self):
        bed = make_bed(n=150, seed=9)
        updater = TableUpdater(bed.table, bed.prkb)
        live = oracle(bed)
        rng = np.random.default_rng(9)
        processor = SingleDimensionProcessor(bed.prkb["X"])
        next_hint = 0
        for step in range(40):
            action = rng.integers(3)
            if action == 0 and live:
                victim = int(rng.choice(sorted(live)))
                updater.delete(np.asarray([victim], dtype=np.uint64))
                del live[victim]
            elif action == 1:
                x, y = int(rng.integers(1, 10_001)), int(
                    rng.integers(1, 10_001))
                receipt = updater.insert_plain(bed.owner.key, {
                    "X": np.asarray([x], dtype=np.int64),
                    "Y": np.asarray([y], dtype=np.int64),
                })
                live[int(receipt.uids[0])] = {"X": x, "Y": y}
            else:
                constant = int(rng.integers(1, 10_001))
                op = ("<", ">", "<=", ">=")[int(rng.integers(4))]
                trapdoor = bed.owner.comparison_trapdoor("X", op, constant)
                got = set(map(int, processor.select(trapdoor)))
                predicate = ComparisonPredicate("X", op, constant)
                want = {u for u, vals in live.items()
                        if predicate.evaluate(vals["X"])}
                assert got == want, f"step {step}"
            next_hint += 1
        bed.prkb["X"].pop.check_invariants(
            lambda uid: live[uid]["X"])


class TestWriteCostsItsRows:
    """A write patches the chain buffer, the trusted machine's decrypted
    column and the column store: on a 50k-row indexed table neither the
    write nor the select after it decrypts a whole column or rebuilds
    the chain buffer from the partitions."""

    def test_no_whole_column_work_around_small_writes(self, monkeypatch):
        values = np.random.default_rng(7).integers(1, 1_000_000, 50_000)
        db = EncryptedDatabase(seed=7)
        db.create_table("t", {"X": (1, 1_000_000)}, {"X": values})
        db.enable_prkb("t", ["X"])
        for constant in range(50_000, 1_000_000, 50_000):
            db.query(f"SELECT * FROM t WHERE X < {constant}")
        assert db.server.index("t", "X").pop.num_partitions > 10

        calls = {"fill": 0, "rebuild": 0}

        def counted(cls, name, tally):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                calls[tally] += 1
                return original(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        counted(TrustedMachine, "_fill_column", "fill")
        counted(PartialOrderPartitions, "segments", "rebuild")
        truth = dict(zip(db.owner.plain_table("t").uids.tolist(),
                         values.tolist()))
        added = np.arange(1, 9) * 60_000
        fresh = db.insert("t", {"X": added})
        truth.update(zip(fresh.tolist(), added.tolist()))
        sql = "SELECT * FROM t WHERE X < 333333"
        want = sorted(u for u, v in truth.items() if v < 333_333)
        assert db.query(sql).uids.tolist() == want
        victims = np.asarray(want[:2] + sorted(truth)[-2:], dtype=np.uint64)
        db.delete("t", victims)
        for uid in victims.tolist():
            del truth[uid]
        want = sorted(u for u, v in truth.items() if v < 333_333)
        assert db.query(sql).uids.tolist() == want
        assert calls == {"fill": 0, "rebuild": 0}
        db.server.index("t", "X").pop.check_invariants()
