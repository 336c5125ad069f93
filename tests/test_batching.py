"""Tests for the batched QPF execution layer.

Invariants under test: batched execution returns the same winner sets as
serial execution, in strictly fewer enclave roundtrips; the batcher's
``(trapdoor, uid)`` dedup never changes any query's labels; per-query
logical accounting matches serial costs when the index is frozen; and
both QPF backends meter roundtrips identically.
"""

import numpy as np
import pytest

from repro.edbms import (
    AttributeSpec,
    BatchExecutor,
    BatchJob,
    CostCounter,
    PlainTable,
    QPFBatcher,
    QPFRequest,
    QueryProcessingFunction,
    Schema,
    TrustedMachine,
)
from repro.edbms.engine import EncryptedDatabase
from repro.edbms.owner import DataOwner
from repro.crypto import generate_key

DOMAIN = (1, 100_000)


def _plain_backend(seed=21, n=150):
    owner = DataOwner(key=generate_key(seed))
    rng = np.random.default_rng(seed)
    schema = Schema.of(AttributeSpec("X", *DOMAIN))
    plain = PlainTable("t", schema, {
        "X": rng.integers(DOMAIN[0], DOMAIN[1], size=n, dtype=np.int64)})
    counter = CostCounter()
    qpf = QueryProcessingFunction(TrustedMachine(owner.key, counter))
    return owner, owner.encrypt_table(plain), qpf, counter


def _database(seed=7, n=800, warm=0):
    db = EncryptedDatabase(seed=seed)
    rng = np.random.default_rng(seed)
    values = rng.integers(DOMAIN[0], DOMAIN[1], size=n)
    db.create_table("t", {"X": DOMAIN}, {"X": values})
    db.enable_prkb("t", ["X"])
    for constant in np.random.default_rng(99).integers(
            DOMAIN[0], DOMAIN[1], size=warm):
        db.query(f"SELECT * FROM t WHERE X < {int(constant)}")
    db.counter.reset()
    return db


class TestQPFBatcher:
    def test_single_request_is_one_roundtrip(self):
        owner, table, qpf, counter = _plain_backend()
        trapdoor = owner.comparison_trapdoor("X", "<", 50_000)
        uids = table.uids[:10]
        batcher = QPFBatcher(qpf)
        ticket = batcher.submit(QPFRequest(trapdoor, table, uids))
        labels = batcher.flush()[ticket]
        assert counter.qpf_roundtrips == 1
        assert counter.qpf_uses == 10
        assert np.array_equal(labels, qpf.batch(trapdoor, table, uids))

    def test_overlapping_same_trapdoor_requests_deduped(self):
        owner, table, qpf, counter = _plain_backend()
        trapdoor = owner.comparison_trapdoor("X", "<", 50_000)
        first = table.uids[:8]
        second = table.uids[4:12]  # overlaps first on 4 uids
        reference = qpf.batch(trapdoor, table, table.uids[:12])
        counter.reset()
        batcher = QPFBatcher(qpf)
        tickets = [batcher.submit(QPFRequest(trapdoor, table, first)),
                   batcher.submit(QPFRequest(trapdoor, table, second))]
        labels = batcher.flush()
        # 12 unique uids shipped once, in one crossing.
        assert counter.qpf_roundtrips == 1
        assert counter.qpf_uses == 12
        assert np.array_equal(labels[tickets[0]], reference[:8])
        assert np.array_equal(labels[tickets[1]], reference[4:12])

    def test_distinct_trapdoors_share_the_roundtrip(self):
        owner, table, qpf, counter = _plain_backend()
        low = owner.comparison_trapdoor("X", "<", 30_000)
        high = owner.comparison_trapdoor("X", ">", 70_000)
        uids = table.uids[:20]
        expected = [qpf.batch(low, table, uids),
                    qpf.batch(high, table, uids)]
        counter.reset()
        batcher = QPFBatcher(qpf)
        tickets = [batcher.submit(QPFRequest(low, table, uids)),
                   batcher.submit(QPFRequest(high, table, uids))]
        labels = batcher.flush()
        assert counter.qpf_roundtrips == 1
        assert counter.qpf_uses == 40  # no dedup across trapdoors
        for ticket, want in zip(tickets, expected):
            assert np.array_equal(labels[ticket], want)

    def test_empty_flush_is_free(self):
        __, __, qpf, counter = _plain_backend()
        assert QPFBatcher(qpf).flush() == []
        assert counter.qpf_roundtrips == 0


class TestAnswerBatchMatchesSerial:
    def test_warm_batch_equals_serial_with_fewer_roundtrips(self):
        constants = list(np.random.default_rng(5).integers(
            DOMAIN[0], DOMAIN[1], size=12))
        serial_db = _database(warm=40)
        serial = [serial_db.server.select(
            "t", serial_db.owner.comparison_trapdoor("X", "<", int(c)))
            for c in constants]
        serial_roundtrips = serial_db.counter.qpf_roundtrips

        batch_db = _database(warm=40)
        trapdoors = [batch_db.owner.comparison_trapdoor("X", "<", int(c))
                     for c in constants]
        answers = batch_db.server.answer_batch("t", trapdoors)
        for want, got in zip(serial, answers):
            assert np.array_equal(np.sort(want), np.sort(got.winners))
        assert batch_db.counter.qpf_roundtrips < serial_roundtrips

    def test_single_query_batches_cost_exactly_serial(self):
        """A batch of one replays the serial pipeline verbatim (same RNG
        draw order), so its physical and logical costs must be exact."""
        constants = list(np.random.default_rng(6).integers(
            DOMAIN[0], DOMAIN[1], size=8))
        serial_db = _database(warm=30)
        serial_costs = []
        for constant in constants:
            before = serial_db.counter.snapshot()
            serial_db.server.select(
                "t",
                serial_db.owner.comparison_trapdoor("X", "<",
                                                    int(constant)))
            serial_costs.append(
                serial_db.counter.diff(before).qpf_uses)

        batch_db = _database(warm=30)
        batch_costs = []
        for constant in constants:
            trapdoor = batch_db.owner.comparison_trapdoor(
                "X", "<", int(constant))
            before = batch_db.counter.snapshot()
            answer = batch_db.server.answer_batch("t", [trapdoor])[0]
            spent = batch_db.counter.diff(before)
            batch_costs.append(spent.qpf_uses)
            assert answer.qpf_uses == spent.qpf_uses
        assert batch_costs == serial_costs

    def test_roundtrip_shares_tally_to_physical_roundtrips(self):
        constants = list(np.random.default_rng(6).integers(
            DOMAIN[0], DOMAIN[1], size=8))
        db = _database(warm=30)
        trapdoors = [db.owner.comparison_trapdoor("X", "<", int(c))
                     for c in constants]
        answers = db.server.answer_batch("t", trapdoors, update=False)
        assert sum(a.roundtrip_share for a in answers) == pytest.approx(
            db.counter.qpf_roundtrips)

    def test_between_and_unindexed_fall_back_serially(self):
        db = _database(warm=10)
        rng = np.random.default_rng(1)
        db.create_table("u", {"Z": DOMAIN},
                        {"Z": rng.integers(*DOMAIN, size=50)})
        between = db.owner.between_trapdoor("X", 20_000, 60_000)
        unindexed = db.owner.comparison_trapdoor("Z", "<", 40_000)
        want_between = db.server.select("t", between, update=False)
        want_scan = db.server.select("u", unindexed)

        got_between = db.server.answer_batch("t", [between],
                                             update=False)[0]
        got_scan = db.server.answer_batch("u", [unindexed])[0]
        assert np.array_equal(np.sort(got_between.winners),
                              np.sort(want_between))
        assert np.array_equal(np.sort(got_scan.winners),
                              np.sort(want_scan))
        assert got_scan.roundtrip_share == 1.0

    def test_windowed_batches_match_single_window(self):
        constants = list(np.random.default_rng(8).integers(
            DOMAIN[0], DOMAIN[1], size=10))
        reference_db = _database(warm=25)
        reference = reference_db.server.answer_batch(
            "t", [reference_db.owner.comparison_trapdoor("X", "<", int(c))
                  for c in constants])
        windowed_db = _database(warm=25)
        windowed = windowed_db.server.answer_batch(
            "t", [windowed_db.owner.comparison_trapdoor("X", "<", int(c))
                  for c in constants], window=3)
        for want, got in zip(reference, windowed):
            assert np.array_equal(np.sort(want.winners),
                                  np.sort(got.winners))


class TestDuplicateTrapdoors:
    def test_duplicates_run_once_and_alias(self):
        db = _database(warm=20)
        trapdoor = db.owner.comparison_trapdoor("X", "<", 44_000)
        answers = db.server.answer_batch("t", [trapdoor, trapdoor,
                                               trapdoor])
        first, *rest = answers
        for duplicate in rest:
            assert np.array_equal(duplicate.winners, first.winners)
            assert duplicate.qpf_uses == 0
            assert duplicate.roundtrip_share == 0.0
            assert duplicate.was_equivalent

    def test_duplicates_cost_the_same_as_one(self):
        single_db = _database(warm=20)
        single_db.server.answer_batch(
            "t", [single_db.owner.comparison_trapdoor("X", "<", 44_000)])
        single_uses = single_db.counter.qpf_uses

        triple_db = _database(warm=20)
        trapdoor = triple_db.owner.comparison_trapdoor("X", "<", 44_000)
        triple_db.server.answer_batch("t", [trapdoor] * 3)
        assert triple_db.counter.qpf_uses == single_uses


class TestExecuteMany:
    def test_mixed_statements_match_serial_queries(self):
        sqls = [
            "SELECT * FROM t WHERE X < 30000",
            "SELECT COUNT(*) FROM t WHERE X > 70000",
            "SELECT * FROM t WHERE X BETWEEN 20000 AND 50000",
            "SELECT * FROM t WHERE X > 10000 AND X < 20000",
            "SELECT * FROM t WHERE X < 90000",
        ]
        serial_db = _database(warm=15)
        serial = [serial_db.query(sql) for sql in sqls]
        batch_db = _database(warm=15)
        batch = batch_db.execute_many(sqls)
        assert len(batch) == len(sqls)
        for want, got in zip(serial, batch):
            assert np.array_equal(want.uids, got.uids)
            assert want.count == got.count

    def test_burst_uses_fewer_roundtrips_than_serial(self):
        sqls = [f"SELECT * FROM t WHERE X < {c}"
                for c in range(10_000, 90_000, 10_000)]
        serial_db = _database(warm=25)
        for sql in sqls:
            serial_db.query(sql)
        batch_db = _database(warm=25)
        batch_db.execute_many(sqls)
        assert (batch_db.counter.qpf_roundtrips
                < serial_db.counter.qpf_roundtrips)

    def test_baseline_strategy_bypasses_batching(self):
        db = _database(n=120)
        answer = db.execute_many(["SELECT * FROM t WHERE X < 50000"],
                                 strategy="baseline")[0]
        assert db.counter.qpf_uses >= 120  # full scan, no PRKB
        reference = _database(n=120).query(
            "SELECT * FROM t WHERE X < 50000")
        assert np.array_equal(answer.uids, reference.uids)


class TestRoundtripMeteringParity:
    def test_trusted_machine_and_mpc_meter_identically(self):
        from repro.edbms.sdb_backend import (
            MPCQueryProcessingFunction,
            share_table,
        )

        owner = DataOwner(key=generate_key(77))
        rng = np.random.default_rng(77)
        schema = Schema.of(AttributeSpec("X", *DOMAIN))
        plain = PlainTable("t", schema, {
            "X": rng.integers(DOMAIN[0], DOMAIN[1], size=80,
                              dtype=np.int64)})
        tm_counter = CostCounter()
        tm_qpf = QueryProcessingFunction(
            TrustedMachine(owner.key, tm_counter))
        tm_table = owner.encrypt_table(plain)
        mpc_counter = CostCounter()
        mpc_qpf = MPCQueryProcessingFunction(owner.key, mpc_counter)
        mpc_table = share_table(owner.key, plain)

        low = owner.comparison_trapdoor("X", "<", 40_000)
        high = owner.comparison_trapdoor("X", ">", 60_000)
        for qpf, table in ((tm_qpf, tm_table), (mpc_qpf, mpc_table)):
            qpf.batch(low, table, table.uids[:7])
            qpf.batch(low, table, table.uids[:0])  # empty: no roundtrip
            qpf.batch_many([QPFRequest(low, table, table.uids[:5]),
                            QPFRequest(high, table, table.uids[5:9])])
            batcher = QPFBatcher(qpf)
            batcher.submit(QPFRequest(low, table, table.uids[:6]))
            batcher.submit(QPFRequest(high, table, table.uids[:6]))
            batcher.flush()
        assert tm_counter.qpf_roundtrips == mpc_counter.qpf_roundtrips == 3
        assert tm_counter.qpf_uses == mpc_counter.qpf_uses


class TestBatchExecutorDirect:
    def test_unknown_job_kind_rejected(self):
        db = _database(n=60)
        trapdoor = db.owner.comparison_trapdoor("X", "<", 10)
        executor = BatchExecutor(db.qpf)
        with pytest.raises(ValueError):
            executor.run([BatchJob("mystery", trapdoor,
                                   db.server.table("t"))])

    def test_batch_answer_count(self):
        db = _database(warm=5)
        answer = db.server.answer_batch(
            "t", [db.owner.comparison_trapdoor("X", "<", 50_000)])[0]
        assert answer.count == answer.winners.size


class TestRotationInWindows:
    def test_windows_at_the_cap_answer_exactly_and_never_merge(
            self, monkeypatch):
        """A lock-step window's pipelines answer spans of one frozen
        view; a rotation merge mid-window would erase a boundary a
        sibling's span ends on, so window commits skip rotation."""
        from repro.core.partitions import PartialOrderPartitions

        db = EncryptedDatabase(seed=11)
        values = np.random.default_rng(11).integers(*DOMAIN, size=400)
        db.create_table("t", {"X": DOMAIN}, {"X": values})
        index = db.server.build_index("t", "X", max_partitions=6, seed=11,
                                      cap_policy="rotate")
        for constant in (20_000, 40_000, 60_000, 80_000, 90_000, 10_000):
            index.select(db.owner.comparison_trapdoor("X", "<", constant))
        assert index.num_partitions == 6  # at the cap, serial rotation
        merges = []
        real_merge = PartialOrderPartitions.merge_range

        def logged_merge(self, first, last):
            merges.append((first, last))
            return real_merge(self, first, last)

        monkeypatch.setattr(PartialOrderPartitions, "merge_range",
                            logged_merge)
        constants = np.random.default_rng(12).integers(*DOMAIN, size=12)
        answers = db.server.answer_batch(
            "t", [db.owner.comparison_trapdoor("X", "<", int(c))
                  for c in constants], window=4)
        plain = db.owner.plain_table("t")
        for constant, answer in zip(constants, answers):
            want = np.sort(plain.uids[plain.columns["X"] < constant])
            assert np.array_equal(answer.winners, want), constant
        assert merges == []
        assert index.num_partitions == 6


def _pack_keys(pop) -> None:
    """Space the chain's order keys one apart, so the next split
    anywhere before the last partition finds no gap and re-keys."""
    for position, partition in enumerate(pop):
        partition.key = position
        pop._key_of_uid[partition.uids] = position
    pop.check_invariants()


class TestRekeyInWindows:
    def test_sibling_split_rekeys_mid_window(self, monkeypatch):
        """A re-key publishes new keys while a lock-step window's
        siblings still hold spans of the frozen view: their read-outs
        stay exact, and keys never reach sampling or accounting, so the
        per-statement QPF equals an unpacked twin's window by window."""
        from repro.core.partitions import PartialOrderPartitions

        sqls = [f"SELECT * FROM t WHERE X < {int(c)}"
                for c in np.random.default_rng(13).integers(*DOMAIN,
                                                            size=12)]
        twin = _database(seed=13, warm=20)
        twin_answers = twin.execute_many(sqls, window=4)
        db = _database(seed=13, warm=20)
        _pack_keys(db.server.index("t", "X").pop)
        events = []
        rekey, read_out = (PartialOrderPartitions._rekey,
                           PartialOrderPartitions.uids_in_order)

        def logged_rekey(self):
            events.append("rekey")
            return rekey(self)

        def logged_read_out(self, start, stop, extra=()):
            events.append("answer")
            return read_out(self, start, stop, extra)

        monkeypatch.setattr(PartialOrderPartitions, "_rekey", logged_rekey)
        monkeypatch.setattr(PartialOrderPartitions, "uids_in_order",
                            logged_read_out)
        answers = db.execute_many(sqls, window=4)
        # A split re-keyed the chain before the first window's fourth
        # read-out: a sibling answered against the new keys.
        read_outs = [i for i, event in enumerate(events)
                     if event == "answer"]
        assert events.index("rekey") < read_outs[3]
        plain = db.owner.plain_table("t")
        for sql, answer, other in zip(sqls, answers, twin_answers):
            constant = int(sql.rsplit(" ", 1)[1])
            want = np.sort(plain.uids[plain.columns["X"] < constant])
            assert np.array_equal(answer.uids, want), sql
            assert np.array_equal(other.uids, want), sql
            assert answer.qpf_uses == other.qpf_uses, sql
        db.server.index("t", "X").pop.check_invariants(
            dict(zip(plain.uids.tolist(),
                     plain.columns["X"].tolist())).__getitem__)
