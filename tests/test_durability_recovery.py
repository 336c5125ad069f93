"""Crash-recovery property suite (fault injection, ``durability`` marker).

The central property, asserted at every injected crash point: after a
crash and recovery, finishing the interrupted workload and running a
probe workload yields **bit-identical winner sets and exactly equal
per-query QPF usage** compared to a twin database that never crashed.
Recovery itself must never spend QPF beyond explicit orphan repair.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.prkb import PRKBIndex
from repro.edbms.durability import (
    CrashSpec,
    FaultInjector,
    SimulatedCrash,
    WALCorruptionError,
)
from repro.edbms.durability.recovery import RecoveryManager, RecoveryStats
from repro.edbms.engine import EncryptedDatabase

pytestmark = pytest.mark.durability

SEED = 23
ROWS = 260
DOMAIN = (0, 8000)
QUERIES = [
    "SELECT * FROM t WHERE A < 900",
    "SELECT * FROM t WHERE A > 5200",
    "SELECT * FROM t WHERE A BETWEEN 2000 AND 3500",
    "SELECT * FROM t WHERE A < 4100",
    "SELECT * FROM t WHERE B > 1500",
    "SELECT * FROM t WHERE A > 7000 AND B < 6000",
    "SELECT * FROM t WHERE A < 2600",
]
PROBES = [
    "SELECT * FROM t WHERE A < 3000",
    "SELECT * FROM t WHERE B BETWEEN 500 AND 4000",
    "SELECT * FROM t WHERE A > 1000",
]


def _data():
    rng = np.random.default_rng(99)
    return {"A": rng.integers(*DOMAIN, ROWS),
            "B": rng.integers(*DOMAIN, ROWS)}


def _open(path, faults=None, fsync="always"):
    db = EncryptedDatabase.open(path, seed=SEED, fsync=fsync, faults=faults)
    if db.recovery_stats is None:
        db.create_table("t", {"A": DOMAIN, "B": DOMAIN}, _data())
        db.enable_prkb("t", ["A", "B"])
    return db


def _run(db, statements, start=0, checkpoint_at=None):
    """Run statements from ``start``; returns the count that completed."""
    done = start
    for statement in statements[start:]:
        if checkpoint_at is not None and done == checkpoint_at:
            db.checkpoint()
        db.query(statement)
        done += 1
    return done


def _fingerprint(db):
    """Structural identity of every index: chain shape + separators +
    sampling seed and ordinal."""
    marks = {}
    for table, indexes in db.server.all_indexes().items():
        for attribute, index in indexes.items():
            marks[(table, attribute)] = (
                tuple(len(p) for p in index.pop),
                len(index._separators),
                (index.seed, index.ordinal),
            )
    return marks


def _probe(db):
    return [(tuple(a.uids.tolist()), a.qpf_uses)
            for a in (db.query(q) for q in PROBES)]


def _reference(tmp_path):
    """Uncrashed twin plus its fingerprint timeline (one per boundary).

    ``timeline[p]`` is the state after ``p`` queries.  A recovered
    database must land exactly on one of these boundaries: either the
    interrupted query rolled back (its commit record never became
    durable) or it committed — both are legal crash outcomes, and the
    timeline tells the driver where to resume for an exactly-once
    replay of the remaining workload.
    """
    ref = _open(tmp_path / "ref")
    timeline = [_fingerprint(ref)]
    for statement in QUERIES:
        ref.query(statement)
        timeline.append(_fingerprint(ref))
    return ref, timeline


CRASH_SPECS = [
    CrashSpec("wal.append.before", hit=4),
    CrashSpec("wal.append.torn", hit=6),
    CrashSpec("wal.append.torn", hit=9, partial_bytes=3),
    CrashSpec("wal.append.after", hit=7),
    CrashSpec("wal.sync", hit=3),
]


@pytest.mark.parametrize("spec", CRASH_SPECS,
                         ids=lambda s: f"{s.point}@{s.hit}"
                         + ("+tear3" if s.partial_bytes else ""))
def test_query_crash_recovers_bit_identical(tmp_path, spec):
    faults = FaultInjector(spec)
    crashed = _open(tmp_path / "db", faults=faults)
    done = 0
    with pytest.raises(SimulatedCrash):
        while done < len(QUERIES):
            crashed.query(QUERIES[done])
            done += 1
    assert faults.fired == [spec.point]
    assert done < len(QUERIES)

    recovered = _open(tmp_path / "db")
    stats = recovered.recovery_stats
    assert stats.tables_restored == 1 and stats.indexes_restored == 2
    # Recovery never spends QPF beyond explicit orphan repair (none here).
    assert stats.repair_qpf_uses == 0
    assert stats.orphans_reindexed == 0 and stats.orphans_dropped == 0

    reference, timeline = _reference(tmp_path)
    # The recovered state must sit exactly on a query boundary: the
    # interrupted query either rolled back (boundary ``done``) or its
    # commit record made it out (boundary ``done + 1``) — never a
    # half-applied state.
    boundary = timeline.index(_fingerprint(recovered))
    assert boundary in (done, done + 1)
    _run(recovered, QUERIES, start=boundary)
    assert _fingerprint(recovered) == timeline[-1]
    assert _probe(recovered) == _probe(reference)
    recovered.close()
    reference.close()


CHECKPOINT_POINTS = [
    # Creation burns hits 1-3 (table, index A, index B); the explicit
    # checkpoint visits the points as table=4, index A=5, index B=6.
    ("checkpoint.data.before_rename", 4),
    ("checkpoint.data.after_rename", 4),
    ("checkpoint.meta.before_rename", 5),
    ("checkpoint.meta.after_rename", 5),
    ("checkpoint.wal_reset", 6),
]


@pytest.mark.parametrize("point,hit", CHECKPOINT_POINTS,
                         ids=lambda value: str(value))
def test_checkpoint_crash_recovers_bit_identical(tmp_path, point, hit):
    faults = FaultInjector(CrashSpec(point, hit=hit))
    crashed = _open(tmp_path / "db", faults=faults)
    boundary = 4
    _run(crashed, QUERIES[:boundary])
    with pytest.raises(SimulatedCrash):
        crashed.checkpoint()

    recovered = _open(tmp_path / "db")
    stats = recovered.recovery_stats
    assert stats.repair_qpf_uses == 0

    reference, timeline = _reference(tmp_path)
    # No query was in flight: recovery must land exactly on the boundary.
    assert _fingerprint(recovered) == timeline[boundary]
    _run(recovered, QUERIES, start=boundary)
    assert _fingerprint(recovered) == timeline[-1]
    assert _probe(recovered) == _probe(reference)
    recovered.close()
    reference.close()


def test_stale_wal_is_not_double_applied(tmp_path):
    """Crash between checkpoint commit and WAL truncation: the surviving
    old segment's generation mismatches and must be ignored."""
    faults = FaultInjector(CrashSpec("checkpoint.wal_reset", hit=5))
    crashed = _open(tmp_path / "db", faults=faults)
    _run(crashed, QUERIES[:4])
    with pytest.raises(SimulatedCrash):
        crashed.checkpoint()

    recovered = _open(tmp_path / "db")
    assert recovered.recovery_stats.stale_wal_segments >= 1
    assert recovered.recovery_stats.repair_qpf_uses == 0
    _run(recovered, QUERIES, start=4)
    reference, timeline = _reference(tmp_path)
    assert _fingerprint(recovered) == timeline[-1]
    recovered.close()
    reference.close()


def test_insert_crash_repairs_index_orphans(tmp_path):
    """Crash after the table WAL committed an insert but before the index
    transaction: recovery re-files the rows (table is source of truth)."""
    faults = FaultInjector()
    crashed = _open(tmp_path / "db", faults=faults)
    _run(crashed, QUERIES[:3])
    # The insert path appends: 1 table record, then index ops + commits.
    # Crash on the first index-WAL append after the table record.
    appended = faults.visits.get("wal.append.before", 0)
    faults.arm(CrashSpec("wal.append.before", hit=appended + 2))
    rows = {"A": np.asarray([11, 7777]), "B": np.asarray([5000, 42])}
    with pytest.raises(SimulatedCrash):
        crashed.insert("t", rows)

    recovered = _open(tmp_path / "db")
    stats = recovered.recovery_stats
    assert stats.orphans_reindexed == 4  # 2 rows x 2 indexes
    assert stats.repair_qpf_uses > 0

    reference = _open(tmp_path / "ref")
    _run(reference, QUERIES[:3])
    reference.insert("t", rows)
    assert _probe(recovered) == _probe(reference)
    recovered.close()
    reference.close()


def test_delete_crash_drops_index_orphans(tmp_path):
    crashed = _open(tmp_path / "db")
    _run(crashed, QUERIES[:3])
    victims = np.asarray([5, 17, 100], dtype=np.uint64)
    faults = crashed.durability.faults = FaultInjector()
    for journal in crashed.durability._index_journals.values():
        journal.writer.faults = faults
    faults.arm(CrashSpec("wal.append.before", hit=2))
    with pytest.raises(SimulatedCrash):
        crashed.delete("t", victims)

    recovered = _open(tmp_path / "db")
    stats = recovered.recovery_stats
    assert stats.orphans_dropped == 6  # 3 rows x 2 indexes
    for index_map in recovered.server.all_indexes().values():
        for index in index_map.values():
            tracked = {int(u) for p in index.pop for u in p.uids}
            assert not tracked & set(victims.tolist())

    reference = _open(tmp_path / "ref")
    _run(reference, QUERIES[:3])
    reference.delete("t", victims)
    recovered_probe = [w for w, _ in _probe(recovered)]
    reference_probe = [w for w, _ in _probe(reference)]
    assert recovered_probe == reference_probe
    recovered.close()
    reference.close()


def _set_reference_repair(server) -> dict:
    """The set-based orphan repair plan: per index, the uids to drop and
    the uids to re-file, each in uid order."""
    plan = {}
    for table_name, indexes in server.all_indexes().items():
        table_uids = {int(u) for u in server.table(table_name).uids}
        for attribute, index in indexes.items():
            tracked = {int(u) for u in index.pop.tracked_uids()}
            plan[(table_name, attribute)] = (sorted(tracked - table_uids),
                                             sorted(table_uids - tracked))
    return plan


def test_orphan_repair_of_an_index_that_lags_and_leads(monkeypatch):
    db = EncryptedDatabase(seed=SEED)
    db.create_table("t", {"A": DOMAIN, "B": DOMAIN}, _data())
    db.enable_prkb("t", ["A", "B"])
    _run(db, QUERIES[:4])
    # "A" lags its table (it forgot rows the table keeps); both indexes
    # lead it (the table lost rows they still track).
    db.server.index("t", "A").delete_many([150, 3, 259, 40])
    db.server.table("t").delete_rows(np.asarray([200, 7, 91],
                                                dtype=np.uint64))
    want = _set_reference_repair(db.server)
    assert want[("t", "A")] == ([7, 91, 200], [3, 40, 150, 259])
    assert want[("t", "B")] == ([7, 91, 200], [])
    got = {}
    for name in ("delete_many", "insert_many"):
        real = getattr(PRKBIndex, name)

        def logged(self, uids, real=real, name=name):
            got.setdefault((self.attribute, name), []).extend(
                int(u) for u in uids)
            return real(self, uids)

        monkeypatch.setattr(PRKBIndex, name, logged)
    stats = RecoveryStats()
    RecoveryManager(None, db.server, db.qpf)._repair_orphans(stats)
    for (__, attribute), (dropped, reindexed) in want.items():
        assert got[(attribute, "delete_many")] == dropped
        assert got[(attribute, "insert_many")] == reindexed
    assert stats.orphans_dropped == 6 and stats.orphans_reindexed == 4
    table_uids = np.sort(db.server.table("t").uids)
    for index in db.server.all_indexes()["t"].values():
        assert np.array_equal(index.pop.tracked_uids(), table_uids)
        index.pop.check_invariants()


def test_power_loss_with_fsync_off_recovers_to_checkpoint(tmp_path):
    """fsync=off + power loss: the whole unsynced WAL tail vanishes;
    recovery falls back to the checkpoint and still answers correctly."""
    faults = FaultInjector(CrashSpec("wal.append.before", hit=11,
                                     power_loss=True))
    crashed = _open(tmp_path / "db", faults=faults, fsync="off")
    # Power loss drops the page cache of every unsynced segment, not just
    # the one that happened to be appending.
    journals = list(crashed.durability._index_journals.values())
    done = 0
    try:
        while done < len(QUERIES):
            crashed.query(QUERIES[done])
            done += 1
    except SimulatedCrash:
        for journal in journals:
            journal.writer._truncate_to_synced()
    assert done < len(QUERIES)

    recovered = _open(tmp_path / "db", fsync="off")
    assert recovered.recovery_stats.transactions_replayed == 0
    # Ground truth: the recovered index agrees with an index-free scan.
    for statement in PROBES:
        indexed = recovered.query(statement)
        baseline = recovered.query(statement, strategy="baseline")
        assert np.array_equal(indexed.uids, baseline.uids)
    recovered.close()


def test_every_n_fsync_bounds_loss_to_interval(tmp_path):
    """Group commit: power loss loses at most interval-1 transactions."""
    faults = FaultInjector(CrashSpec("wal.sync", hit=2, power_loss=True))
    crashed = _open(tmp_path / "db", faults=faults, fsync="every:3")
    done = 0
    try:
        while done < len(QUERIES):
            crashed.query(QUERIES[done])
            done += 1
    except SimulatedCrash:
        pass

    recovered = _open(tmp_path / "db", fsync="every:3")
    stats = recovered.recovery_stats
    # At least one full group survived the first sync of each journal.
    assert stats.transactions_replayed >= 3
    for statement in PROBES:
        indexed = recovered.query(statement)
        baseline = recovered.query(statement, strategy="baseline")
        assert np.array_equal(indexed.uids, baseline.uids)
    recovered.close()


def test_reopen_rejects_wrong_seed(tmp_path):
    db = _open(tmp_path / "db")
    db.close()
    with pytest.raises(ValueError, match="seed"):
        EncryptedDatabase.open(tmp_path / "db", seed=SEED + 1)
    again = EncryptedDatabase.open(tmp_path / "db")
    assert again.recovery_stats is not None
    again.close()


def test_fresh_open_requires_seed(tmp_path):
    with pytest.raises(ValueError, match="seed"):
        EncryptedDatabase.open(tmp_path / "nothing-here")


def test_recovery_counters_surface_in_cost_counter(tmp_path):
    faults = FaultInjector(CrashSpec("wal.append.torn", hit=8))
    crashed = _open(tmp_path / "db", faults=faults)
    with pytest.raises(SimulatedCrash):
        _run(crashed, QUERIES)
    recovered = _open(tmp_path / "db")
    counter = recovered.counter
    assert counter.recovery_records_replayed > 0
    assert counter.recovery_torn_bytes > 0
    assert counter.checkpoints_written >= 3  # recovery re-checkpoints all
    assert counter.wal_records == 0  # replay itself logs nothing
    recovered.query(QUERIES[0])
    assert counter.wal_records > 0 and counter.wal_bytes > 0
    recovered.close()


def test_restart_checkpoint_never_reuses_wal_generation(tmp_path):
    """Regression: the generation counter lives in memory, so the first
    checkpoint after a restart must seed it from disk — handing out the
    generation a crash-surviving WAL segment already carries would make
    the *next* recovery double-apply ops that are baked into the
    checkpoint."""
    first = _open(tmp_path / "db")
    _run(first, QUERIES[:4])
    # Process dies without close/checkpoint: every WAL survives at the
    # generation the creation checkpoints handed out.
    del first
    # Reopen; recovery replays the tails, then its own checkpoint_all
    # crashes in index A's wal_reset window (table=1, index A=2): index
    # A's fresh metadata is committed but its old WAL segment survives.
    faults = FaultInjector(CrashSpec("checkpoint.wal_reset", hit=2))
    with pytest.raises(SimulatedCrash):
        EncryptedDatabase.open(tmp_path / "db", seed=SEED, faults=faults)

    recovered = _open(tmp_path / "db")
    # The survivor must read as stale (generation mismatch), never as a
    # replayable continuation of the post-restart checkpoint.
    assert recovered.recovery_stats.stale_wal_segments >= 1
    assert recovered.recovery_stats.repair_qpf_uses == 0
    reference, timeline = _reference(tmp_path)
    assert _fingerprint(recovered) == timeline[4]
    _run(recovered, QUERIES, start=4)
    assert _fingerprint(recovered) == timeline[-1]
    assert _probe(recovered) == _probe(reference)
    recovered.close()
    reference.close()


def test_rejected_delete_leaves_no_wal_record(tmp_path):
    """Regression: deleting unknown uids must fail *before* the rows_del
    record commits — a durable record for a delete the database never
    performed would fail every future recovery."""
    db = _open(tmp_path / "db")
    _run(db, QUERIES[:2])
    rows_before = db.server.table("t").num_rows
    with pytest.raises(KeyError):
        db.delete("t", np.asarray([10 ** 9], dtype=np.uint64))
    assert db.server.table("t").num_rows == rows_before
    db.close()

    recovered = _open(tmp_path / "db")
    assert recovered.server.table("t").num_rows == rows_before
    for statement in PROBES:
        indexed = recovered.query(statement)
        baseline = recovered.query(statement, strategy="baseline")
        assert np.array_equal(indexed.uids, baseline.uids)
    recovered.close()


def test_midfile_wal_rot_raises_instead_of_silent_loss(tmp_path):
    """Regression: recovery scans WALs strictly — a checksum failure
    *followed by further complete records* is bit rot, not a crash tear,
    and must raise instead of silently dropping the committed
    transactions behind it."""
    db = _open(tmp_path / "db")
    _run(db, QUERIES)
    db.close()
    wal_path = tmp_path / "db" / "indexes" / "t.A.wal"
    blob = bytearray(wal_path.read_bytes())
    assert len(blob) > 60  # header + several records
    blob[28] ^= 0xFF  # flip a byte inside the first record's payload
    wal_path.write_bytes(bytes(blob))
    with pytest.raises(WALCorruptionError):
        EncryptedDatabase.open(tmp_path / "db", seed=SEED)


def test_wal_written_before_keyed_sampling_recovers(tmp_path):
    """``tests/data/parent_wal_db`` was written before sampling was
    keyed: a 24-row table ``t`` (``X = default_rng(21).integers(1, 1000,
    24)``, seed 21) indexed on X, checkpointed after ``X < 500``; its
    WAL then holds three selects, an insert of X = 5, 505, 995 and one
    more select, each closed by a commit record carrying a numpy
    bit-generator state instead of an ordinal.  Recovery replays every
    committed op, ignores that state, and answers as the plaintext."""
    shutil.copytree(Path(__file__).parent / "data" / "parent_wal_db",
                    tmp_path / "db")
    db = EncryptedDatabase.open(tmp_path / "db")
    stats = db.recovery_stats
    assert (stats.transactions_replayed, stats.wal_records_replayed,
            stats.tail_ops_dropped, stats.torn_bytes_dropped) == (5, 19, 0, 0)
    assert stats.orphans_reindexed == stats.orphans_dropped == 0
    values = np.append(np.random.default_rng(21).integers(1, 1000, 24),
                       [5, 505, 995])
    uids = db.server.table("t").uids
    assert uids.tolist() == list(range(values.size))
    index = db.server.index("t", "X")
    assert index.num_partitions == 7
    index.pop.check_invariants(lambda uid: int(values[uid]))
    for sql, wanted in (("X < 250", values < 250),
                        ("X BETWEEN 300 AND 640",
                         (values >= 300) & (values <= 640)),
                        ("X > 500", values > 500), ("X < 999", values < 999)):
        answer = db.query(f"SELECT * FROM t WHERE {sql}")
        assert answer.uids.tolist() == np.flatnonzero(wanted).tolist()
    db.close()


def test_insert_after_replayed_inserts_gets_fresh_uids(tmp_path):
    """Regression: rows a recovery replays from the table WAL advance
    the uid allocator, so the first insert after reopening takes uids
    above them instead of colliding with one."""
    db = EncryptedDatabase.open(tmp_path / "db", seed=SEED)
    db.create_table("t", {"A": DOMAIN},
                    {"A": np.arange(100, dtype=np.int64)})
    db.enable_prkb("t", ["A"])
    db.checkpoint()
    replayed = db.insert("t", {"A": np.asarray([5, 50, 500])})
    db.close()

    reopened = EncryptedDatabase.open(tmp_path / "db")
    fresh = reopened.insert("t", {"A": np.asarray([7])})
    assert int(fresh[0]) > int(replayed.max())
    got = reopened.query("SELECT * FROM t WHERE A < 10").uids
    assert np.isin(np.concatenate((replayed[:1], fresh)), got).all()
    reopened.close()
