"""The operation is the unit of durability (``durability`` marker).

Exact fsync/record counts per operation kind, the every-N cadence in
operations, the epoch's behaviour across threads, and a crash-point
sweep over one insert batch and one delete batch: whatever the crash
point, recovery lands on the state before the operation or after it,
never between.
"""

from __future__ import annotations

import shutil
import sys
import threading
import time

import numpy as np
import pytest

from repro.edbms.costs import CostCounter
from repro.edbms.durability import (
    CrashSpec,
    FaultInjector,
    FsyncPolicy,
    SimulatedCrash,
    WALWriter,
    read_wal,
)
from repro.edbms.durability.wal import commit_epoch, decode_op
from repro.edbms.engine import EncryptedDatabase

pytestmark = pytest.mark.durability

SEED = 41
ROWS = 160
DOMAIN = (0, 8000)
WARMUP = [
    "SELECT * FROM t WHERE A < 900",
    "SELECT * FROM t WHERE A > 5200",
    "SELECT * FROM t WHERE A < 4100",
    "SELECT * FROM t WHERE B > 1500",
    "SELECT * FROM t WHERE B < 6100",
    "SELECT * FROM t WHERE A < 2600",
]
PROBES = [
    "SELECT * FROM t WHERE A < 3000",
    "SELECT * FROM t WHERE B > 4000",
    "SELECT * FROM t WHERE A > 1000 AND B < 7000",
]
BATCH = {"A": np.asarray([11, 7777, 3000, 3001, 4500, 120, 6400, 2599]),
         "B": np.asarray([5000, 42, 7000, 1, 3999, 4001, 800, 6100])}
VICTIMS = np.asarray([5, 17, 100, 63], dtype=np.uint64)


def _data():
    rng = np.random.default_rng(77)
    return {"A": rng.integers(*DOMAIN, ROWS),
            "B": rng.integers(*DOMAIN, ROWS)}


def _open(path, indexed=("A", "B"), fsync="always", faults=None):
    db = EncryptedDatabase.open(path, seed=SEED, fsync=fsync, faults=faults)
    if db.recovery_stats is None:
        db.create_table("t", {"A": DOMAIN, "B": DOMAIN}, _data())
        db.enable_prkb("t", list(indexed))
    return db


def _spent(db, call):
    """(fsyncs, records) one call cost."""
    counter = db.counter
    fsyncs, records = counter.wal_fsyncs, counter.wal_records
    call()
    return counter.wal_fsyncs - fsyncs, counter.wal_records - records


def _ops(path):
    return [decode_op(payload)["op"] for payload in read_wal(path).records]


# --------------------------------------------------------------------- #
# exact counts of the write path                                         #
# --------------------------------------------------------------------- #

def test_insert_batch_is_one_sync_per_touched_log(tmp_path):
    db = _open(tmp_path / "db", indexed=("A",))
    for statement in WARMUP:
        db.query(statement)
    db.checkpoint()  # empty logs: the records below are this insert's
    assert _spent(db, lambda: db.insert("t", BATCH)) == (2, 10)
    assert _ops(tmp_path / "db" / "tables" / "t.wal") == ["rows_ins"]
    assert _ops(tmp_path / "db" / "indexes" / "t.A.wal") \
        == ["ins"] * 8 + ["commit"]
    db.close()


def test_each_further_index_is_one_more_sync(tmp_path):
    db = _open(tmp_path / "db")
    for statement in WARMUP:
        db.query(statement)
    assert _spent(db, lambda: db.insert("t", BATCH)) == (3, 19)
    db.close()


def test_delete_and_update_are_one_epoch_each(tmp_path):
    db = _open(tmp_path / "db", indexed=("A",))
    for statement in WARMUP:
        db.query(statement)
    fsyncs, _ = _spent(db, lambda: db.delete("t", VICTIMS))
    assert fsyncs == 2
    updater = db.server.updater("t")
    fsyncs, _ = _spent(db, lambda: updater.update_plain(
        db.owner.key, 9, {"A": 4321, "B": 1234}))
    assert fsyncs == 2  # rows_del + rows_ins, del + ins: still two logs
    db.close()


def test_select_syncs_only_when_it_refines(tmp_path):
    db = _open(tmp_path / "db", indexed=("A",))
    statement = "SELECT * FROM t WHERE A < 3333"
    fsyncs, records = _spent(db, lambda: db.query(statement))
    assert fsyncs == 1 and records >= 2  # a split and its commit
    assert _spent(db, lambda: db.query(statement)) == (0, 0)  # cache hit
    # The first select split a one-partition chain without sampling;
    # this one samples, so it takes ordinal 0 and commits the next one.
    db.query("SELECT * FROM t WHERE A < 1000")
    commit = read_wal(tmp_path / "db" / "indexes" / "t.A.wal").records[-1]
    assert decode_op(commit) == {"op": "commit", "ordinal": 1}
    assert 8 + len(commit) <= 40  # framed: length + crc32 + payload
    db.close()


def test_checkpoint_charges_reach_measure_scopes(tmp_path):
    """Durability tallies go through ``charge()`` like every other cost,
    so the calling thread's ``measure()`` scope sees what the global
    counter sees."""
    db = _open(tmp_path / "db")
    before = db.counter.checkpoints_written
    with db.counter.measure() as spent:
        db.checkpoint()
    assert spent.checkpoints_written \
        == db.counter.checkpoints_written - before == 3  # t, t.A, t.B
    db.close()


def test_checkpoint_cycle_counts_every_fsync(tmp_path):
    """A log's segment costs two fsyncs to open (file, then directory
    entry) and one to close; a checkpoint closes and reopens each of the
    three logs (t, t.A, t.B)."""
    db = EncryptedDatabase.open(tmp_path / "db", seed=SEED)
    counter = db.counter
    assert counter.wal_fsyncs == 0
    db.create_table("t", {"A": DOMAIN, "B": DOMAIN}, _data())
    assert counter.wal_fsyncs == 2
    db.enable_prkb("t", ["A", "B"])
    assert counter.wal_fsyncs == 6
    assert _spent(db, lambda: db.query(WARMUP[0])) == (1, 3)
    assert _spent(db, db.checkpoint) == (9, 0)
    assert _spent(db, db.close) == (3, 0)


def test_every_n_counts_operations(tmp_path):
    db = _open(tmp_path / "db", indexed=("A",), fsync="every:4")
    updater = db.server.updater("t")
    # An update commits twice on each log; it is still one operation.
    for victim in (3, 4, 6):
        fsyncs, _ = _spent(db, lambda: updater.update_plain(
            db.owner.key, victim, {"A": 10 * victim, "B": victim}))
        assert fsyncs == 0
    assert _spent(db, lambda: db.insert("t", BATCH))[0] == 2
    assert _spent(db, lambda: db.delete("t", VICTIMS))[0] == 0
    db.close()


def test_failed_operation_still_syncs_what_it_logged(tmp_path, monkeypatch):
    """Memory holds the rows once ``insert_rows`` ran; an exception
    further down must not leave the log behind it."""
    db = _open(tmp_path / "db", indexed=("A",))

    def refuse(uids):
        raise RuntimeError("index refused the batch")
    monkeypatch.setattr(db.server.index("t", "A"), "insert_many", refuse)
    before = db.counter.wal_fsyncs
    with pytest.raises(RuntimeError, match="refused"):
        db.insert("t", BATCH)
    assert db.counter.wal_fsyncs == before + 1  # the table log
    del db  # dies unclosed

    recovered = _open(tmp_path / "db")
    assert recovered.server.table("t").num_rows == ROWS + 8
    assert recovered.recovery_stats.orphans_reindexed == 8
    recovered.close()


# --------------------------------------------------------------------- #
# epochs and threads                                                     #
# --------------------------------------------------------------------- #

def test_commit_by_another_thread_is_synced_before_it_returns(tmp_path):
    """The engine's writes are not behind the serving layer's table
    gate, so a sibling thread's SELECT can commit on an index log an
    open epoch has touched.  The epoch is the writing thread's alone:
    the sibling's commit is its own operation."""
    db = _open(tmp_path / "db", indexed=("A",))
    counter = db.counter
    before = counter.wal_fsyncs
    with commit_epoch():
        db.insert("t", BATCH)
        assert counter.wal_fsyncs == before  # nothing acknowledged yet
        sibling = threading.Thread(
            target=db.query, args=("SELECT * FROM t WHERE A < 3333",))
        sibling.start()
        sibling.join(timeout=30)
        assert not sibling.is_alive()
        assert counter.wal_fsyncs == before + 1
    assert counter.wal_fsyncs == before + 3
    db.close()


def test_commits_racing_an_epoch_exit_are_never_left_unsynced(tmp_path):
    """Stress: under ``always`` a commit that returned is on disk, even
    while another thread's epochs keep settling the same writer."""
    counter = CostCounter()
    writer = WALWriter(tmp_path / "race.wal", counter=counter,
                       policy=FsyncPolicy("always"))
    deadline = time.monotonic() + 0.4
    unsynced = []

    def committer():
        while time.monotonic() < deadline:
            writer.append(b"select")
            appended = writer._file.tell()
            writer.mark_commit()
            if writer._synced < appended:
                unsynced.append((appended, writer._synced))

    def epochs():
        while time.monotonic() < deadline:
            with commit_epoch():
                writer.append(b"write")
                writer.mark_commit()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=committer) for _ in range(3)]
        threads.append(threading.Thread(target=epochs))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert unsynced == []
    writer.close()


def test_simulated_crash_inside_an_epoch_syncs_nothing(tmp_path):
    counter = CostCounter()
    writer = WALWriter(tmp_path / "c.wal", counter=counter)
    before = counter.wal_fsyncs
    with pytest.raises(SimulatedCrash):
        with commit_epoch():
            writer.append(b"record")
            writer.mark_commit()
            raise SimulatedCrash("test")
    assert counter.wal_fsyncs == before
    writer.close()


# --------------------------------------------------------------------- #
# a repeated uid must not tear a delete                                  #
# --------------------------------------------------------------------- #

def test_duplicate_uid_delete_leaves_no_wal_record(tmp_path):
    """Regression: ``delete([5, 5])`` used to log ``rows_del``, drop uid
    5 from the indexes and then fail before the table dropped the row —
    and recovery then applied the delete nobody was told had happened."""
    db = _open(tmp_path / "db")
    for statement in WARMUP[:2]:
        db.query(statement)
    records = db.counter.wal_records
    with pytest.raises(ValueError, match="duplicate"):
        db.delete("t", np.asarray([5, 5], dtype=np.uint64))
    assert db.counter.wal_records == records
    assert "rows_del" not in _ops(tmp_path / "db" / "tables" / "t.wal")
    assert db.server.table("t").num_rows == ROWS
    del db  # dies unclosed

    recovered = _open(tmp_path / "db")
    assert recovered.server.table("t").num_rows == ROWS
    for statement in PROBES:
        indexed = recovered.query(statement)
        baseline = recovered.query(statement, strategy="baseline")
        assert np.array_equal(indexed.uids, baseline.uids)
    assert 5 in recovered.query("SELECT * FROM t WHERE A >= 0").uids
    recovered.close()


# --------------------------------------------------------------------- #
# crash-point sweep over one batch                                       #
# --------------------------------------------------------------------- #

POINTS = ("wal.append.before", "wal.append.torn", "wal.append.after",
          "wal.sync")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A closed two-index database with refined chains, copied per case."""
    root = tmp_path_factory.mktemp("epoch-base") / "db"
    db = _open(root)
    for statement in WARMUP:
        db.query(statement)
    db.close()
    return root


def _insert(db):
    return db.insert("t", BATCH)


def _delete(db):
    db.delete("t", VICTIMS)


def _plain(uids, inserted):
    """Plaintext (A, B) of the given uids."""
    data = _data()
    columns = {attr: np.concatenate([data[attr], BATCH[attr]])
               for attr in ("A", "B")}
    known = np.concatenate([np.arange(ROWS, dtype=np.uint64), inserted])
    where = np.searchsorted(known, uids)
    return columns["A"][where], columns["B"][where]


def _lose_page_cache(db):
    """Power loss takes the unsynced bytes of every log, not only of the
    one that was being written when the injector fired."""
    manager = db.durability
    for journal in (*manager._table_journals.values(),
                    *manager._index_journals.values()):
        journal.writer._truncate_to_synced()


def _check_recovered(db, before: set, after: set, inserted) -> str:
    """The table is exactly ``before`` or ``after``, every index covers
    it disjointly, and probes equal the plaintext answer."""
    uids = np.sort(db.server.table("t").uids)
    live = set(uids.tolist())
    assert live in (before, after), sorted(live ^ before)
    for index in db.server.all_indexes()["t"].values():
        members = np.concatenate([p.uids for p in index.pop])
        assert np.array_equal(np.sort(members), uids)  # disjoint cover
    a, b = _plain(uids, inserted)
    expected = [uids[a < 3000], uids[b > 4000],
                uids[(a > 1000) & (b < 7000)]]
    for statement, winners in zip(PROBES, expected):
        assert np.array_equal(np.sort(db.query(statement).uids), winners)
    return "after" if live == after else "before"


@pytest.mark.parametrize("operation", [_insert, _delete],
                         ids=["insert8", "delete4"])
def test_crash_anywhere_in_a_batch_is_all_or_nothing(tmp_path, base,
                                                     operation):
    # Dry run: what the operation visits, and the state it leads to.
    shutil.copytree(base, tmp_path / "dry")
    faults = FaultInjector()
    db = _open(tmp_path / "dry", faults=faults)
    before = set(db.server.table("t").uids.tolist())
    visited = dict(faults.visits)
    operation(db)
    visits = {point: faults.visits.get(point, 0) - visited.get(point, 0)
              for point in POINTS}
    after = set(db.server.table("t").uids.tolist())
    inserted = np.asarray(sorted(after - before), dtype=np.uint64)
    assert visits["wal.sync"] == 3  # table log, then the two index logs
    assert len(after ^ before) in (4, 8)
    # An operation that returned is never lost: drop every unsynced
    # byte, die unclosed, recover.
    _lose_page_cache(db)
    del db
    recovered = _open(tmp_path / "dry")
    assert _check_recovered(recovered, after, after, inserted) == "after"
    assert recovered.recovery_stats.orphans_reindexed == 0
    assert recovered.recovery_stats.orphans_dropped == 0
    recovered.close()

    outcomes = set()
    case = 0
    for point in POINTS:
        for hit in range(1, visits[point] + 1):
            for power_loss in (False, True):
                case += 1
                root = tmp_path / f"case{case}"
                shutil.copytree(base, root)
                faults = FaultInjector()
                db = _open(root, faults=faults)
                faults.arm(CrashSpec(
                    point, hit=faults.visits.get(point, 0) + hit,
                    power_loss=power_loss))
                with pytest.raises(SimulatedCrash):
                    operation(db)
                if power_loss:
                    _lose_page_cache(db)
                del db
                recovered = _open(root)
                outcome = _check_recovered(recovered, before, after,
                                           inserted)
                if point == "wal.sync" and hit > 1:
                    # The table log was synced: the batch is durable.
                    assert outcome == "after", (point, hit, power_loss)
                elif power_loss:
                    assert outcome == "before", (point, hit, power_loss)
                outcomes.add(outcome)
                recovered.close()
                shutil.rmtree(root)
    assert outcomes == {"before", "after"}
