"""Satellite property: persistence round-trips preserve QPF accounting.

Both persistence paths — the classic ``save_index``/``load_index`` pair
and the durable checkpoint/recover cycle — must hand back an index that
answers a follow-up workload with *identical winner sets and exact
``qpf_uses`` parity*, including through the multi-dimensional grid
engine.  This is stronger than answer correctness: it means the restored
sampling seed and ordinal and partition-internal uid order are
bit-faithful.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.edbms.engine import EncryptedDatabase
from repro.edbms.persistence import load_index, save_index

SEED = 31
ROWS = 240
DOMAIN = (0, 6000)

WARMUP = [
    "SELECT * FROM t WHERE A < 1500",
    "SELECT * FROM t WHERE B > 4000",
    "SELECT * FROM t WHERE A > 2000 AND A < 5000 AND B > 500 AND B < 3000",
    "SELECT * FROM t WHERE A BETWEEN 800 AND 2600",
]
FOLLOWUP = [
    "SELECT * FROM t WHERE A < 3300",
    "SELECT * FROM t WHERE A > 1000 AND A < 4000 AND B > 2000 AND B < 5500",
    "SELECT * FROM t WHERE B BETWEEN 100 AND 2500",
    "SELECT * FROM t WHERE A > 5000",
]


def _data():
    rng = np.random.default_rng(5)
    return {"A": rng.integers(*DOMAIN, ROWS),
            "B": rng.integers(*DOMAIN, ROWS)}


def _build(tmp_path, name):
    db = EncryptedDatabase.open(tmp_path / name, seed=SEED)
    db.create_table("t", {"A": DOMAIN, "B": DOMAIN}, _data())
    db.enable_prkb("t", ["A", "B"])
    for statement in WARMUP:
        db.query(statement)
    return db


def _followup(db):
    answers = []
    for statement in FOLLOWUP:
        strategy = "md" if " AND " in statement else "auto"
        answer = db.query(statement, strategy=strategy)
        answers.append((tuple(answer.uids.tolist()), answer.qpf_uses))
    return answers


def test_checkpoint_recover_parity_includes_md(tmp_path):
    original = _build(tmp_path, "db")
    original.checkpoint()
    original.close()

    restored = EncryptedDatabase.open(tmp_path / "db")
    stats = restored.recovery_stats
    assert stats.indexes_restored == 2
    assert stats.wal_records_replayed == 0  # checkpoint absorbed the WAL
    assert stats.repair_qpf_uses == 0
    assert _followup(restored) == _followup(original)
    restored.close()


def test_wal_replay_parity_includes_md(tmp_path):
    """Same property with NO checkpoint: state comes from WAL replay."""
    original = _build(tmp_path, "db")
    original.close()

    restored = EncryptedDatabase.open(tmp_path / "db")
    assert restored.recovery_stats.transactions_replayed > 0
    assert restored.recovery_stats.repair_qpf_uses == 0
    assert _followup(restored) == _followup(original)
    restored.close()


def test_save_load_index_parity(tmp_path):
    """The non-durable save/load pair restores exact QPF behaviour too."""
    original = _build(tmp_path, "db")
    twin = EncryptedDatabase(seed=SEED)
    twin.create_table("t", {"A": DOMAIN, "B": DOMAIN}, _data())
    for attribute in ("A", "B"):
        index = original.server.index("t", attribute)
        save_index(index, tmp_path / f"idx_{attribute}")
        loaded = load_index(tmp_path / f"idx_{attribute}",
                            twin.server.table("t"), twin.qpf)
        twin.server.adopt_index("t", attribute, loaded)
    assert _followup(twin) == _followup(original)
    original.close()
    twin.close()


def test_save_load_with_explicit_seed_overrides_rng(tmp_path):
    """Passing a seed ignores the saved sampling state: a fresh stream
    at ordinal 0.  Without one, both seed and ordinal come back."""
    original = _build(tmp_path, "db")
    index = original.server.index("t", "A")
    save_index(index, tmp_path / "idx")
    assert index.ordinal > 0
    restored = load_index(tmp_path / "idx", original.server.table("t"),
                          original.qpf)
    assert (restored.seed, restored.ordinal) == (index.seed, index.ordinal)
    loaded = load_index(tmp_path / "idx", original.server.table("t"),
                        original.qpf, seed=1234)
    assert (loaded.seed, loaded.ordinal) == (1234, 0)
    # Winner sets (unlike sample draws) are seed-independent.
    trapdoor = original.owner.comparison_trapdoor("A", "<", 2500)
    expected = index.select(trapdoor, update=False).winners
    got = loaded.select(trapdoor, update=False).winners
    assert np.array_equal(np.sort(expected), np.sort(got))
    original.close()


def test_insert_delete_survive_reopen(tmp_path):
    original = _build(tmp_path, "db")
    uids = original.insert("t", {"A": np.asarray([123, 5999]),
                                 "B": np.asarray([4000, 1])})
    original.delete("t", uids[:1])
    original.close()

    restored = EncryptedDatabase.open(tmp_path / "db")
    table = restored.server.table("t")
    assert int(uids[1]) in set(table.uids.tolist())
    assert int(uids[0]) not in set(table.uids.tolist())
    assert restored.recovery_stats.orphans_reindexed == 0
    assert restored.recovery_stats.orphans_dropped == 0
    assert _followup(restored) == _followup(original)
    restored.close()


def test_double_create_rejected(tmp_path):
    db = _build(tmp_path, "db")
    with pytest.raises(ValueError, match="already registered"):
        db.create_table("t", {"A": DOMAIN, "B": DOMAIN}, _data())
    db.close()
