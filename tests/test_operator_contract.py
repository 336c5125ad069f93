"""Property test for the physical operators' output contract.

``PhysicalOperator.execute`` returns strictly increasing ``uint64``
uids; ``SelectionRoot`` relies on that and no longer re-sorts what its
children hand it.  Hypothesis drives every operator kind over tables
that have seen deletes (so uids are sparse and chain buffers are not in
uid order) and checks each child's own output, the root's output
against what the old re-sorting root returned, and both against the
plaintext answer.

PRKB-backed answers get their order from the chain itself
(``PartialOrderPartitions.uids_in_order``), so the directed tests below
walk every path that reads it: equivalence-cache repeats of each kind,
BETWEEN's free run plus scanned edges, chains whose ``uid -> key``
array grew and lost rows, lock-step windows whose siblings split the
live chain mid-window, and PRKB over secret shares.
"""

import operator
from functools import partial

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core.partitions import PartialOrderPartitions
from repro.core.prkb import PRKBIndex
from repro.edbms.engine import EncryptedDatabase
from repro.edbms.sql import BetweenCondition, parse_select
from repro.plan.operators import (
    CacheHitOp,
    GridIntersectOp,
    LinearScanOp,
    MPCShareOp,
    OPECompareOp,
    PRKBSelectOp,
    SRCStructureOp,
)

_ROWS = 120
_DOMAIN = (1, 1000)
_COMPARE = {"<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}

_CONSTANT = st.integers(_DOMAIN[0], _DOMAIN[1])
_BAND = st.tuples(_CONSTANT, _CONSTANT).map(sorted)


def _database(seed: int, doomed: set[int]):
    """X, Y indexed and refined, Z bare; ``doomed`` rows deleted after
    the chains were split, so winners come out of permuted buffers."""
    rng = np.random.default_rng(seed)
    columns = {name: rng.integers(_DOMAIN[0], _DOMAIN[1] + 1, _ROWS,
                                  dtype=np.int64) for name in "XYZ"}
    db = EncryptedDatabase(seed=seed)
    db.create_table("t", {name: _DOMAIN for name in "XYZ"}, columns)
    db.enable_prkb("t", ["X", "Y"])
    for sql in ("SELECT * FROM t WHERE X < 500",
                "SELECT * FROM t WHERE Y >= 400",
                "SELECT * FROM t WHERE X > 250"):
        db.query(sql)
    keep = np.ones(_ROWS, dtype=bool)
    keep[sorted(doomed)] = False
    uids = np.arange(_ROWS, dtype=np.uint64)
    if doomed:
        db.delete("t", uids[~keep])
    return db, {name: column[keep] for name, column in columns.items()}, \
        uids[keep]


def _plaintext_answer(statement, columns, uids) -> np.ndarray:
    mask = np.ones(uids.size, dtype=bool)
    for condition in statement.conditions:
        values = columns[condition.attribute]
        if isinstance(condition, BetweenCondition):
            mask &= (values >= condition.low) & (values <= condition.high)
        else:
            mask &= _COMPARE[condition.operator](values, condition.constant)
    return uids[mask]


def _assert_contract(out: np.ndarray) -> None:
    assert isinstance(out, np.ndarray) and out.ndim == 1
    assert out.dtype == np.uint64
    assert np.all(out[1:] > out[:-1]), "uids not strictly increasing"


def _check(db, columns, uids, sql: str, strategy: str, kinds: tuple) -> None:
    statement = parse_select(sql)
    plan = db.planner.plan(statement, strategy)
    children = plan.root.children
    # The planner may reorder conjuncts; the operator mix is what counts.
    assert sorted(type(child).__name__ for child in children) \
        == sorted(kind.__name__ for kind in kinds), sql
    ctx = db.planner.execution_context()
    for child in children:
        _assert_contract(child.execute(ctx))
    out = plan.root.execute(ctx)
    _assert_contract(out)
    # What the root used to return: one more sort over the same array.
    assert np.array_equal(out, np.sort(out))
    assert np.array_equal(out, _plaintext_answer(statement, columns, uids))


@given(seed=st.integers(0, 3),
       doomed=st.sets(st.integers(0, _ROWS - 1), max_size=30),
       c=_CONSTANT, d=_CONSTANT, x_band=_BAND, y_band=_BAND)
@settings(max_examples=12, deadline=None)
def test_every_operator_returns_strictly_increasing_uint64(
        seed, doomed, c, d, x_band, y_band):
    # ``_database`` already ran ``X < 500``; that constant would be a
    # cache hit on the first check below.
    assume(c != 500)
    db, columns, uids = _database(seed, doomed)
    check = partial(_check, db, columns, uids)
    grid = (f"SELECT * FROM t WHERE X > {x_band[0]} AND X < {x_band[1] + 1} "
            f"AND Y > {y_band[0]} AND Y < {y_band[1] + 1}")

    check(f"SELECT * FROM t WHERE X < {c}", "auto", (PRKBSelectOp,))
    # The first run pinned where this trapdoor cuts the chain.
    check(f"SELECT * FROM t WHERE X < {c}", "auto", (CacheHitOp,))
    check(f"SELECT * FROM t WHERE Z >= {d}", "auto", (LinearScanOp,))
    check(grid, "md", (GridIntersectOp,))
    check(grid, "sd+", (GridIntersectOp,))
    check("SELECT * FROM t", "auto", ())
    check(f"SELECT * FROM t WHERE X >= {d} AND Z < {c} "
          f"AND Y BETWEEN {y_band[0]} AND {y_band[1]}", "auto",
          (PRKBSelectOp, LinearScanOp, PRKBSelectOp))

    db.enable_hybrid()
    check(f"SELECT * FROM t WHERE X <= {c}", "ope", (OPECompareOp,))
    check(f"SELECT * FROM t WHERE Y BETWEEN {y_band[0]} AND {y_band[1]}",
          "src", (SRCStructureOp,))
    check(f"SELECT * FROM t WHERE X > {d}", "mpc", (MPCShareOp,))
    check(f"SELECT * FROM t WHERE X < {c} AND Y > {d}", "ope",
          (OPECompareOp, OPECompareOp))
    check(f"SELECT * FROM t WHERE X <= {d} AND Y >= {c}", "mpc",
          (MPCShareOp, MPCShareOp))


def _answer(db, columns, uids, sql: str, strategy: str = "auto"):
    """Run ``sql`` end to end; check the contract and the plaintext."""
    out = db.query(sql, strategy=strategy).uids
    _assert_contract(out)
    assert np.array_equal(
        out, _plaintext_answer(parse_select(sql), columns, uids)), sql
    return out


def _spy_uids_in_order(monkeypatch) -> list:
    """Record ``(start, stop, extra sizes)`` of every chain read-out."""
    calls = []
    real = PartialOrderPartitions.uids_in_order

    def spy(self, start, stop, extra=()):
        extra = list(extra)
        calls.append((start, stop, [int(e.size) for e in extra]))
        return real(self, start, stop, extra)

    monkeypatch.setattr(PartialOrderPartitions, "uids_in_order", spy)
    return calls


def test_equivalence_cache_repeats_of_every_kind():
    db, columns, uids = _database(2, set(range(0, _ROWS, 7)))
    cache = db.server.index("t", "X")._equiv_cache
    kinds = set()
    for op, constant in (("<", 420), (">=", 420), ("<=", 610), (">", 610),
                         (">=", _DOMAIN[0]), ("<", _DOMAIN[0])):
        sql = f"SELECT * FROM t WHERE X {op} {constant}"
        first = _answer(db, columns, uids, sql)
        entry = cache[db.planner.seal_comparison("X", op, constant).serial]
        kinds.add(entry[0] if entry[0] != "sep" else ("sep", entry[2]))
        before = db.counter.qpf_uses
        assert np.array_equal(_answer(db, columns, uids, sql), first)
        assert db.counter.qpf_uses == before  # answered by the cache
    # "sep" with the winners on either side of the separator, the
    # trivially-true predicate and the empty one.
    assert kinds == {("sep", True), ("sep", False), "all", "none"}


def test_between_free_run_plus_scanned_edges(monkeypatch):
    db, columns, uids = _database(3, set())
    for constant in range(100, 1000, 60):  # a chain of ~15 partitions
        db.query(f"SELECT * FROM t WHERE Y < {constant}")
    calls = _spy_uids_in_order(monkeypatch)
    _answer(db, columns, uids, "SELECT * FROM t WHERE Y BETWEEN 230 AND 790")
    (start, stop, scanned), = calls
    assert start < stop, "no free winner run"
    assert scanned and sum(scanned) > 0, "no scanned edge winners"


def test_grown_and_shrunk_tables_never_answer_dead_uids():
    db, columns, uids = _database(4, {5, 17, 60})
    rng = np.random.default_rng(4)
    for __ in range(3):  # 3 x 100 rows: uid -> key grows past twice
        rows = {name: rng.integers(_DOMAIN[0], _DOMAIN[1] + 1, 100)
                for name in "XYZ"}
        fresh = db.insert("t", rows)
        uids = np.concatenate([uids, fresh])
        columns = {name: np.concatenate([columns[name], rows[name]])
                   for name in "XYZ"}
    assert db.server.index("t", "X").pop._key_of_uid.size > 2 * _ROWS
    doomed = np.concatenate([uids[:9], uids[-9:], uids[200:211]])
    db.delete("t", doomed)
    keep = ~np.isin(uids, doomed)
    uids, columns = uids[keep], {n: c[keep] for n, c in columns.items()}
    for sql in ("SELECT * FROM t WHERE X < 333",
                "SELECT * FROM t WHERE X < 333",  # equivalence repeat
                "SELECT * FROM t WHERE X >= 1",
                "SELECT * FROM t WHERE X BETWEEN 150 AND 850",
                "SELECT * FROM t WHERE Y > 640"):
        out = _answer(db, columns, uids, sql)
        assert not np.isin(out, doomed).any()
    _answer(db, columns, uids, "SELECT * FROM t WHERE X > 100 AND X < 700 "
            "AND Y > 200 AND Y < 900", strategy="md")
    for attribute in "XY":
        index = db.server.index("t", attribute)
        index.pop.check_invariants()


def test_execute_many_windows_whose_siblings_split_mid_window(monkeypatch):
    sqls = [f"SELECT * FROM t WHERE X < {c}"
            for c in (90, 910, 470, 260, 730, 555, 130, 840, 333, 640)]
    serial_db, columns, uids = _database(5, {3, 33, 99})
    serial = [serial_db.query(sql).uids for sql in sqls]
    batch_db, __, __ = _database(5, {3, 33, 99})
    events = []
    commit, read_out = PRKBIndex._commit_split, \
        PartialOrderPartitions.uids_in_order

    def logged_commit(self, deferred, rotate=True):
        applied = commit(self, deferred, rotate)
        events.append("split" if applied else "skip")
        return applied

    def logged_read_out(self, start, stop, extra=()):
        events.append("answer")
        return read_out(self, start, stop, extra)

    monkeypatch.setattr(PRKBIndex, "_commit_split", logged_commit)
    monkeypatch.setattr(PartialOrderPartitions, "uids_in_order",
                        logged_read_out)
    batched = batch_db.execute_many(sqls, window=4)
    # Some pipeline read its answer out after a sibling's split landed.
    assert "answer" in events[events.index("split") + 1:]
    for sql, want, got in zip(sqls, serial, batched):
        _assert_contract(got.uids)
        assert np.array_equal(np.sort(want), got.uids), sql
        assert np.array_equal(
            got.uids, _plaintext_answer(parse_select(sql), columns, uids))


def test_mpc_over_shares_answers_in_uid_order():
    db, columns, uids = _database(6, {8, 80})
    db.enable_hybrid()
    check = partial(_check, db, columns, uids)
    for constant in (150, 480, 720):  # refine the chain over shares
        check(f"SELECT * FROM t WHERE X < {constant}", "mpc", (MPCShareOp,))
    check("SELECT * FROM t WHERE X < 480", "mpc", (MPCShareOp,))  # repeat
    check("SELECT * FROM t WHERE X BETWEEN 200 AND 700", "mpc",
          (MPCShareOp,))
    check("SELECT * FROM t WHERE Z >= 500", "mpc", (MPCShareOp,))
