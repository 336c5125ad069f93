"""Property test for the physical operators' output contract.

``PhysicalOperator.execute`` returns strictly increasing ``uint64``
uids; ``SelectionRoot`` relies on that and no longer re-sorts what its
children hand it.  Hypothesis drives every operator kind over tables
that have seen deletes (so uids are sparse and chain buffers are not in
uid order) and checks each child's own output, the root's output
against what the old re-sorting root returned, and both against the
plaintext answer.
"""

import operator
from functools import partial

import numpy as np
from hypothesis import assume, given, settings, strategies as st

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
