"""Every entry point, one record (``obs`` and ``serving`` markers).

``query``, ``explain_analyze`` and ``Session.query`` are three doors
onto one statement runner.  The same 40-statement stream through each
door, traced and untraced, must give the same winners and the same QPF
per statement, and leave behind exactly one knowledge atom, one latency
observation and one estimate-error observation per statement.
"""

import numpy as np
import pytest

from repro.edbms.engine import EncryptedDatabase
from repro.serve import SessionManager

pytestmark = [pytest.mark.obs, pytest.mark.serving]

SEED = 5
ROWS = 500


def _stream() -> list[str]:
    rng = np.random.default_rng(11)
    statements = []
    for constant in rng.integers(200, 9800, 14).tolist():
        statements.append(f"SELECT * FROM t WHERE A < {constant}")
        statements.append(f"SELECT * FROM t WHERE B >= {constant}")
    statements[9] = statements[3]  # a repeat: equivalence-cache hit
    for low in (500, 2500, 4500, 6500):
        statements.append(
            f"SELECT * FROM t WHERE A BETWEEN {low} AND {low + 1800}")
        statements.append(
            f"SELECT * FROM t WHERE A > {low} AND A < {low + 3000} "
            f"AND B > {low // 2} AND B < {low // 2 + 5000}")
        statements.append(f"SELECT MIN(B) FROM t WHERE A > {low}")
    assert len(statements) == 40
    return statements


STREAM = _stream()


def _database() -> EncryptedDatabase:
    rng = np.random.default_rng(3)
    db = EncryptedDatabase(seed=SEED)
    db.create_table("t", {"A": (1, 10_000), "B": (1, 10_000)},
                    {"A": rng.integers(1, 10_001, ROWS),
                     "B": rng.integers(1, 10_001, ROWS)})
    return db


@pytest.fixture(scope="module")
def reference():
    """The stream through bare ``query``: nothing enabled."""
    db = _database()
    db.enable_prkb("t", ["A", "B"])
    answers = [db.query(sql) for sql in STREAM]
    assert db.counter.qpf_uses == sum(a.qpf_uses for a in answers) > 0
    return answers


def _observations(registry, name: str) -> int:
    return sum(series.count for __, series in registry.get(name).series())


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("door", ["query", "explain_analyze", "session"])
def test_one_path_one_record(tmp_path, reference, door, traced):
    db = _database()
    store = db.enable_outcomes(tmp_path / "ledger")
    registry = db.enable_observability()[1] if traced else None
    if door == "session":
        session = SessionManager(db).session("acme")
        session.enable_prkb("t", ["A", "B"])
        run = session.query
    else:
        db.enable_prkb("t", ["A", "B"])
        run = db.query
    answers = []
    for sql in STREAM:
        if door == "explain_analyze":
            analysis = db.explain_analyze(sql)
            assert sum(step.actual_qpf for step in analysis.steps) \
                == analysis.answer.qpf_uses
            answers.append(analysis.answer)
        else:
            answers.append(run(sql))
    for sql, got, want in zip(STREAM, answers, reference):
        assert np.array_equal(got.uids, want.uids), sql
        assert (got.value, got.qpf_uses) == (want.value, want.qpf_uses), sql
        assert (got.query_id is not None) == traced
    assert db.counter.qpf_uses == sum(a.qpf_uses for a in reference)
    assert store.atoms == db.ledger.records_written == len(STREAM)
    if traced:
        for name in ("repro_query_latency_seconds",
                     "repro_plan_estimate_error_ratio"):
            assert _observations(registry, name) == len(STREAM), name
    db.close()
