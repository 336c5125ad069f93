"""EXPLAIN ANALYZE: per-step actual QPF, cached replans, estimate error."""

import sys
import threading

import numpy as np
import pytest

from repro.edbms.engine import EncryptedDatabase

pytestmark = pytest.mark.obs

DOMAIN = (1, 10_000)


def _database():
    database = EncryptedDatabase(seed=0)
    rng = np.random.default_rng(1)
    database.create_table(
        "t", {"A": DOMAIN, "B": DOMAIN},
        {"A": rng.integers(1, 10_001, 500),
         "B": rng.integers(1, 10_001, 500)})
    database.enable_prkb("t", ["A", "B"])
    return database


@pytest.fixture()
def db():
    return _database()


class TestSingleDimension:
    def test_actuals_sum_to_answer_total(self, db):
        analysis = db.explain_analyze("SELECT * FROM t WHERE A < 4000")
        assert analysis.plan.steps[0].kind == "prkb-sd"
        assert sum(s.actual_qpf for s in analysis.steps) \
            == analysis.answer.qpf_uses > 0

    def test_answer_matches_plain_query(self, db):
        analysis = db.explain_analyze("SELECT * FROM t WHERE A < 4000")
        want = db.query("SELECT * FROM t WHERE A > 0 AND A < 4000",
                        strategy="md")
        plain = np.sort(analysis.answer.uids)
        assert np.array_equal(plain, np.sort(want.uids))

    def test_repeat_is_planned_cached_and_cheap(self, db):
        sql = "SELECT * FROM t WHERE A < 4000"
        db.explain_analyze(sql)
        warmed = db.explain_analyze(sql)
        step = warmed.plan.steps[0]
        assert step.cached
        assert step.estimated_qpf == 0
        assert warmed.answer.qpf_uses == 0


class TestMultiDimension:
    def test_md_grid_step_with_actuals(self, db):
        sql = ("SELECT * FROM t WHERE A > 1000 AND A < 6000 "
               "AND B > 2000 AND B < 8000")
        analysis = db.explain_analyze(sql, strategy="md")
        kinds = [s.step.kind for s in analysis.steps]
        assert "md-grid" in kinds
        assert sum(s.actual_qpf for s in analysis.steps) \
            == analysis.answer.qpf_uses > 0


class TestBaseline:
    def test_baseline_scan_costs_full_table(self, db):
        analysis = db.explain_analyze("SELECT * FROM t WHERE A < 4000",
                                      strategy="baseline")
        assert analysis.plan.steps[0].kind == "baseline-scan"
        assert analysis.answer.qpf_uses >= 500  # one QPF per tuple


class TestEstimateErrorMetric:
    def test_histogram_populated_per_analyze(self, db):
        __, registry = db.enable_observability()
        db.explain_analyze("SELECT * FROM t WHERE A < 4000")
        db.explain_analyze("SELECT * FROM t WHERE B < 7000")
        family = registry.get("repro_plan_estimate_error_ratio")
        assert family is not None
        series = family.series()[0][1]
        assert series.count == 2
        # Both ratios are finite and positive; the SD estimate is close
        # enough to land within the bucket range.
        assert series.sum > 0

    def test_error_ratio_near_one_for_warmed_sd(self, db):
        # Warm the index so the analytic SD cost model applies.
        for constant in (2000, 3500, 5000, 6500, 8000):
            db.query(f"SELECT * FROM t WHERE A < {constant}")
        analysis = db.explain_analyze("SELECT * FROM t WHERE A < 4500")
        assert 0.1 < analysis.error_ratio < 10.0


class TestBusySibling:
    def test_steps_bill_only_the_analyzing_thread(self, db):
        """A sibling thread charging the shared counter (a busy
        ``QueryServer``) lands in neither the steps nor the total."""
        statements = [f"SELECT * FROM t WHERE A < {c} AND B > {c // 2}"
                      for c in range(1000, 9000, 500)]
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                db.counter.charge(qpf_uses=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        sibling = threading.Thread(target=hammer)
        sibling.start()
        try:
            analyses = [db.explain_analyze(sql, strategy="prkb")
                        for sql in statements]
        finally:
            stop.set()
            sibling.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not sibling.is_alive()
        quiet = _database()  # the fixture's twin, with no sibling
        for sql, busy in zip(statements, analyses):
            want = quiet.explain_analyze(sql, strategy="prkb")
            assert [s.actual_qpf for s in busy.steps] \
                == [s.actual_qpf for s in want.steps], sql
            assert busy.answer.qpf_uses == want.answer.qpf_uses
