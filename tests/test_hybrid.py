"""Scheme-adaptive hybrid execution: dispatch, budgets, parity, tallies.

Covers the hybrid scheme registry end to end: default-off behaviour,
budgeted candidate ranking with (cost, leakage) alternatives, forced
scheme strategies with exact winner parity, OPE pay-once leakage
accounting, MPC-vs-PRKB QPF trajectory parity with disjoint per-scheme
attribution, per-tenant security budgets and scheme-labelled outcome
atoms feeding the correction loop.
"""

import numpy as np
import pytest

from repro.crypto import BetweenPredicate, ComparisonPredicate
from repro.edbms.engine import EncryptedDatabase
from repro.edbms.sql import BetweenCondition, parse_select
from repro.plan.schemes import MPC_KIND, OPE_KIND, SRC_KIND, SecurityBudget

pytestmark = pytest.mark.hybrid

N_ROWS = 300
DOMAIN = (1, 10_000)

FORCED = ("prkb", "scan", "ope", "src", "mpc")

WORKLOAD = (
    "SELECT * FROM t WHERE X < 4000",
    "SELECT * FROM t WHERE X >= 7777",
    "SELECT * FROM t WHERE Y BETWEEN 2000 AND 2400",
    "SELECT * FROM t WHERE Y > 9000",
)


def _make_db(seed=7, attrs=("X", "Y")):
    rng = np.random.default_rng(0)
    database = EncryptedDatabase(seed=seed)
    database.create_table(
        "t", {"X": DOMAIN, "Y": DOMAIN},
        {"X": rng.integers(DOMAIN[0], DOMAIN[1] + 1, N_ROWS,
                           dtype=np.int64),
         "Y": rng.integers(DOMAIN[0], DOMAIN[1] + 1, N_ROWS,
                           dtype=np.int64)})
    database.enable_prkb("t", list(attrs))
    return database


def _expected(db, sql):
    statement = parse_select(sql)
    winners = None
    for condition in statement.conditions:
        if isinstance(condition, BetweenCondition):
            predicate = BetweenPredicate(condition.attribute,
                                         condition.low, condition.high)
        else:
            predicate = ComparisonPredicate(condition.attribute,
                                            condition.operator,
                                            condition.constant)
        part = db.owner.expected_result("t", predicate)
        winners = part if winners is None else np.intersect1d(winners,
                                                              part)
    return np.sort(winners)


@pytest.fixture
def db():
    return _make_db()


class TestHybridOffDefaults:
    def test_forced_scheme_strategies_require_hybrid(self, db):
        for strategy in ("ope", "src", "mpc"):
            with pytest.raises(RuntimeError, match="hybrid"):
                db.query(WORKLOAD[0], strategy=strategy)

    def test_default_plans_carry_no_leakage(self, db):
        plan = db.planner.plan(parse_select(WORKLOAD[0]))
        assert plan.steps[0].leakage == 0.0
        assert plan.steps[0].alternatives
        for kind, cost, leakage in plan.steps[0].alternatives:
            assert leakage == 0.0

    @pytest.mark.parametrize("hybrid", [False, True])
    def test_every_alternative_is_a_triple(self, db, hybrid):
        if hybrid:
            db.enable_hybrid()
        db.query(WORKLOAD[0], strategy="prkb")  # a cached step as well
        seen = 0
        for strategy in ("auto", "md", "sd+", "baseline") + FORCED:
            if strategy in ("ope", "src", "mpc") and not hybrid:
                continue
            for sql in WORKLOAD + (
                    "SELECT * FROM t WHERE X > 10 AND X < 9000 "
                    "AND Y > 10 AND Y < 9000",):
                plan = db.planner.plan(parse_select(sql), strategy)
                for step in plan.steps:
                    for kind, cost, leakage in step.alternatives:
                        assert isinstance(kind, str) and cost >= 0
                        assert leakage >= 0.0
                        seen += 1
                    assert step.render_alternatives().count("~") \
                        == len(step.alternatives)
        assert seen

    def test_forced_prkb_and_scan_work_without_hybrid(self, db):
        for strategy in ("prkb", "scan"):
            answer = db.query(WORKLOAD[2], strategy=strategy)
            assert np.array_equal(np.sort(answer.uids),
                                  _expected(db, WORKLOAD[2]))


class TestBudgetedDispatch:
    def test_unconstrained_plans_record_three_scheme_alternatives(self,
                                                                  db):
        db.enable_hybrid()
        for sql in WORKLOAD:
            plan = db.planner.plan(parse_select(sql))
            for step in plan.steps:
                triples = [entry for entry in step.alternatives
                           if len(entry) == 3]
                assert len(triples) >= 3
                for kind, cost, leakage in triples:
                    assert isinstance(kind, str)
                    assert cost >= 0
                    assert leakage >= 0.0

    def test_unconstrained_budget_routes_to_ope_for_free(self, db):
        db.enable_hybrid()
        answer = db.query(WORKLOAD[0])
        assert answer.qpf_uses == 0
        assert np.array_equal(np.sort(answer.uids),
                              _expected(db, WORKLOAD[0]))
        assert db.planner.strategy_counts.get(OPE_KIND) == 1

    def test_zero_budget_forces_mpc(self, db):
        dispatch = db.enable_hybrid(budget=0.0)
        answer = db.query(WORKLOAD[0])
        assert np.array_equal(np.sort(answer.uids),
                              _expected(db, WORKLOAD[0]))
        assert db.planner.strategy_counts.get(MPC_KIND) == 1
        assert dispatch.ledger.spent("t") == 0.0
        assert db.counter.mpc_messages > 0

    def test_ope_charges_budget_once_then_blocks_second_column(self, db):
        # Budget fits exactly one OPE column: X takes it, Y must route
        # to a leakage-free or cut-priced scheme instead of OPE.
        dispatch = db.enable_hybrid(budget=1.0 + 10.0 / N_ROWS)
        first = db.query("SELECT * FROM t WHERE X < 4000")
        assert first.qpf_uses == 0
        assert dispatch.ledger.spent("t") == pytest.approx(1.0)
        repeat = db.query("SELECT * FROM t WHERE X < 2222")
        assert repeat.qpf_uses == 0  # same column: already paid
        assert dispatch.ledger.spent("t") == pytest.approx(1.0)
        plan = db.planner.plan(parse_select(
            "SELECT * FROM t WHERE Y BETWEEN 2000 AND 2400"))
        assert plan.steps[0].kind != OPE_KIND
        rejected = {entry[0] for entry in plan.steps[0].alternatives
                    if len(entry) == 3}
        assert OPE_KIND in rejected

    def test_ope_leakage_estimate_drops_after_materialization(self, db):
        db.enable_hybrid()
        fresh = db.planner.plan(parse_select(WORKLOAD[0]))
        assert fresh.steps[0].kind == OPE_KIND
        assert fresh.steps[0].leakage == pytest.approx(1.0)
        db.query(WORKLOAD[0])  # materializes the X column
        # Artifact versions are part of the plan fingerprint, so the
        # cached plan is invalidated and the fresh plan prices OPE at 0.
        replanned = db.planner.plan(parse_select(
            "SELECT * FROM t WHERE X < 1234"))
        assert replanned.steps[0].kind == OPE_KIND
        assert replanned.steps[0].leakage == 0.0


class TestForcedSchemes:
    @pytest.mark.parametrize("strategy", FORCED)
    @pytest.mark.parametrize("sql", WORKLOAD)
    def test_every_forced_scheme_matches_ground_truth(self, strategy,
                                                      sql):
        database = _make_db()
        database.enable_hybrid()
        answer = database.query(sql, strategy=strategy)
        assert np.array_equal(np.sort(answer.uids),
                              _expected(database, sql))

    def test_forced_scheme_winner_parity_against_prkb(self):
        prkb_db = _make_db()
        prkb_db.enable_hybrid()
        for strategy in ("ope", "src", "mpc", "scan"):
            other = _make_db()
            other.enable_hybrid()
            for sql in WORKLOAD:
                reference = prkb_db.query(sql, strategy="prkb")
                answer = other.query(sql, strategy=strategy)
                assert np.array_equal(np.sort(answer.uids),
                                      np.sort(reference.uids))

    def test_forced_ope_spends_zero_qpf(self):
        database = _make_db()
        database.enable_hybrid()
        before = database.counter.qpf_uses
        database.query(WORKLOAD[0], strategy="ope")
        assert database.counter.qpf_uses == before


class TestMPCParity:
    def test_mpc_qpf_trajectory_matches_prkb_twin(self):
        # Satellite: MPCQueryProcessingFunction driven through the
        # planner — same statements, exact winner parity, identical
        # qpf_uses trajectory (the shared chain replicates the TM
        # twin's sampling seed), messages = 2 per share-probe.
        prkb_db = _make_db(seed=11)
        mpc_db = _make_db(seed=11)
        prkb_db.enable_hybrid()
        mpc_db.enable_hybrid()
        messages_before = mpc_db.counter.mpc_messages
        statements = [f"SELECT * FROM t WHERE X < {c}"
                      for c in (3000, 6000, 1500, 8000, 3000)]
        for sql in statements:
            reference = prkb_db.query(sql, strategy="prkb")
            answer = mpc_db.query(sql, strategy="mpc")
            assert np.array_equal(np.sort(answer.uids),
                                  np.sort(reference.uids))
            assert answer.qpf_uses == reference.qpf_uses
        mpc_qpf = mpc_db.scheme_stats()["mpc"]["qpf_uses"]
        assert mpc_db.counter.mpc_messages - messages_before \
            == 2 * mpc_qpf

    def test_unseeded_database_keeps_mpc_parity(self):
        """Without a seed the index draws its own; the share-table chain
        copies that concrete seed, so it still samples what the
        trusted-machine chain samples.  An unseeded database has no
        twin, so both forced schemes run on this one, each on its own
        chain, statement by statement."""
        database = _make_db(seed=None)
        database.enable_hybrid()
        rng = np.random.default_rng(3)
        statements = [f"SELECT * FROM t WHERE X < {int(c)}"
                      for c in rng.integers(*DOMAIN, 16)]
        statements += [f"SELECT * FROM t WHERE X BETWEEN {lo} AND {lo + 900}"
                       for lo in (1200, 4300, 6100, 8800)]
        spent = []
        for sql in statements:
            reference = database.query(sql, strategy="prkb")
            answer = database.query(sql, strategy="mpc")
            assert np.array_equal(answer.uids, reference.uids)
            spent.append((reference.qpf_uses, answer.qpf_uses))
        assert [mpc for __, mpc in spent] == [prkb for prkb, __ in spent]

    def test_per_scheme_qpf_accounting_is_disjoint(self):
        database = _make_db()
        database.enable_hybrid()
        total_before = database.counter.qpf_uses
        database.query(WORKLOAD[0], strategy="prkb")
        database.query(WORKLOAD[2], strategy="mpc")
        database.query(WORKLOAD[1], strategy="src")
        database.query(WORKLOAD[3], strategy="ope")
        stats = database.scheme_stats()
        spent = database.counter.qpf_uses - total_before
        assert stats["ope"]["qpf_uses"] == 0
        assert stats["mpc"]["qpf_uses"] > 0
        assert stats["src"]["qpf_uses"] > 0
        assert stats["prkb"]["qpf_uses"] > 0
        assert sum(entry["qpf_uses"] for entry in stats.values()) \
            == spent


class TestTenantBudgets:
    def test_per_tenant_budgets_route_independently(self):
        from repro.serve import SessionManager

        database = _make_db()
        database.enable_hybrid()
        manager = SessionManager(database)
        tight = manager.session("tight", budget=0.0)
        loose = manager.session("loose", budget=SecurityBudget())
        sql = "SELECT * FROM t WHERE X < 5000"
        expected = _expected(database, sql)
        tight_answer = tight.query(sql)
        loose_answer = loose.query(sql)
        assert np.array_equal(np.sort(tight_answer.uids), expected)
        assert np.array_equal(np.sort(loose_answer.uids), expected)
        assert tight.planner.strategy_counts.get(MPC_KIND) == 1
        assert loose.planner.strategy_counts.get(OPE_KIND) == 1
        assert tight.planner.hybrid.ledger.spent("t") == 0.0
        manager.close()

    def test_served_hybrid_statement_reports_its_qpf(self):
        """MPC- and SRC-routed statements charge through ``charge()``,
        so the thread-local ``measure()`` scope every served query runs
        under sees them (they used to answer ``qpf_uses == 0``)."""
        from repro.serve import QueryServer

        database = _make_db()
        database.enable_hybrid(budget=0.0)
        store = database.enable_outcomes()
        server = QueryServer(database, workers=2)
        try:
            mpc_sql = "SELECT * FROM t WHERE X < 5000"
            before = database.counter.qpf_uses
            served = server.query("acme", mpc_sql)
            assert server.session("acme").planner.strategy_counts \
                .get(MPC_KIND) == 1
            assert np.array_equal(np.sort(served.uids),
                                  _expected(database, mpc_sql))
            assert served.qpf_uses == N_ROWS  # cold chain: a full scan
            assert served.qpf_uses == database.counter.qpf_uses - before
            # ... and so does the outcome atom the served query wrote.
            assert [entry["actual_qpf"] for entry in
                    store.report()["fingerprints"].values()] == [N_ROWS]
            before = database.counter.qpf_uses
            forced = server.query("acme", WORKLOAD[2], strategy="src")
            assert forced.qpf_uses == database.counter.qpf_uses - before > 0
        finally:
            server.close()

    def test_concurrent_tenants_are_billed_their_own_qpf(self):
        """Two tenants run MPC and SRC steps at once (plain comparisons
        share the statement gate): per-scheme tallies still sum to the
        shared counter, and each answer carries exactly its own QPF —
        no sibling's charges, none lost."""
        import sys
        import threading

        from repro.serve import SessionManager

        database = _make_db()
        database.enable_hybrid()
        manager = SessionManager(database)
        sessions = [manager.session("a", budget=0.0),
                    manager.session("b", budget=0.0)]
        streams = [
            [(f"SELECT * FROM t WHERE X < {1000 + 450 * i}", "auto")
             for i in range(12)],
            [(f"SELECT * FROM t WHERE Y > {9500 - 700 * i}",
              "src" if i % 2 else "auto") for i in range(12)],
        ]
        barrier = threading.Barrier(2)
        answers: list[list] = [[], []]
        errors = []

        def run(who):
            try:
                barrier.wait(timeout=30)
                for sql, strategy in streams[who]:
                    answers[who].append(
                        sessions[who].query(sql, strategy=strategy))
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        before = database.counter.qpf_uses
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(who,))
                       for who in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            manager.close()
        assert not errors
        spent = database.counter.qpf_uses - before
        stats = database.scheme_stats()
        assert stats["mpc"]["qpf_uses"] > 0 and stats["src"]["qpf_uses"] > 0
        assert sum(entry["qpf_uses"] for entry in stats.values()) == spent
        assert sum(answer.qpf_uses for stream in answers
                   for answer in stream) == spent
        for who in (0, 1):
            for (sql, __), answer in zip(streams[who], answers[who]):
                assert np.array_equal(np.sort(answer.uids),
                                      _expected(database, sql))

    def test_tenant_budget_requires_hybrid(self):
        from repro.serve import SessionManager

        database = _make_db()
        manager = SessionManager(database)
        with pytest.raises(RuntimeError, match="enable_hybrid"):
            manager.session("tenant", budget=0.5)
        manager.close()


class TestOutcomeIntegration:
    def test_atoms_are_scheme_labelled_and_corrections_learn(self):
        database = _make_db()
        database.enable_hybrid()
        store = database.enable_outcomes()
        for _ in range(store.min_samples):  # corrections need 5 samples
            database.query(WORKLOAD[1], strategy="src")
        corrections = database.apply_corrections()
        assert any(SRC_KIND in key for key in corrections), \
            "src-probe executions must yield scheme-labelled corrections"
        # Corrected plans keep working (and record provenance).
        answer = database.query(WORKLOAD[1], strategy="src")
        assert np.array_equal(np.sort(answer.uids),
                              _expected(database, WORKLOAD[1]))

    def test_explain_analyze_audits_hybrid_steps(self):
        database = _make_db()
        database.enable_hybrid()
        analysis = database.explain_analyze(WORKLOAD[2])
        rendered = analysis.render()
        assert analysis.steps
        assert np.array_equal(np.sort(analysis.answer.uids),
                              _expected(database, WORKLOAD[2]))
        assert "QPF" in rendered

    def test_leakage_spent_survives_any_enable_sequence(self):
        """Repeat ``enable_hybrid`` calls never hand the planner a fresh
        ledger: spend is monotone, and with the cap reached no second
        OPE column is admitted (~2.0 RPOI under a 1.04 cap otherwise).
        """
        rng = np.random.default_rng(0)
        database = EncryptedDatabase(seed=7)
        database.create_table(
            "t", {name: DOMAIN for name in "XYZ"},
            {name: rng.integers(DOMAIN[0], DOMAIN[1] + 1, 1000,
                                dtype=np.int64) for name in "XYZ"})
        database.enable_prkb("t", ["X"])
        dispatch = database.enable_hybrid(1.04)
        spent = []
        for constant in (2000, 4000, 6000):
            database.query(f"SELECT * FROM t WHERE Y < {constant}")
            database.query(f"SELECT * FROM t WHERE Z < {constant + 500}")
            again = database.enable_hybrid(SecurityBudget(max_rpoi=1.04))
            assert again is dispatch and again.ledger is dispatch.ledger
            spent.append(database.hybrid.ledger.spent("t"))
        assert spent == sorted(spent) and spent[0] >= 1.0
        columns = sorted(dispatch.materializer._ope)
        assert len(columns) == 1  # one OPE column is all 1.04 buys
        database.query("SELECT * FROM t WHERE Z < 7777")
        database.query("SELECT * FROM t WHERE Y < 7777")
        assert sorted(dispatch.materializer._ope) == columns
        assert spent[-1] <= database.hybrid.ledger.spent("t") <= 1.04
        # A different cap cannot be swapped in over spent leakage.
        with pytest.raises(RuntimeError, match="already spent"):
            database.enable_hybrid(2.5)
        assert database.hybrid is dispatch

    def test_budget_may_change_before_anything_is_spent(self, db):
        first = db.enable_hybrid(0.5)
        second = db.enable_hybrid(0.0)
        assert second is not first and db.hybrid is second
        assert second.materializer is first.materializer
        assert second.budget == SecurityBudget(max_rpoi=0.0)
