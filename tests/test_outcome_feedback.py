"""The self-tuning feedback loop: learn → apply → replan → improve.

The OutcomeStore learns per-step-fingerprint correction factors from
exact knowledge atoms; ``apply_corrections`` installs them on the
estimator and invalidates the plan cache.  These tests pin the whole
contract: gating and clamping of the learned factors, provenance in
``PlanStep.alternatives`` and the ``plan.fingerprint`` span, parity
when corrections are off (the default), per-tenant SLO accounting,
and the labelled serve metrics from this PR.
"""

import numpy as np
import pytest

from repro.edbms.engine import EncryptedDatabase
from repro.obs import OutcomeStore, SLOTarget, step_key

pytestmark = pytest.mark.obs


def _db(seed=0, rows=300, domain=(1, 1_000), cap=None):
    db = EncryptedDatabase(seed=seed)
    rng = np.random.default_rng(seed)
    db.create_table("t", {"X": domain},
                    {"X": rng.integers(domain[0], domain[1] + 1, rows)})
    db.enable_prkb("t", ["X"], max_partitions=cap)
    return db


def _exact_atom(key_kind="prkb-sd", estimated=100, actual=400):
    """A minimal exact single-step atom for direct store ingestion."""
    return {
        "ts": 0.0, "tenant": "local", "sql_hash": "ab", "table": "t",
        "fingerprint": "fp", "strategy": "auto",
        "estimated_qpf": estimated, "actual_qpf": actual,
        "wall_ms": 1.0, "rows": 5, "exact": True,
        "steps": [{"key": step_key("t", key_kind, ("X",)),
                   "kind": key_kind, "estimated": estimated,
                   "actual": actual, "cached": False,
                   "alternatives": []}],
    }


class TestLearning:
    def test_min_samples_gates_corrections(self):
        store = OutcomeStore(min_samples=3)
        key = step_key("t", "prkb-sd", ("X",))
        store.ingest(_exact_atom())
        store.ingest(_exact_atom())
        assert store.corrections() == {}
        store.ingest(_exact_atom())
        assert key in store.corrections()

    def test_factor_is_geometric_mean_of_ratios(self):
        store = OutcomeStore(min_samples=2)
        store.ingest(_exact_atom(estimated=99, actual=199))  # ratio 2
        store.ingest(_exact_atom(estimated=99, actual=799))  # ratio 8
        key = step_key("t", "prkb-sd", ("X",))
        assert store.corrections()[key] == pytest.approx(4.0)

    def test_factor_is_clamped(self):
        store = OutcomeStore(min_samples=1, clamp=8.0)
        store.ingest(_exact_atom(estimated=0, actual=10_000))
        key = step_key("t", "prkb-sd", ("X",))
        assert store.corrections()[key] == 8.0
        shrink = OutcomeStore(min_samples=1, clamp=8.0)
        shrink.ingest(_exact_atom(estimated=10_000, actual=0))
        assert shrink.corrections()[key] == 1.0 / 8.0

    def test_inexact_cached_and_baseline_steps_never_learn(self):
        store = OutcomeStore(min_samples=1)
        inexact = _exact_atom()
        inexact["exact"] = False
        store.ingest(inexact)
        cached = _exact_atom()
        cached["steps"][0]["cached"] = True
        store.ingest(cached)
        scan = _exact_atom(key_kind="baseline-scan")
        store.ingest(scan)
        assert store.corrections() == {}
        assert store.atoms == 3  # still aggregated, just not learned from


class TestApplyCorrections:
    def test_apply_changes_estimates_and_records_provenance(self):
        db = _db(seed=1)
        factor = 3.0
        key = step_key("t", "prkb-sd", ("X",))
        raw = db.explain("SELECT * FROM t WHERE X < 500").steps[0]
        db.apply_corrections({key: factor})
        step = db.explain("SELECT * FROM t WHERE X < 500").steps[0]
        assert step.estimated_qpf == min(
            round(raw.estimated_qpf * factor),
            db.planner.estimator.scan_qpf("t"))  # refinement credit
        assert ("uncorrected", raw.estimated_qpf, 0.0) in step.alternatives
        db.apply_corrections({})
        again = db.explain("SELECT * FROM t WHERE X < 500").steps[0]
        assert again.estimated_qpf == raw.estimated_qpf
        assert all(kind != "uncorrected"
                   for kind, __, __ in again.alternatives)

    def test_apply_invalidates_cached_plans(self):
        db = _db(seed=2)
        sql = "SELECT * FROM t WHERE X < 500"
        # Plan (and cache) without executing: the catalog fingerprint
        # stays valid, so only explicit invalidation can evict the plan.
        before = db.planner.plan(db._parse(sql)).estimated_qpf
        assert before > 0
        db.apply_corrections({step_key("t", "prkb-sd", ("X",)): 0.5})
        after = db.planner.plan(db._parse(sql)).estimated_qpf
        assert after != before  # a stale cached plan would be identical

    def test_apply_pulls_from_live_store(self):
        db = _db(seed=3)
        db.enable_outcomes(store=OutcomeStore(min_samples=1))
        db.query("SELECT * FROM t WHERE X < 500")
        applied = db.apply_corrections()
        assert step_key("t", "prkb-sd", ("X",)) in applied
        assert db.planner.estimator.corrections == applied

    def test_apply_without_store_raises(self):
        db = _db(seed=4)
        with pytest.raises(RuntimeError, match="enable_outcomes"):
            db.apply_corrections()

    def test_answers_are_unchanged_by_corrections(self):
        plain = _db(seed=5, cap=4)
        tuned = _db(seed=5, cap=4)
        workload = [f"SELECT * FROM t WHERE X < {c}"
                    for c in (100, 300, 500, 700, 900)]
        tuned.apply_corrections(
            {step_key("t", "prkb-sd", ("X",)): 8.0})  # forces scan flips
        for sql in workload:
            a, b = plain.query(sql), tuned.query(sql)
            assert np.array_equal(a.uids, b.uids)

    def test_span_records_correction_count(self):
        db = _db(seed=6)
        tracer, __ = db.enable_observability()
        db.apply_corrections({step_key("t", "prkb-sd", ("X",)): 2.0})
        db.query("SELECT * FROM t WHERE X < 500")
        [span] = tracer.spans(name="plan.fingerprint")
        assert span.attrs["corrections"] == 1


class TestDefaultParity:
    def test_qpf_identical_with_tracking_on_and_corrections_off(self):
        def run(tracked):
            db = _db(seed=7)
            if tracked:
                db.enable_outcomes()
            return [db.query(f"SELECT * FROM t WHERE X < {c}").qpf_uses
                    for c in (50, 150, 250, 350, 450, 550, 650)]

        assert run(False) == run(True)


class TestTenantSLOs:
    def test_violations_and_burn_rate(self):
        store = OutcomeStore(slo=SLOTarget(latency_ms=10.0,
                                           target_fraction=0.9))
        for wall in (1.0, 2.0, 50.0, 3.0):  # one of four violates
            atom = _exact_atom()
            atom["wall_ms"] = wall
            atom["tenant"] = "acme"
            store.ingest(atom)
        report = store.tenant_reports()["acme"]
        assert report["slo"]["violations"] == 1
        assert report["slo"]["met_fraction"] == 0.75
        # burn = violation fraction / allowed fraction = 0.25 / 0.1
        assert report["slo"]["burn_rate"] == pytest.approx(2.5)

    def test_per_tenant_slo_override(self):
        store = OutcomeStore()  # default 100ms
        store.set_slo("strict", SLOTarget(latency_ms=0.5))
        atom = _exact_atom()
        atom["wall_ms"] = 1.0
        for tenant in ("strict", "lenient"):
            entry = dict(atom)
            entry["tenant"] = tenant
            store.ingest(entry)
        reports = store.tenant_reports()
        assert reports["strict"]["slo"]["violations"] == 1
        assert reports["lenient"]["slo"]["violations"] == 0

    def test_sessions_label_atoms_and_inherit_corrections(self):
        from repro.serve import QueryServer

        db = _db(seed=8)
        store = db.enable_outcomes()
        db.apply_corrections({step_key("t", "prkb-sd", ("X",)): 2.0})
        server = QueryServer(db, workers=2)
        server.query("acme", "SELECT * FROM t WHERE X < 400")
        server.query("zeta", "SELECT * FROM t WHERE X < 600")
        reports = store.tenant_reports()
        assert set(reports) == {"acme", "zeta"}
        session = server.session("acme")
        assert session.planner.estimator.corrections == \
            db.planner.estimator.corrections
        db.close()


class TestServeMetrics:
    def test_tenant_latency_histogram_and_shed_reasons(self):
        from repro.serve import (
            AdmissionController,
            Overloaded,
            QueryServer,
            TenantQuota,
        )

        db = _db(seed=9)
        __, registry = db.enable_observability()
        admission = AdmissionController(
            default_quota=TenantQuota(max_inflight=1,
                                      qpf_per_window=10_000),
            capacity=64)
        server = QueryServer(db, workers=2, admission=admission)
        server.query("acme", "SELECT * FROM t WHERE X < 400")
        family = registry.get("repro_serve_request_seconds")
        series = family.labels(tenant="acme")
        assert series.count == 1 and series.sum > 0
        # Exhaust the tenant's inflight quota -> shed with a reason.
        admission.admit("acme")
        with pytest.raises(Overloaded) as excinfo:
            server.submit("acme", "SELECT * FROM t WHERE X < 100")
        assert excinfo.value.code == "inflight"
        shed = registry.get("repro_serve_shed_total")
        assert shed.value(tenant="acme", reason="inflight") == 1
        admission.release("acme")
        db.close()

    def test_outcome_metrics_families(self):
        db = _db(seed=10)
        __, registry = db.enable_observability()
        db.enable_outcomes()
        db.query("SELECT * FROM t WHERE X < 500")
        assert registry.get("repro_outcome_atoms_total") \
                       .value(tenant="local") == 1
        assert registry.get("repro_outcome_fingerprints").value() == 1
        assert registry.get("repro_slo_burn_rate") \
                       .value(tenant="local") == 0.0
        from repro.obs import render_prometheus
        text = render_prometheus(registry)
        assert 'repro_outcome_atoms_total{tenant="local"} 1' in text
