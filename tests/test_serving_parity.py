"""Concurrent serving parity: winners and QPF exactly match serial.

The acceptance gate of the serving core: N worker threads, each a
tenant running the canonical 120-query probe of
``tests/test_obs_parity.py`` / ``benchmarks/bench_parity_probe.py``
(2000-row uniform table, pinned seeds, deterministic global cost
``EXPECTED_QPF``), must produce

* bit-identical winner sets per query, and
* *exactly* N x ``EXPECTED_QPF`` aggregate qpf_uses on the shared counter,

regardless of thread interleaving — with and without tracing enabled.
Per-tenant PRKB namespaces make this possible: each tenant's refinement
trajectory is a private, deterministic function of its own query
stream, and thread-exact accounting
(:meth:`~repro.edbms.costs.CostCounter.measure` + atomic ``charge``)
keeps both the per-query and the global tallies lossless under
concurrency.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.edbms.engine import EncryptedDatabase
from repro.serve import QueryServer
from repro.workloads import distinct_comparison_thresholds, uniform_table

from conftest import load_parity_bench

pytestmark = pytest.mark.serving

DOMAIN = (1, 300_000)
NUM_ROWS = 2_000
NUM_QUERIES = 120
#: The canonical probe's deterministic cost (pinned in bench_parity_probe).
EXPECTED_QPF = load_parity_bench().EXPECTED_QPF
NUM_TENANTS = 4


def probe_sqls() -> list[str]:
    thresholds = distinct_comparison_thresholds(DOMAIN, NUM_QUERIES,
                                                seed=1)
    return [f"SELECT * FROM t WHERE X < {int(t)}" for t in thresholds]


def make_db() -> EncryptedDatabase:
    table = uniform_table("t", NUM_ROWS, ["X"], domain=DOMAIN, seed=0)
    db = EncryptedDatabase(seed=7)
    db.create_table("t", {"X": DOMAIN}, {"X": table.columns["X"]})
    return db


def serial_reference(sqls: list[str]):
    db = make_db()
    db.enable_prkb("t", ["X"])
    answers = [db.query(sql) for sql in sqls]
    assert db.counter.qpf_uses == EXPECTED_QPF
    return answers


def run_concurrent_probe(tracing: bool):
    sqls = probe_sqls()
    expected = serial_reference(sqls)

    db = make_db()
    if tracing:
        db.enable_observability(trace_capacity=16384)
    server = QueryServer(db, workers=8)
    results: dict[str, list] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(NUM_TENANTS, timeout=30)

    def tenant_probe(tenant: str):
        try:
            session = server.session(tenant)
            session.enable_prkb("t", ["X"])
            barrier.wait()  # maximize interleaving
            results[tenant] = [server.query(tenant, sql) for sql in sqls]
        except BaseException as exc:  # surface in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=tenant_probe, args=(f"tenant{i}",))
               for i in range(NUM_TENANTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert len(results) == NUM_TENANTS

    for tenant, answers in results.items():
        # Winners bit-identical to the serial run, query by query.
        for got, want in zip(answers, expected):
            assert np.array_equal(np.sort(got.uids),
                                  np.sort(want.uids)), tenant
        # Per-tenant accounting is exact, not approximate.
        per_tenant = sum(answer.qpf_uses for answer in answers)
        assert per_tenant == EXPECTED_QPF, (tenant, per_tenant)
    # The shared global counter absorbed exactly the sum of the parts.
    assert db.counter.qpf_uses == NUM_TENANTS * EXPECTED_QPF
    served = server.stats()
    assert served["served"] == NUM_TENANTS * NUM_QUERIES
    assert served["failed"] == 0
    assert served["admission"]["shed"] == 0
    db.close()
    return db


def test_concurrent_probe_parity():
    run_concurrent_probe(tracing=False)


def test_concurrent_probe_parity_traced():
    db = run_concurrent_probe(tracing=True)
    # Tracing observed the run without perturbing it; every request got
    # a serve.request root span on its worker thread.
    spans = db.tracer.spans(name="serve.request")
    assert len(spans) == NUM_TENANTS * NUM_QUERIES
    tenants = {span.attrs["tenant"] for span in spans}
    assert len(tenants) == NUM_TENANTS
    # The engine's query span nested under the serving span.
    children = db.tracer.spans(name="query")
    by_id = {span.span_id for span in spans}
    assert any(child.parent_id in by_id for child in children)


def test_concurrent_tenants_with_distinct_workloads():
    """Tenants running *different* probes still account exactly.

    Each tenant runs a disjoint slice of the probe; per-tenant QPF must
    equal that slice's cost on a fresh single-tenant database.
    """
    sqls = probe_sqls()
    slices = [sqls[i::3] for i in range(3)]

    expected_costs = []
    for chunk in slices:
        db = make_db()
        db.enable_prkb("t", ["X"])
        for sql in chunk:
            db.query(sql)
        expected_costs.append(db.counter.qpf_uses)

    db = make_db()
    server = QueryServer(db, workers=6)
    totals: dict[int, int] = {}
    errors: list[BaseException] = []

    def tenant_probe(position: int):
        try:
            tenant = f"tenant{position}"
            session = server.session(tenant)
            session.enable_prkb("t", ["X"])
            totals[position] = sum(
                server.query(tenant, sql).qpf_uses
                for sql in slices[position])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=tenant_probe, args=(i,))
               for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert [totals[i] for i in range(3)] == expected_costs
    assert db.counter.qpf_uses == sum(expected_costs)
    db.close()
