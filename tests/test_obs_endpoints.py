"""The /metrics, /trace, /health and /outcomes introspection surface.

``ObservabilityEndpoint.handle`` is pure (path in, response out) so the
routing tests need no sockets; one test exercises the real stdlib HTTP
wrapper end to end on an ephemeral port.  Error paths (malformed POST
bodies, unknown traces, outcomes-before-enable, scrape during drain)
get their own classes.
"""

import json
import re
import threading
import urllib.request

import numpy as np
import pytest

from repro.edbms.engine import EncryptedDatabase

pytestmark = pytest.mark.obs

#: One Prometheus exposition line: name{labels} value.
_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? '
    r'(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$')

#: Names the issue requires on the scrape surface.
REQUIRED_METRICS = (
    "repro_qpf_uses",
    "repro_qpf_roundtrips",
    "repro_wal_fsyncs",
    "repro_predicate_cache_hit_ratio",
    "repro_query_latency_seconds",
)


@pytest.fixture(scope="module")
def served():
    db = EncryptedDatabase(seed=0)
    rng = np.random.default_rng(0)
    db.create_table("t", {"X": (1, 10_000)},
                    {"X": rng.integers(1, 10_001, 400)})
    db.enable_prkb("t", ["X"])
    db.enable_observability()
    answers = [db.query(f"SELECT * FROM t WHERE X < {c}")
               for c in (2000, 5000, 8000)]
    return db, db.observability_endpoint(), answers


class TestDisabled:
    def test_routes_answer_503_without_observability(self):
        endpoint = EncryptedDatabase(seed=0).observability_endpoint()
        for path in ("/metrics", "/metrics.json", "/trace/1"):
            status, __, body = endpoint.handle(path)
            assert status == 503, path
            assert "not enabled" in body


class TestMetricsRoute:
    def test_valid_prometheus_exposition(self, served):
        db, endpoint, __ = served
        status, content_type, body = endpoint.handle("/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4"
        for line in body.splitlines():
            if not line or line.startswith("#"):
                continue
            assert _SAMPLE_LINE.match(line), line

    def test_required_names_present(self, served):
        __, endpoint, __ = served
        body = endpoint.handle("/metrics")[2]
        for name in REQUIRED_METRICS:
            assert name in body, name
        assert "repro_query_latency_seconds_bucket" in body

    def test_family_headers_do_not_move_with_the_first_query(self):
        """Names and help text live in one table (``PLAN_METRICS``): the
        engine pre-registers from it, the planner bumps from it, so the
        ``# HELP`` / ``# TYPE`` lines are the same before and after."""
        from repro.plan.planner import PLAN_METRICS

        db = EncryptedDatabase(seed=0)
        db.create_table("t", {"X": (1, 10_000)},
                        {"X": np.arange(1, 401)})
        db.enable_prkb("t", ["X"])
        db.enable_observability()
        endpoint = db.observability_endpoint()

        def headers():
            return [line for line in endpoint.handle("/metrics")[2]
                    .splitlines() if line.startswith("#")]

        before = headers()
        for name, (kind, help_text, __) in PLAN_METRICS.items():
            assert f"# HELP {name} {help_text}" in before
            assert f"# TYPE {name} {kind}" in before
        db.query("SELECT * FROM t WHERE X < 5000")
        db.query("SELECT * FROM t WHERE X < 5000")  # plan-cache hit
        assert headers() == before
        assert db.metrics.get("repro_plan_cache_hits_total").value() == 1

    def test_no_arena_series(self, served):
        __, endpoint, __ = served
        assert "repro_arena" not in endpoint.handle("/metrics")[2]
        assert "repro_arena" not in endpoint.handle("/metrics.json")[2]

    def test_counter_gauge_reflects_live_value(self, served):
        db, endpoint, __ = served
        body = endpoint.handle("/metrics")[2]
        match = re.search(r"^repro_qpf_uses (\d+)", body, re.M)
        assert match and int(match.group(1)) == db.counter.qpf_uses > 0

    def test_json_variant(self, served):
        db, endpoint, __ = served
        status, content_type, body = endpoint.handle("/metrics.json")
        assert status == 200 and content_type == "application/json"
        doc = json.loads(body)
        assert doc["repro_qpf_uses"]["series"][0]["value"] \
            == db.counter.qpf_uses


class TestTraceRoute:
    def test_known_trace_returns_forest(self, served):
        __, endpoint, answers = served
        status, __, body = endpoint.handle(f"/trace/{answers[0].query_id}")
        assert status == 200
        forest = json.loads(body)
        assert forest[0]["name"] == "query"
        assert forest[0]["children"]

    def test_bad_and_unknown_ids(self, served):
        __, endpoint, __ = served
        assert endpoint.handle("/trace/abc")[0] == 400
        assert endpoint.handle("/trace/999999")[0] == 404
        assert endpoint.handle("/nope")[0] == 404


class TestHealthRoute:
    def test_health_lists_every_index(self, served):
        __, endpoint, __ = served
        status, __, body = endpoint.handle("/health")
        assert status == 200
        doc = json.loads(body)
        assert doc["counter"]["qpf_uses"] > 0
        health = doc["indexes"]["t.X"]
        for key in ("chain_length", "refinement_rate", "qpf_per_query"):
            assert key in health, key


class TestOutcomesRoutes:
    def test_503_without_outcome_tracking(self, served):
        __, endpoint, __ = served
        for path in ("/outcomes", "/tenants"):
            status, __, body = endpoint.handle(path)
            assert status == 503, path
            assert "not enabled" in body

    def test_empty_store_answers_200_with_zeroed_report(self):
        db = EncryptedDatabase(seed=0)
        db.enable_outcomes()  # no queries yet: the ledger is "empty"
        endpoint = db.observability_endpoint()
        status, content_type, body = endpoint.handle("/outcomes")
        assert status == 200 and content_type == "application/json"
        doc = json.loads(body)
        assert doc["atoms"] == 0
        assert doc["fingerprints"] == {} and doc["corrections"] == {}
        status, __, body = endpoint.handle("/tenants")
        assert status == 200 and json.loads(body) == {}

    def test_populated_reports(self):
        db = EncryptedDatabase(seed=0)
        rng = np.random.default_rng(1)
        db.create_table("t", {"X": (1, 10_000)},
                        {"X": rng.integers(1, 10_001, 300)})
        db.enable_prkb("t", ["X"])
        db.enable_outcomes()
        for c in (1000, 4000, 7000):
            db.query(f"SELECT * FROM t WHERE X < {c}")
        endpoint = db.observability_endpoint()
        outcomes = json.loads(endpoint.handle("/outcomes")[2])
        assert outcomes["atoms"] == 3
        assert "t|prkb-sd|X" in outcomes["steps"]
        tenants = json.loads(endpoint.handle("/tenants")[2])
        assert tenants["local"]["count"] == 3
        assert tenants["local"]["slo"]["met_fraction"] == 1.0


class TestPostErrorPaths:
    def test_post_unknown_path_is_404(self, served):
        __, endpoint, __ = served
        assert endpoint.handle_post("/nope", b"{}")[0] == 404

    def test_post_query_without_server_is_503(self, served):
        __, endpoint, __ = served
        status, __, body = endpoint.handle_post(
            "/query", b'{"sql": "SELECT * FROM t"}')
        assert status == 503 and "not enabled" in body

    def test_malformed_bodies_are_400(self):
        from repro.serve import QueryServer

        db = EncryptedDatabase(seed=0)
        rng = np.random.default_rng(2)
        db.create_table("t", {"X": (1, 100)},
                        {"X": rng.integers(1, 101, 50)})
        server = QueryServer(db, workers=1)
        endpoint = server.endpoint()
        for body in (b"not json at all", b"\xff\xfe garbage",
                     b'["a", "list"]', b'{"tenant": "a"}'):
            status, __, text = endpoint.handle_post("/query", body)
            assert status == 400, body
            assert "JSON object" in text
        # Bad SQL through a well-formed envelope is also a 400.
        status, __, __ = endpoint.handle_post(
            "/query", b'{"sql": "DROP TABLE t"}')
        assert status == 400
        db.close()


class TestScrapeDuringDrain:
    def test_concurrent_scrapes_while_server_drains(self):
        """GET /metrics stays coherent while db.close() drains serving."""
        from repro.serve import QueryServer

        db = EncryptedDatabase(seed=0)
        rng = np.random.default_rng(3)
        db.create_table("t", {"X": (1, 1_000)},
                        {"X": rng.integers(1, 1_001, 200)})
        db.enable_prkb("t", ["X"])
        db.enable_observability()
        db.enable_outcomes()
        server = QueryServer(db, workers=2)
        endpoint = server.endpoint()
        for c in (100, 400, 700):
            server.query("acme", f"SELECT * FROM t WHERE X < {c}")
        statuses: list = []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                for path in ("/metrics", "/outcomes", "/tenants"):
                    status, __, body = endpoint.handle(path)
                    statuses.append((path, status, body))

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            db.close()  # drains the query server mid-scrape
        finally:
            stop.set()
            scraper.join(timeout=10)
        assert not scraper.is_alive()
        assert statuses
        for path, status, body in statuses:
            assert status == 200, (path, status)
            if path != "/metrics":
                json.loads(body)  # never a torn/partial JSON document


class TestHttpServer:
    def test_real_scrape_on_ephemeral_port(self, served):
        __, endpoint, answers = served
        host, port = endpoint.start(port=0)
        try:
            with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics", timeout=5) as response:
                assert response.status == 200
                assert b"repro_qpf_uses" in response.read()
            trace_url = (f"http://{host}:{port}"
                         f"/trace/{answers[0].query_id}")
            with urllib.request.urlopen(trace_url, timeout=5) as response:
                assert json.loads(response.read())[0]["name"] == "query"
        finally:
            endpoint.stop()
            endpoint.stop()  # idempotent
