"""QueryServer worker pool, HTTP POST surface and drain-on-close."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.edbms.engine import EncryptedDatabase
from repro.serve import Overloaded, QueryServer, QuotaExceeded, TenantQuota
from repro.workloads import uniform_table

pytestmark = pytest.mark.serving

DOMAIN = (1, 10_000)


def make_db(n: int = 300) -> EncryptedDatabase:
    table = uniform_table("t", n, ["X"], domain=DOMAIN, seed=0)
    db = EncryptedDatabase(seed=7)
    db.create_table("t", {"X": DOMAIN}, {"X": table.columns["X"]})
    return db


def make_server(**kwargs) -> QueryServer:
    server = QueryServer(make_db(), **kwargs)
    session = server.session("acme")
    session.enable_prkb("t", ["X"])
    return server


class TestQueryServer:
    def test_query_and_submit(self):
        server = make_server(workers=2)
        answer = server.query("acme", "SELECT * FROM t WHERE X < 5000")
        assert answer.qpf_uses > 0
        future = server.submit("acme", "SELECT COUNT(*) FROM t WHERE X < 5000")
        assert np.array_equal(np.sort(future.result().uids),
                              np.sort(answer.uids))
        stats = server.stats()
        assert stats["served"] == 2 and stats["failed"] == 0
        server.db.close()

    def test_invalid_sql_counts_as_failed(self):
        server = make_server()
        with pytest.raises(Exception):
            server.query("acme", "SELECT nope FROM nowhere WHERE")
        assert server.stats()["failed"] == 1
        server.db.close()

    def test_quota_sheds_synchronously(self):
        server = make_server()
        server.set_quota("acme", TenantQuota(max_inflight=8,
                                             qpf_per_window=1,
                                             window_seconds=3600.0))
        server.query("acme", "SELECT * FROM t WHERE X < 5000")
        with pytest.raises(QuotaExceeded):
            server.query("acme", "SELECT * FROM t WHERE X < 6000")
        assert server.stats()["admission"]["shed"] == 1
        server.db.close()

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            QueryServer(make_db(), workers=0)

    def test_close_drains_queued_work(self):
        server = make_server(workers=2)
        server.set_quota("acme", TenantQuota(max_inflight=64))
        futures = [server.submit("acme",
                                 f"SELECT * FROM t WHERE X < {c}")
                   for c in range(1000, 6000, 250)]
        server.db.close()
        # Every queued request ran to completion before close returned.
        assert all(future.done() for future in futures)
        assert all(future.exception() is None for future in futures)
        with pytest.raises(RuntimeError, match="closed"):
            server.query("acme", "SELECT * FROM t WHERE X < 100")

    def test_close_waits_for_a_synchronous_query(self, monkeypatch):
        """A synchronous query runs on its caller's thread, outside the
        pool; close() must still wait for its answer before teardown."""
        server = make_server(workers=1)
        session = server.session("acme")
        entered, release = threading.Event(), threading.Event()
        events, served_on = [], []
        query = session.query

        def blocked(sql, strategy="auto"):
            served_on.append(threading.get_ident())
            entered.set()
            release.wait(10)
            answer = query(sql, strategy=strategy)
            events.append("answer")
            return answer

        monkeypatch.setattr(session, "query", blocked)
        caller = threading.Thread(
            target=server.query,
            args=("acme", "SELECT * FROM t WHERE X < 5000"))
        caller.start()
        assert entered.wait(10)
        assert served_on == [caller.ident]

        def close():
            server.db.close()
            events.append("closed")

        closer = threading.Thread(target=close)
        closer.start()
        closer.join(0.3)
        assert closer.is_alive(), "close() returned under a live query"
        release.set()
        closer.join(10)
        caller.join(10)
        assert events == ["answer", "closed"]
        assert server.stats()["served"] == 1
        with pytest.raises(RuntimeError, match="closed"):
            server.query("acme", "SELECT * FROM t WHERE X < 100")

    def test_double_close_with_server(self):
        server = make_server()
        server.query("acme", "SELECT * FROM t WHERE X < 5000")
        server.db.close()
        server.db.close()
        server.close()  # directly idempotent as well


class TestPostRouting:
    """handle_post is a pure function — no sockets needed."""

    def test_query_roundtrip(self):
        server = make_server()
        endpoint = server.endpoint()
        body = json.dumps({"sql": "SELECT * FROM t WHERE X < 5000",
                           "tenant": "acme"}).encode()
        status, content_type, payload = endpoint.handle_post("/query", body)
        assert status == 200 and content_type == "application/json"
        answer = json.loads(payload)
        assert answer["tenant"] == "acme"
        assert answer["count"] == len(answer["uids"])
        assert answer["qpf_uses"] > 0
        server.db.close()

    def test_default_tenant_and_strategy(self):
        server = make_server()
        status, __, payload = server.endpoint().handle_post(
            "/query", json.dumps({"sql": "SELECT COUNT(*) FROM t WHERE "
                                         "X < 5000",
                                  "strategy": "baseline"}).encode())
        assert status == 200
        assert json.loads(payload)["tenant"] == "default"
        server.db.close()

    def test_bad_bodies(self):
        server = make_server()
        endpoint = server.endpoint()
        assert endpoint.handle_post("/query", b"not json")[0] == 400
        assert endpoint.handle_post("/query", b"[1, 2]")[0] == 400
        assert endpoint.handle_post("/query", b"{}")[0] == 400
        assert endpoint.handle_post("/nope", b"{}")[0] == 404
        server.db.close()

    def test_without_query_server_is_503(self):
        db = make_db()
        status, __, body = db.observability_endpoint().handle_post(
            "/query", b'{"sql": "SELECT * FROM t"}')
        assert status == 503 and "not enabled" in body

    def test_shed_maps_to_429(self):
        server = make_server()
        server.set_quota("acme", TenantQuota(max_inflight=8,
                                             qpf_per_window=1,
                                             window_seconds=3600.0))
        endpoint = server.endpoint()
        body = json.dumps({"sql": "SELECT * FROM t WHERE X < 5000",
                           "tenant": "acme"}).encode()
        assert endpoint.handle_post("/query", body)[0] == 200
        status, __, text = endpoint.handle_post("/query", body)
        assert status == 429 and "budget" in text
        server.db.close()


class TestHttpSurface:
    def test_post_query_over_http(self):
        server = make_server()
        endpoint = server.endpoint()
        host, port = endpoint.start()
        try:
            request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=json.dumps({"sql": "SELECT COUNT(*) FROM t WHERE "
                                        "X < 5000",
                                 "tenant": "acme"}).encode(),
                method="POST")
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
                assert json.loads(response.read())["count"] >= 0
            bad = urllib.request.Request(f"http://{host}:{port}/query",
                                         data=b"nope", method="POST")
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(bad)
            assert info.value.code == 400
        finally:
            endpoint.stop()
            server.db.close()

    def test_http_server_is_threading(self):
        """Regression: the scrape target must serve GETs concurrently.

        A single-threaded HTTPServer would deadlock a slow scrape
        against a query POST; the endpoint pins ThreadingHTTPServer.
        """
        from http.server import ThreadingHTTPServer

        server = make_server()
        endpoint = server.endpoint()
        host, port = endpoint.start()
        try:
            assert isinstance(endpoint._httpd, ThreadingHTTPServer)
            statuses: list[int] = []
            lock = threading.Lock()

            def scrape():
                with urllib.request.urlopen(
                        f"http://{host}:{port}/health") as response:
                    with lock:
                        statuses.append(response.status)

            threads = [threading.Thread(target=scrape) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert statuses == [200] * 8
        finally:
            endpoint.stop()
            server.db.close()


class TestServingMetrics:
    def test_tenant_labelled_series(self):
        db = make_db()
        db.enable_observability()
        server = QueryServer(db, workers=2)
        session = server.session("acme")
        session.enable_prkb("t", ["X"])
        server.query("acme", "SELECT * FROM t WHERE X < 5000")
        server.set_quota("acme", TenantQuota(max_inflight=8,
                                             qpf_per_window=1,
                                             window_seconds=3600.0))
        # First metered query opens the window and spends the budget...
        server.query("acme", "SELECT * FROM t WHERE X < 6000")
        # ...so the next one is shed.
        with pytest.raises(Overloaded):
            server.query("acme", "SELECT * FROM t WHERE X < 7000")
        from repro.obs import render_prometheus

        text = render_prometheus(db.metrics)
        assert 'repro_serve_requests_total{outcome="ok",tenant="acme"}' \
            in text or \
            'repro_serve_requests_total{tenant="acme",outcome="ok"}' in text
        assert "repro_serve_qpf_total" in text
        assert "repro_serve_latency_seconds" in text
        assert "repro_serve_pending" in text
        shed_line = [line for line in text.splitlines()
                     if "repro_serve_requests_total" in line
                     and "shed" in line]
        assert shed_line
        db.close()

    @staticmethod
    def _served_families(server_first: bool) -> set:
        db = make_db()
        if server_first:
            server = QueryServer(db, workers=2)
            db.enable_observability()
        else:
            db.enable_observability()
            server = QueryServer(db, workers=2)
        server.session("acme").enable_prkb("t", ["X"])
        server.query("acme", "SELECT * FROM t WHERE X < 5000")
        status, __, body = server.endpoint().handle("/metrics")
        assert status == 200
        assert db.metrics.get("repro_serve_pending").value() == 0
        db.close()
        return {line.split()[2] for line in body.splitlines()
                if line.startswith("# TYPE ")}

    def test_same_families_in_either_attach_order(self):
        """The pending gauge is registered whichever of server
        construction and ``enable_observability`` comes second."""
        server_first = self._served_families(True)
        assert server_first == self._served_families(False)
        assert {"repro_serve_pending", "repro_serve_requests_total",
                "repro_serve_latency_seconds"} <= server_first
