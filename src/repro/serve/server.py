"""QueryServer: admission-controlled worker pool over tenant sessions.

The top of the serving stack.  One :class:`QueryServer` owns a
:class:`~repro.serve.session.SessionManager`, an
:class:`~repro.serve.admission.AdmissionController` and a
``ThreadPoolExecutor``; requests flow

    submit(tenant, sql) ── admit (backpressure, sheds here)
                        ── enqueue on the worker pool
                        ── worker: session.query under statement gates
                        ── release slot, charge QPF to tenant window

:meth:`QueryServer.query`, the synchronous form, admits the same way
and then serves on the caller's thread: no pool handoff either way.

Serving threads share each tenant's planner (plan cache + trapdoor
memo — both thread-safe) and the database-wide trusted-machine caches;
per-query cost accounting uses thread-local measurement scopes, so
``QueryAnswer.qpf_uses`` is exact under any interleaving.

Observability: when the database has metrics enabled the server feeds
``repro_serve_requests_total{tenant,outcome}``,
``repro_serve_shed_total{tenant,reason}``,
``repro_serve_qpf_total{tenant}``, ``repro_serve_latency_seconds``, a
per-tenant ``repro_serve_request_seconds{tenant}`` histogram and an
in-flight gauge; when tracing is enabled every request runs inside a
``serve.request`` span on the thread serving it, with the engine's
``query`` span nesting beneath it.  :meth:`endpoint` returns the
database's :class:`~repro.edbms.server.ObservabilityEndpoint` wired to
this server, which adds ``POST /query`` to the GET routes.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from .admission import AdmissionController, Overloaded, TenantQuota
from .session import Session, SessionManager

__all__ = ["QueryServer"]


class QueryServer:
    """Concurrent serving facade over one encrypted database.

    ``workers`` sizes the pool behind :meth:`submit`; ``admission``
    defaults to a fresh :class:`AdmissionController` (capacity bounded,
    permissive per-tenant quota); ``sessions`` defaults to a fresh
    :class:`SessionManager`.  Registers itself on the database so
    ``db.close()`` drains the pool and waits out synchronous queries
    before engine teardown.
    """

    def __init__(self, db, workers: int = 4,
                 sessions: SessionManager | None = None,
                 admission: AdmissionController | None = None):
        if workers < 1:
            raise ValueError("workers must be positive")
        self.db = db
        self.sessions = sessions or SessionManager(db)
        self.admission = admission or AdmissionController()
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self._lock = threading.Lock()
        # Synchronous queries in flight on caller threads; close() waits
        # for the count to reach zero.
        self._inline = 0
        self._idle = threading.Condition(self._lock)
        self._closed = False
        self._served = 0
        self._failed = 0
        db._attach_serving(self)

    # -- tenant surface ---------------------------------------------------- #

    def session(self, tenant: str, isolate: bool = True) -> Session:
        """The tenant's session (created on first use)."""
        return self.sessions.session(tenant, isolate=isolate)

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Override the admission quota for one tenant."""
        self.admission.set_quota(tenant, quota)

    def submit(self, tenant: str, sql: str,
               strategy: str = "auto") -> Future:
        """Admit and enqueue one query; returns its future.

        Raises :class:`~repro.serve.admission.Overloaded` /
        :class:`~repro.serve.admission.QuotaExceeded` *synchronously*
        when the request is shed — backpressure happens at the caller,
        before any queueing.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("query server is closed")
        session = self._admit(tenant)
        try:
            return self._pool.submit(self._serve, session, sql, strategy)
        except BaseException:
            self.admission.release(tenant)
            raise

    def query(self, tenant: str, sql: str, strategy: str = "auto"):
        """Synchronous :meth:`submit` — admit, then serve on the calling
        thread and return the answer."""
        with self._lock:
            if self._closed:
                raise RuntimeError("query server is closed")
            self._inline += 1
        try:
            return self._serve(self._admit(tenant), sql, strategy)
        finally:
            with self._lock:
                self._inline -= 1
                if not self._inline:
                    self._idle.notify_all()

    def _admit(self, tenant: str) -> Session:
        """The tenant's session, once admission grants a slot (sheds
        raise here, counted)."""
        session = self.session(tenant)
        try:
            self.admission.admit(tenant)
        except Overloaded as exc:
            self._count(tenant, "shed")
            self._count_shed(tenant, exc.code)
            raise
        return session

    # -- worker body -------------------------------------------------------- #

    def _serve(self, session: Session, sql: str, strategy: str):
        counter = self.db.counter
        tracer = counter.tracer
        metrics = counter.metrics
        tenant = session.tenant
        start = time.perf_counter()
        qpf_used = 0
        try:
            if tracer is None:
                answer = session.query(sql, strategy=strategy)
            else:
                # parent=None: each request is its own trace root on the
                # thread serving it; the engine's "query" span nests under.
                with tracer.span("serve.request", parent=None,
                                 tenant=tenant, sql=sql):
                    answer = session.query(sql, strategy=strategy)
            qpf_used = answer.qpf_uses
            self._count(tenant, "ok")
            with self._lock:
                self._served += 1
            return answer
        except BaseException:
            self._count(tenant, "error")
            with self._lock:
                self._failed += 1
            raise
        finally:
            self.admission.release(tenant, qpf_used)
            if metrics is not None:
                elapsed = time.perf_counter() - start
                metrics.histogram(
                    "repro_serve_latency_seconds",
                    "wall time of served requests, admission to answer",
                ).observe(elapsed)
                metrics.histogram(
                    "repro_serve_request_seconds",
                    "wall time of served requests, by tenant",
                    ("tenant",),
                ).observe(elapsed, tenant=tenant)
                if qpf_used:
                    metrics.counter(
                        "repro_serve_qpf_total",
                        "QPF uses charged to served requests, by tenant",
                        ("tenant",),
                    ).inc(qpf_used, tenant=tenant)

    # -- observability ------------------------------------------------------ #

    def _count(self, tenant: str, outcome: str) -> None:
        metrics = self.db.counter.metrics
        if metrics is not None:
            metrics.counter(
                "repro_serve_requests_total",
                "serving requests by tenant and outcome",
                ("tenant", "outcome"),
            ).inc(tenant=tenant, outcome=outcome)

    def _count_shed(self, tenant: str, reason: str) -> None:
        metrics = self.db.counter.metrics
        if metrics is not None:
            metrics.counter(
                "repro_serve_shed_total",
                "shed serving requests by tenant and admission reason",
                ("tenant", "reason"),
            ).inc(tenant=tenant, reason=reason)

    def bind_metrics(self, registry) -> None:
        """Publish the ``repro_serve_pending`` gauge on ``registry``
        (the database calls this whichever of server construction and
        ``enable_observability`` comes second)."""
        registry.gauge(
            "repro_serve_pending",
            "admitted-but-unfinished serving requests",
            callback=lambda: self.admission.pending)

    def endpoint(self):
        """The database's observability endpoint + ``POST /query``."""
        endpoint = self.db.observability_endpoint()
        endpoint.query_server = self
        return endpoint

    def stats(self) -> dict:
        """Serving tallies merged with the admission controller's."""
        with self._lock:
            served, failed = self._served, self._failed
        return {
            "workers": self.workers,
            "served": served,
            "failed": failed,
            "sessions": len(self.sessions.sessions()),
            "admission": self.admission.stats(),
        }

    # -- teardown ------------------------------------------------------------ #

    def close(self) -> None:
        """Stop accepting work, drain queued requests, stop the pool.

        Idempotent; also invoked by ``db.close()``.  Queued and
        executing requests, synchronous ones included, run to completion
        before this returns.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            while self._inline:
                self._idle.wait()
        self._pool.shutdown(wait=True)
