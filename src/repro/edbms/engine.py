"""High-level facade: an encrypted database you can talk SQL to.

:class:`EncryptedDatabase` wires together the data owner, the trusted
machine, the QPF and the service provider, and reports per-query cost.
The query path is parse → plan → execute: parsing lives in
:mod:`repro.edbms.sql`, planning (cost-based adaptive dispatch, plan
caching) and execution (Volcano-style physical operators) live in
:mod:`repro.plan`, and this module only orchestrates them plus the
cross-cutting concerns (observability, durability, updates).  This is
the entry point the examples use; research code that wants finer
control composes the lower-level pieces directly.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields

import numpy as np

from ..crypto.primitives import generate_key
from ..obs import (
    DEFAULT_RATIO_BUCKETS,
    MetricsRegistry,
    OutcomeStore,
    PlanOutcomeLedger,
    SLOTarget,
    Tracer,
    build_atom,
    statement_hash,
)
from ..plan import (
    TRAPDOOR_MEMO_SIZE,
    HybridDispatch,
    PlanAnalysis,
    Planner,
    PlanStep,
    QueryPlan,
    SecurityBudget,
    StepAnalysis,
)
from ..plan.planner import PLAN_METRICS, plan_metric
from .costs import CostCounter, CostModel, DEFAULT_COST_MODEL
from .owner import DataOwner
from .qpf import (
    CrossingLatency,
    QueryProcessingFunction,
    build_trusted_machine,
)
from .schema import AttributeSpec, PlainTable, Schema
from .server import ObservabilityEndpoint, ServiceProvider
from .sql import (
    ComparisonCondition,
    SelectStatement,
    parse_select,
)

__all__ = ["EncryptedDatabase", "QueryAnswer", "QueryPlan", "PlanStep",
           "StepAnalysis", "PlanAnalysis", "TRAPDOOR_MEMO_SIZE"]

#: Parsed statements memoized per database (sql text -> statement).
_PARSE_MEMO_SIZE = 512


@dataclass(frozen=True)
class QueryAnswer:
    """Result of one SQL query plus its cost accounting."""

    uids: np.ndarray
    value: int | None
    qpf_uses: int
    simulated_ms: float
    #: Tracer trace id when observability is enabled (``None`` otherwise);
    #: feed it to ``GET /trace/<query_id>`` or ``Tracer.trace_tree``.
    query_id: int | None = None

    @property
    def count(self) -> int:
        """Number of matching tuples."""
        return int(self.uids.size)


class EncryptedDatabase:
    """One data owner, one service provider, one (or N sharded) enclaves.

    ``qpf_workers=None`` (default) runs the classic single trusted
    machine.  Any positive count swaps in a
    :class:`~repro.edbms.qpf.QPFShardPool` of that many in-process
    worker enclaves: answers and
    ``qpf_uses`` are bit-identical to serial at any worker count, while
    the counter's ``parallel_wall_*`` twins record the critical path.
    ``qpf_latency`` optionally attaches a
    :class:`~repro.edbms.qpf.CrossingLatency` emulation to every
    enclave crossing (serial or pooled) for wall-clock studies.
    """

    def __init__(self, seed: int | None = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 qpf_workers: int | None = None,
                 qpf_latency: CrossingLatency | None = None,
                 qpf_min_shard_tuples: int | None = None,
                 column_cache_bytes: int | None = None):
        key = generate_key(seed)
        self.owner = DataOwner(key=key)
        self.counter = CostCounter()
        self._trusted_machine = build_trusted_machine(
            key, self.counter, qpf_workers, qpf_latency,
            qpf_min_shard_tuples, column_cache_bytes)
        self.qpf = QueryProcessingFunction(self._trusted_machine)
        self.server = ServiceProvider(self.qpf)
        self.cost_model = cost_model
        self._seed = seed
        self.durability = None
        self.recovery_stats = None
        self.tracer = None
        self.metrics = None
        #: Cost-based planner: owns the DO-side trapdoor memo, the live
        #: cost estimator and the fingerprint-validated plan cache.
        self.planner = Planner(self.owner, self.server, self.counter)
        # sql text -> parsed statement.  Returning the *same* immutable
        # statement object for repeated SQL lets the plan-cache key
        # compare by identity, so steady-state dispatch skips both the
        # tokenizer and a structural statement comparison.
        self._parse_cache: "OrderedDict[str, SelectStatement]" = \
            OrderedDict()
        self._parse_lock = threading.Lock()
        self._closed = False
        #: Serving-layer attachments (session managers / query servers)
        #: drained before teardown — see :meth:`close`.
        self._serving: list = []
        #: Plan-outcome tracking (``None`` until
        #: :meth:`enable_outcomes`): the in-memory aggregate store, the
        #: optional durable ledger and the injectable atom clock.
        self.outcomes: OutcomeStore | None = None
        self._ledger: PlanOutcomeLedger | None = None
        self._outcome_clock = time.time

    # -- observability ------------------------------------------------------- #

    def enable_observability(self, trace_capacity: int = 4096,
                             registry: MetricsRegistry | None = None
                             ) -> tuple[Tracer, MetricsRegistry]:
        """Install a span tracer and a metrics registry on this database.

        Both handles are published on the shared :class:`CostCounter`
        (instance attributes shadowing the ``None`` class defaults), so
        every layer that already holds the counter — PRKB pipelines, the
        batcher, the shard pool, WAL writers, recovery — starts emitting
        spans/metrics with no further wiring.  Until this is called, the
        instrumented hot paths cost one ``is None`` test and allocate
        nothing.  Like every ``enable_*`` it attaches once and lives
        until :meth:`close`: a repeat call returns the same handles.
        """
        if self.tracer is not None:
            return self.tracer, self.metrics
        self.tracer = Tracer(capacity=trace_capacity)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.counter.tracer = self.tracer
        self.counter.metrics = self.metrics
        self._register_metrics(self.metrics)
        self._bind_metrics(self.outcomes, self._ledger, *self._serving)
        return self.tracer, self.metrics

    def _bind_metrics(self, *parts) -> None:
        """Point ``parts`` (outcome store, ledger, serving attachments;
        ``None`` entries are skipped) at the registry, if there is one.
        Called both when a part attaches and when observability is
        enabled, so the call order never decides what is metered."""
        if self.metrics is not None:
            for part in parts:
                bind = getattr(part, "bind_metrics", None)
                if bind is not None:
                    bind(self.metrics)

    def _register_metrics(self, registry: MetricsRegistry) -> None:
        """Mirror the live counter into callback gauges + derived series."""
        counter = self.counter
        server = self.server
        for spec in fields(counter):
            registry.gauge(
                f"repro_{spec.name}",
                f"live CostCounter.{spec.name} for this database",
                callback=lambda name=spec.name: getattr(counter, name))

        def _ratio(hits, misses):
            total = hits + misses
            return hits / total if total else 0.0

        registry.gauge(
            "repro_predicate_cache_hit_ratio",
            "trusted-machine predicate LRU: hits / lookups",
            callback=lambda: _ratio(counter.predicate_cache_hits,
                                    counter.predicate_cache_misses))

        registry.gauge(
            "repro_qpf_column_cache_hit_ratio",
            "trusted-machine decrypted-column cache: hits / lookups",
            callback=lambda: _ratio(counter.column_cache_hits,
                                    counter.column_cache_misses))
        machine = self._trusted_machine
        registry.gauge(
            "repro_qpf_column_cache_resident_bytes",
            "plaintext bytes resident in reachable column caches",
            callback=lambda: machine.column_cache_stats()["resident_bytes"])
        registry.gauge(
            "repro_qpf_column_cache_budget_bytes",
            "configured decrypted-column cache byte budget",
            callback=lambda: machine.column_cache_stats()["budget_bytes"])

        def _equiv(field_name):
            return sum(getattr(index, field_name)
                       for indexes in server.all_indexes().values()
                       for index in indexes.values())

        registry.gauge("repro_equivalence_cache_hits",
                       "PRKB equivalence-cache hits across all indexes",
                       callback=lambda: _equiv("_equiv_hits"))
        registry.gauge("repro_equivalence_cache_misses",
                       "PRKB equivalence-cache misses across all indexes",
                       callback=lambda: _equiv("_equiv_misses"))
        registry.gauge(
            "repro_equivalence_cache_hit_ratio",
            "PRKB equivalence cache: hits / lookups",
            callback=lambda: _ratio(_equiv("_equiv_hits"),
                                    _equiv("_equiv_misses")))
        registry.histogram("repro_query_latency_seconds",
                           "wall time of EncryptedDatabase.query calls")
        registry.histogram("repro_plan_estimate_error_ratio",
                           "(actual+1)/(estimated+1) QPF per query",
                           buckets=DEFAULT_RATIO_BUCKETS)
        # Planner telemetry: pre-register so /metrics shows the series
        # (at zero) before the first planned query after enabling.
        for name in PLAN_METRICS:
            plan_metric(registry, name)

    def observability_endpoint(self) -> "ObservabilityEndpoint":
        """An HTTP-ready introspection surface for this database.

        ``GET /metrics``, ``/metrics.json``, ``/trace/<query_id>``,
        ``/health``, ``/outcomes`` and ``/tenants`` — see
        :class:`~repro.edbms.server.ObservabilityEndpoint`.
        Call :meth:`enable_observability` first for metrics and traces,
        :meth:`enable_outcomes` for the outcome/tenant reports
        (``/health`` works regardless).
        """
        return ObservabilityEndpoint(self.server, tracer=self.tracer,
                                     registry=self.metrics,
                                     outcomes=self.outcomes)

    # -- plan outcomes -------------------------------------------------------- #

    def enable_outcomes(self, path=None, *, fsync="off",
                        rotate_bytes: int = 4 << 20, max_segments: int = 8,
                        slo: SLOTarget | None = None,
                        store: OutcomeStore | None = None,
                        clock=None) -> OutcomeStore:
        """Start recording one knowledge atom per executed query.

        Every :meth:`query` / session query / :meth:`explain_analyze`
        then feeds an :class:`~repro.obs.OutcomeStore` (per-fingerprint
        error statistics, per-tenant SLO percentiles, learned correction
        factors).  With ``path`` set, atoms are also appended to a
        durable :class:`~repro.obs.PlanOutcomeLedger` there —
        ``fsync`` / ``rotate_bytes`` / ``max_segments`` are the ledger's
        knobs (the fsync grammar is the WAL's).  ``slo`` overrides the
        default per-tenant target; ``store`` supplies a pre-seeded
        store; ``clock`` injects the atom timestamp source (a callable,
        for deterministic tests).  Recording is pure post-execution
        bookkeeping: it spends no QPF and never changes planning —
        estimates only move when :meth:`apply_corrections` is called
        explicitly.  Attaches once: a repeat call returns the live
        store and changes nothing.
        """
        if self.outcomes is not None:
            return self.outcomes
        self.outcomes = store if store is not None else OutcomeStore(slo=slo)
        if path is not None:
            self._ledger = PlanOutcomeLedger(
                path, fsync=fsync, rotate_bytes=rotate_bytes,
                max_segments=max_segments)
        if clock is not None:
            self._outcome_clock = clock
        self._bind_metrics(self.outcomes, self._ledger)
        return self.outcomes

    @property
    def ledger(self) -> PlanOutcomeLedger | None:
        """The durable plan-outcome ledger (``None`` when memory-only)."""
        return self._ledger

    def apply_corrections(self, corrections: dict | None = None) -> dict:
        """Load learned per-step correction factors into the estimator.

        ``corrections=None`` pulls them from the live outcome store
        (:meth:`~repro.obs.OutcomeStore.corrections`); an explicit dict
        (e.g. from a ledger replayed elsewhere) is used as-is, and an
        empty one restores the uncorrected analytic model.  The plan
        cache is invalidated — corrections change estimates without
        touching catalog fingerprints, so stale plans cannot be
        revalidated away.  Sessions created *after* this call inherit
        the factors; the returned dict is what was installed.
        """
        if corrections is None:
            if self.outcomes is None:
                raise RuntimeError(
                    "no outcome store; call enable_outcomes() first or "
                    "pass corrections explicitly")
            corrections = self.outcomes.corrections()
        corrections = dict(corrections)
        self.planner.estimator.corrections = corrections or None
        self.planner.invalidate_plans()
        return corrections

    def enable_hybrid(self, budget=None):
        """Turn on scheme-adaptive hybrid execution (Enc²DB direction).

        The planner then ranks every residual predicate across the full
        scheme registry — PRKB, linear scan, OPE compare, Log-SRC-i
        probe, MPC share — by corrected cost estimate, admitting only
        candidates whose RPOI leakage fits ``budget``
        (a :class:`~repro.plan.schemes.SecurityBudget`, a bare
        ``max_rpoi`` float, or ``None`` for unconstrained).  Artifacts
        (OPE columns, SRC structures, share tables + PRKB-over-shares
        chains) are materialized lazily and version-keyed by the
        :class:`~repro.edbms.hybrid.HybridMaterializer`, which is
        shared with tenant sessions; returns the database's
        :class:`~repro.plan.schemes.HybridDispatch`.

        Hybrid is strictly opt-in: without this call, planning and
        execution are bit-identical to the pure PRKB-vs-scan dispatch.
        Once on it stays on, and the leakage ledger is never reset: a
        repeat call with the same budget returns the same dispatch, a
        different budget is accepted only while no RPOI has been spent
        and raises afterwards.
        """
        from .hybrid import HybridMaterializer

        budget = SecurityBudget.coerce(budget)
        current = self.planner.hybrid
        if current is None:
            materializer = HybridMaterializer(
                self.owner, self.server, self.counter, seed=self._seed)
        elif current.budget == budget:
            return current
        elif current.ledger.snapshot():
            raise RuntimeError(
                f"leakage already spent under {current.budget}; the "
                f"budget cannot change to {budget} on a live database")
        else:
            materializer = current.materializer
        dispatch = HybridDispatch(materializer, budget)
        self.planner.hybrid = dispatch
        self.planner.invalidate_plans()
        return dispatch

    @property
    def hybrid(self):
        """The active :class:`~repro.plan.schemes.HybridDispatch`
        (``None`` until :meth:`enable_hybrid`)."""
        return self.planner.hybrid

    def scheme_stats(self) -> dict:
        """Per-scheme QPF attribution tallies (hybrid executions only)."""
        hybrid = self.planner.hybrid
        return {} if hybrid is None else hybrid.materializer.scheme_stats()

    # -- durability ---------------------------------------------------------- #

    @classmethod
    def open(cls, path, seed: int | None = None, *, fsync="always",
             faults=None, **kwargs) -> "EncryptedDatabase":
        """Open (or create) a *durable* database rooted at ``path``.

        On a fresh directory this requires an explicit ``seed`` (the
        data owner's key must be reproducible across restarts) and
        initialises the on-disk manifest.  On a directory that already
        holds a database, the manifest's seed is used (a conflicting
        explicit ``seed`` raises) and crash recovery runs before the
        instance is returned — checkpoints are restored, WAL tails
        replayed, orphans repaired, and ``recovery_stats`` reports what
        happened.  ``fsync`` picks the WAL flush policy (``"always"``,
        ``"every:N"`` or ``"off"``); ``faults`` is the test harness's
        :class:`~repro.edbms.durability.faults.FaultInjector`.
        """
        from .durability import DurabilityManager

        probe = DurabilityManager(path, fsync=fsync)
        if probe.has_state():
            manifest = probe.load_manifest()
            if seed is not None and seed != manifest["seed"]:
                raise ValueError(
                    f"{path} was created with seed {manifest['seed']}, "
                    f"got {seed}")
            seed = manifest["seed"]
        elif seed is None:
            raise ValueError(
                "a fresh durable database needs an explicit seed")
        database = cls(seed=seed, **kwargs)
        manager = DurabilityManager(path, fsync=fsync,
                                    counter=database.counter,
                                    faults=faults)
        database._attach_durability(manager)
        if manager.has_state():
            database.recover()
        else:
            manager.init_manifest(seed)
        return database

    def _attach_durability(self, manager) -> None:
        self.durability = manager
        manager.counter = self.counter
        self.server.attach_durability(manager)

    def recover(self):
        """Run crash recovery against the attached durable directory."""
        from .durability import RecoveryManager

        if self.durability is None:
            raise RuntimeError("database is not durable; use open()")
        self.recovery_stats = RecoveryManager(self.durability, self.server,
                                              self.qpf).recover()
        return self.recovery_stats

    def checkpoint(self) -> None:
        """Checkpoint every table and index; truncates all WALs."""
        if self.durability is None:
            raise RuntimeError("database is not durable; use open()")
        self.durability.checkpoint_all(self.server)

    def close(self) -> None:
        """Flush durable state and release pooled workers (idempotent).

        Serving attachments (session managers, query servers — anything
        registered via :meth:`_attach_serving`) are drained *first*, so
        in-flight queries finish against a live database before the
        durability manager flushes and the enclave pool is released.
        A second ``close()`` — or a close racing another close — is a
        no-op.
        """
        with self._parse_lock:
            if self._closed:
                return
            self._closed = True
        for attached in reversed(self._serving):
            attached.close()
        self._serving.clear()
        # The ledger closes after the serving drain (in-flight queries
        # still append atoms) and before durability teardown.
        if self._ledger is not None:
            self._ledger.close()
        if self.durability is not None:
            self.durability.close()
        close = getattr(self._trusted_machine, "close", None)
        if close is not None:
            close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun (new queries should be refused)."""
        return self._closed

    def _attach_serving(self, attachment) -> None:
        """Register a serving-layer object to be drained by :meth:`close`.

        ``attachment`` needs a ``close()`` that blocks until its
        in-flight work has finished; attachments close in reverse
        registration order (servers before the session manager they
        dispatch into).  One that has a ``bind_metrics(registry)`` is
        handed the metrics registry now, or when observability is
        enabled later.
        """
        self._serving.append(attachment)
        self._bind_metrics(attachment)

    def column_cache_stats(self) -> dict:
        """Decrypted-column cache statistics of the trusted machine.

        For a shard pool this sums over the worker caches.
        """
        return self._trusted_machine.column_cache_stats()

    # -- schema / data ------------------------------------------------------ #

    def create_table(self, name: str, domains: dict[str, tuple[int, int]],
                     data: dict[str, np.ndarray]) -> None:
        """Declare, encrypt and upload a table in one step."""
        schema = Schema(tuple(
            AttributeSpec(attr, lo, hi) for attr, (lo, hi) in domains.items()
        ))
        table = PlainTable(name=name, schema=schema,
                           columns={k: np.asarray(v) for k, v in
                                    data.items()})
        encrypted = self.owner.encrypt_table(table)
        self.server.register_table(encrypted)

    def enable_prkb(self, table: str, attributes: list[str],
                    max_partitions: int | None = None) -> None:
        """Ask the SP to initialise PRKB on the given attributes."""
        self.server.build_indexes(table, attributes, max_partitions,
                                  self._seed)

    def enable_audit(self):
        """Attach a server-side audit log; returns the live log.

        See :mod:`repro.edbms.audit` — entries record server-visible
        facts only (attributes, result sizes, cost deltas).
        """
        from .audit import attach_audit_log
        return attach_audit_log(self.server)

    # -- updates ------------------------------------------------------------ #

    def insert(self, table: str, rows: dict[str, np.ndarray]) -> np.ndarray:
        """INSERT plaintext rows (DO encrypts, SP stores + indexes)."""
        receipt = self.server.updater(table).insert_plain(self.owner.key,
                                                          rows)
        return receipt.uids

    def delete(self, table: str, uids: np.ndarray) -> None:
        """DELETE rows by uid."""
        self.server.updater(table).delete(uids)

    # -- querying ------------------------------------------------------------ #

    def _parse(self, sql: str) -> SelectStatement:
        """Memoized :func:`parse_select` (statements are immutable).

        Repeated SQL skips tokenization entirely and returns the same
        statement object, which the plan cache then matches by identity.
        """
        with self._parse_lock:
            memo = self._parse_cache
            statement = memo.get(sql)
            if statement is None:
                statement = parse_select(sql)
                memo[sql] = statement
                while len(memo) > _PARSE_MEMO_SIZE:
                    memo.popitem(last=False)
            return statement

    def query(self, sql: str, strategy: str = "auto") -> QueryAnswer:
        """Parse, plan and execute one SELECT statement.

        ``strategy`` constrains the planner's dispatch: ``"auto"``
        (cost-based adaptive choice; PRKB(MD) when two or more
        fully-bounded indexed dimensions exist), ``"md"``, ``"sd+"``, or
        ``"baseline"`` (ignore PRKB entirely).  Planning spends no QPF
        and is cached per normalized statement; see
        :class:`repro.plan.Planner`.
        """
        return self._query_with(self.planner, sql, strategy)

    def _query_with(self, planner: Planner, sql: str,
                    strategy: str = "auto",
                    tenant: str | None = None) -> QueryAnswer:
        """Parse/plan/execute through a specific planner.

        ``planner`` is this database's own for :meth:`query`; serving
        sessions pass their per-tenant planner (built over an isolated
        namespace) so tenants never share plan caches or indexes.
        ``tenant`` labels the query's knowledge atom when outcome
        tracking is enabled (``None`` records as ``"local"``).
        """
        plan, uids, value, spent, wall, query_id = self._run(
            planner, sql, strategy, "query")
        return self._finish(planner, plan, sql, uids, value, spent, wall,
                            query_id, tenant)

    def _run(self, planner: Planner, sql: str, strategy: str,
             span_name: str, audit: list | None = None):
        """The one statement path: every entry point (:meth:`query`,
        session queries, :meth:`explain_analyze`) runs
        :meth:`_run_statement`, inside a ``span_name`` span when a
        tracer is installed.  Returns ``(plan, uids, value, spent,
        wall_seconds, query_id)``."""
        tracer = self.counter.tracer
        if tracer is None:
            return (*self._run_statement(planner, sql, strategy, audit),
                    None)
        # Planning runs inside the span so the planner's
        # ``plan.fingerprint`` child lands in the same trace.
        with tracer.span(span_name, sql=sql, strategy=strategy) as span:
            plan, uids, value, spent, wall = self._run_statement(
                planner, sql, strategy, audit)
            # Totals go in attrs, not cost: span costs stay exclusive
            # (phase spans below already own every QPF use).
            span.set(qpf_uses=spent.qpf_uses,
                     qpf_roundtrips=spent.qpf_roundtrips,
                     rows=int(uids.size))
            return plan, uids, value, spent, wall, span.trace_id

    def _run_statement(self, planner: Planner, sql: str, strategy: str,
                       audit: list | None):
        """parse → plan → execute in one :meth:`CostCounter.measure`
        scope: ``spent`` holds exactly the calling thread's charges, so
        per-statement cost is exact whether or not sibling threads are
        charging the same counter."""
        start = time.perf_counter()
        statement = self._parse(sql)
        with self.counter.measure() as spent:
            plan = planner.plan(statement, strategy)
            uids, value = plan.execute(planner.execution_context(audit))
        return plan, uids, value, spent, time.perf_counter() - start

    def _finish(self, planner: Planner, plan, sql: str, uids, value,
                spent: CostCounter, wall: float, query_id, tenant,
                step_actuals=None) -> QueryAnswer:
        """What every executed statement leaves behind, once: strategy
        tallies (and hybrid leakage charges), the latency and
        estimate-error histograms, one knowledge atom — and the answer.
        """
        planner.record_execution(plan)
        metrics = self.counter.metrics
        if metrics is not None:
            metrics.histogram("repro_query_latency_seconds").observe(wall)
            metrics.histogram(
                "repro_plan_estimate_error_ratio",
                buckets=DEFAULT_RATIO_BUCKETS,
            ).observe((spent.qpf_uses + 1) / (plan.estimated_qpf + 1))
        store = self.outcomes
        if store is not None:
            atom = build_atom(
                table=plan.statement.table, strategy=plan.strategy,
                steps=plan.steps, sql_hash=statement_hash(sql),
                tenant=tenant or "local",
                estimated_qpf=plan.estimated_qpf,
                actual_qpf=spent.qpf_uses, wall_ms=wall * 1e3,
                rows=int(uids.size), ts=self._outcome_clock(),
                step_actuals=step_actuals)
            ledger = self._ledger
            if ledger is not None and not ledger.closed:
                ledger.append(atom)
            store.ingest(atom)
        return QueryAnswer(
            uids=uids, value=value, qpf_uses=spent.qpf_uses,
            simulated_ms=self.cost_model.simulated_millis(spent),
            query_id=query_id)

    def execute_many(self, statements: list[str], strategy: str = "auto",
                     window: int | None = None) -> list[QueryAnswer]:
        """Execute a burst of SELECTs, sharing enclave roundtrips.

        Single-predicate comparison selections (with ``*`` or
        ``COUNT(*)`` projections) on the same table are coalesced
        through :meth:`ServiceProvider.answer_batch`: their PRKB
        pipelines advance in lock step, so each step costs one roundtrip
        for the whole burst instead of one per query, and duplicate
        predicates are answered once.  Everything else (aggregates,
        BETWEEN, multi-condition, ``strategy="baseline"``) runs through
        the serial :meth:`query` path.  Answers come back in statement
        order; ``simulated_ms`` for coalesced queries charges the
        query's logical QPF uses plus its fractional share of the
        shared roundtrips.
        """
        parsed = [self._parse(sql) for sql in statements]
        answers: list[QueryAnswer | None] = [None] * len(statements)
        batchable: dict[str, list[tuple[int, SelectStatement]]] = {}
        for position, statement in enumerate(parsed):
            if (strategy != "baseline"
                    and statement.projection in ("*", ("count",))
                    and len(statement.conditions) == 1
                    and isinstance(statement.conditions[0],
                                   ComparisonCondition)):
                batchable.setdefault(statement.table, []).append(
                    (position, statement))
            else:
                answers[position] = self.query(statements[position],
                                               strategy=strategy)
        for table, group in batchable.items():
            probe = self.planner.plan_batch(
                table, [statement for __, statement in group])
            batch = probe.execute(self.planner.execution_context(),
                                  window=window)
            self.planner.record_batch(table, len(group))
            for (position, _), answer in zip(group, batch):
                logical = CostCounter(qpf_uses=answer.qpf_uses,
                                      tuples_retrieved=answer.qpf_uses)
                millis = (self.cost_model.simulated_millis(logical)
                          + answer.roundtrip_share
                          * self.cost_model.roundtrip_cost * 1e3)
                answers[position] = QueryAnswer(
                    uids=answer.winners,
                    value=None,
                    qpf_uses=answer.qpf_uses,
                    simulated_ms=millis,
                    query_id=answer.trace_id,
                )
        return answers  # type: ignore[return-value]

    def explain(self, sql: str, strategy: str = "auto") -> QueryPlan:
        """Describe how a statement would be planned, without running it.

        Cost estimates use the PRKB model of Sec. 5/6: an indexed
        comparison costs ~``2·(2n/k) + log2 k`` QPF uses (two NS-pair
        scans plus the binary search), an unindexed one costs ``n``.
        """
        return self.planner.plan(self._parse(sql), strategy).query_plan()

    def explain_analyze(self, sql: str,
                        strategy: str = "auto") -> PlanAnalysis:
        """EXPLAIN ANALYZE: plan the statement, run it, annotate each
        plan step with the QPF it actually consumed and its wall time.

        Execution is the real thing — indexes refine, caches fill — so
        a repeated ``explain_analyze`` shows both the warmed plan
        (``cached`` steps) and the warmed actuals.  The overall
        ``(actual+1)/(estimated+1)`` ratio lands in the
        ``repro_plan_estimate_error_ratio`` histogram when metrics are
        enabled.  QPF spent outside the planned steps (e.g. aggregate
        resolution after a filtered MIN/MAX) is reported as a trailing
        synthetic step so the per-step actuals always sum to the total.
        """
        audit: list[tuple[tuple[str, ...], int, float]] = []
        physical, uids, value, spent, wall, query_id = self._run(
            self.planner, sql, strategy, "explain_analyze", audit)
        wall_ms = wall * 1e3
        steps = []
        for position, step in enumerate(physical.steps):
            if position < len(audit):
                __, qpf, seconds = audit[position]
                steps.append(StepAnalysis(step, qpf, seconds * 1e3))
            else:
                # Planned but never executed (e.g. a prior step emptied
                # the candidate set) — actuals are genuinely zero.
                steps.append(StepAnalysis(step, 0, 0.0))
        # The audit gives exact per-step actuals, so even multi-step
        # plans yield an *exact* atom the corrector can learn from.
        answer = self._finish(
            self.planner, physical, sql, uids, value, spent, wall,
            query_id, None, step_actuals=[s.actual_qpf for s in steps])
        residual = spent.qpf_uses - sum(s.actual_qpf for s in steps)
        if residual:
            steps.append(StepAnalysis(
                PlanStep("aggregate-resolve", ("*",), False, None, 0),
                residual, max(0.0, wall_ms - sum(s.wall_ms for s in steps))))
        return PlanAnalysis(plan=physical.query_plan(), steps=tuple(steps),
                            answer=answer)

    # -- result materialisation (DO side) ------------------------------------ #

    def fetch_rows(self, table: str, uids: np.ndarray) -> dict[str, list]:
        """Materialise result rows from the DO's retained plaintext."""
        plain = self.owner.plain_table(table)
        rows: dict[str, list] = {attr: [] for attr in plain.schema.names}
        for uid in np.asarray(uids).ravel():
            for attr in plain.schema.names:
                rows[attr].append(plain.value_of(int(uid), attr))
        return rows
