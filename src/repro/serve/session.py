"""Per-tenant sessions over one encrypted database.

A :class:`Session` is a tenant's handle on the shared
:class:`~repro.edbms.engine.EncryptedDatabase`.  Physical state — the
encrypted tables, the trusted machine with its predicate and column
caches — is shared by reference; *query-history* state is private per
tenant:

* a :class:`TenantNamespace` (a :class:`~repro.edbms.server.
  ServiceProvider` over the same tables with its own PRKB indexes, so
  one tenant's refinements and equivalence caches never reflect another
  tenant's predicates — the PRKB knowledge base is literally "past
  result knowledge", which is tenant data);
* a private :class:`~repro.plan.Planner` (trapdoor memo + plan cache),
  shared by every worker thread serving that tenant.

Per-tenant index seeds derive exactly like
:meth:`EncryptedDatabase.enable_prkb` (``db_seed + attribute_position``),
so a tenant's query stream refines its chain bit-identically to the
same stream against a fresh single-tenant database — that is what makes
the concurrent-parity suite's winner and QPF equality exact.

Cross-statement coordination uses one :class:`~repro.core.locks.
SnapshotLock` *statement gate* per table: plain selections (at most one
comparison predicate, no aggregate) take the shared side and run fully
concurrently; compound statements (BETWEEN, multi-predicate grids,
aggregates) take the exclusive side, because their multi-index plans
must observe one consistent chain generation across indexes.  Per-index
snapshot locking below this gate keeps each individual index safe
regardless.
"""

from __future__ import annotations

import threading

from ..core.locks import SnapshotLock
from ..edbms.server import ServiceProvider
from ..edbms.sql import ComparisonCondition
from ..plan import Planner
from ..plan.schemes import HybridDispatch, SecurityBudget

__all__ = ["Session", "SessionManager", "TenantNamespace"]


class TenantNamespace(ServiceProvider):
    """A tenant-private PRKB namespace over shared encrypted tables.

    ``_tables`` is the *same dict object* as the base server's (tables
    registered later are visible immediately); ``_indexes`` is private.
    Physical operators and processors only reach state through
    ``ctx.server`` lookups (``table`` / ``index`` / ``has_index``), so
    substituting this namespace as a planner's server is all the
    isolation needed.
    """

    def __init__(self, base: ServiceProvider, tenant: str):
        self.qpf = base.qpf
        self.tenant = tenant
        self.base = base
        self._tables = base._tables  # shared by reference, on purpose
        self._indexes = {name: {} for name in base._tables}
        self._durability = None  # tenant namespaces are ephemeral
        self._index_mirrors: list[ServiceProvider] = []
        # Base inserts/deletes must land in the tenant's private
        # indexes too, or the tenant's view of shared tables goes
        # stale; SessionManager unregisters on session release.
        base.register_index_mirror(self)

    def build_index(self, table_name, attribute, **kwargs):
        self._indexes.setdefault(table_name, {})
        return super().build_index(table_name, attribute, **kwargs)


class Session:
    """One tenant's query handle; safe to share across worker threads.

    Obtained from :meth:`SessionManager.session`.  ``query`` parses,
    plans and executes through the tenant's private planner with
    thread-exact cost accounting
    (:meth:`~repro.edbms.costs.CostCounter.measure`), under the owning
    manager's statement gates.
    """

    def __init__(self, manager: "SessionManager", tenant: str,
                 namespace: ServiceProvider, planner: Planner):
        self.manager = manager
        self.tenant = tenant
        self.namespace = namespace
        self.planner = planner
        self.queries_served = 0
        self.closed = False
        self._lock = threading.Lock()

    def enable_prkb(self, table: str, attributes: list[str],
                    max_partitions: int | None = None) -> None:
        """Build tenant-private PRKB indexes, seeded from the database
        seed exactly like
        :meth:`~repro.edbms.engine.EncryptedDatabase.enable_prkb`, so a
        tenant's refinement trajectory is bit-identical to the
        single-tenant equivalent."""
        self.namespace.build_indexes(table, attributes, max_partitions,
                                     self.manager.db._seed)

    def query(self, sql: str, strategy: str = "auto"):
        """Run one SELECT in this tenant's namespace; thread-safe."""
        return self.manager._run(self, sql, strategy)

    def close(self) -> None:
        """Release the session (idempotent); later queries raise."""
        self.manager._release(self)


class SessionManager:
    """Issues and tracks per-tenant sessions; drains before close.

    One per database.  Registers itself via
    ``EncryptedDatabase._attach_serving`` so ``db.close()`` first waits
    for every in-flight session query to finish (new queries are
    refused during the drain), then tears the engine down.

    ``isolate=False`` sessions share the database's own server and
    planner instead of a private namespace — useful when tenants are
    trusted to pool their query knowledge (refinements compound across
    tenants, answers stay correct; per-query QPF then depends on the
    interleaving).
    """

    def __init__(self, db):
        self.db = db
        self._sessions: dict[str, Session] = {}
        self._gates: dict[str, SnapshotLock] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self._draining = False
        db._attach_serving(self)

    # -- session lifecycle -------------------------------------------- #

    def session(self, tenant: str, isolate: bool = True,
                budget=None) -> Session:
        """The (get-or-create) session for ``tenant``.

        ``budget`` sets a per-tenant
        :class:`~repro.plan.schemes.SecurityBudget` (or bare
        ``max_rpoi`` float) for hybrid dispatch: the tenant's planner
        gets a private leakage ledger over the database's *shared*
        artifact materializer, so already-paid OPE columns are reused
        while each tenant's cumulative RPOI is metered independently.
        Requires ``db.enable_hybrid()`` first (only checked when a
        budget is requested); ignored for existing sessions.
        """
        with self._lock:
            if self._draining:
                raise RuntimeError("session manager is closed")
            existing = self._sessions.get(tenant)
            if existing is not None:
                return existing
            if isolate:
                namespace: ServiceProvider = TenantNamespace(
                    self.db.server, tenant)
                planner = Planner(self.db.owner, namespace,
                                  self.db.counter)
                # Learned cost corrections are database-wide knowledge
                # (keyed by table|kind|attributes, not by tenant), so a
                # fresh tenant planner inherits them.
                planner.estimator.corrections = \
                    self.db.planner.estimator.corrections
                db_hybrid = self.db.planner.hybrid
                if budget is not None or db_hybrid is not None:
                    planner.hybrid = self._tenant_hybrid(budget, db_hybrid)
            else:
                namespace = self.db.server
                planner = self.db.planner
            session = Session(self, tenant, namespace, planner)
            self._sessions[tenant] = session
            return session

    def _tenant_hybrid(self, budget, db_hybrid):
        """A tenant-private dispatch over the shared materializer."""
        if db_hybrid is None:
            raise RuntimeError(
                "per-tenant security budgets need hybrid execution: "
                "call db.enable_hybrid() first")
        return HybridDispatch(
            db_hybrid.materializer,
            db_hybrid.budget if budget is None
            else SecurityBudget.coerce(budget))

    def sessions(self) -> dict[str, Session]:
        """Live sessions by tenant name (snapshot copy)."""
        with self._lock:
            return dict(self._sessions)

    def _release(self, session: Session) -> None:
        with self._lock:
            session.closed = True
            if self._sessions.get(session.tenant) is session:
                del self._sessions[session.tenant]
        if session.namespace is not self.db.server:
            self.db.server.unregister_index_mirror(session.namespace)

    # -- statement gates ----------------------------------------------- #

    def _gate(self, table: str) -> SnapshotLock:
        with self._lock:
            gate = self._gates.get(table)
            if gate is None:
                gate = self._gates[table] = SnapshotLock()
            return gate

    @staticmethod
    def _is_shared(statement) -> bool:
        """Whether a statement may run under the shared gate side.

        Shared: at most one comparison predicate and no aggregate — a
        single-index selection whose snapshot semantics the per-index
        lock already guarantees.  Everything else (BETWEEN, grids,
        aggregates) reads several indexes or both chain ends and wants
        one consistent generation, so it runs exclusively.
        """
        if statement.aggregate is not None:
            return False
        if len(statement.conditions) > 1:
            return False
        return all(isinstance(condition, ComparisonCondition)
                   for condition in statement.conditions)

    # -- query dispatch ------------------------------------------------- #

    def _run(self, session: Session, sql: str, strategy: str):
        with self._lock:
            if self._draining:
                raise RuntimeError("database is closing; query refused")
            if session.closed:
                raise RuntimeError(
                    f"session for tenant {session.tenant!r} is closed")
            self._inflight += 1
        try:
            statement = self.db._parse(sql)
            gate = self._gate(statement.table)
            hold = (gate.read() if self._is_shared(statement)
                    else gate.write())
            with hold:
                answer = self.db._query_with(session.planner, sql,
                                             strategy,
                                             tenant=session.tenant)
            with session._lock:
                session.queries_served += 1
            return answer
        finally:
            with self._lock:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    # -- drain / close --------------------------------------------------- #

    @property
    def inflight(self) -> int:
        """Queries currently executing through any session."""
        with self._lock:
            return self._inflight

    def close(self, timeout: float | None = None) -> None:
        """Refuse new queries, wait for in-flight ones, drop sessions.

        Idempotent; called by ``EncryptedDatabase.close()`` before the
        durability manager flushes.  ``timeout`` bounds the drain wait
        (``None`` waits indefinitely; expiry raises ``TimeoutError``).
        """
        with self._lock:
            self._draining = True
            if not self._idle.wait_for(lambda: self._inflight == 0,
                                       timeout=timeout):
                raise TimeoutError(
                    f"{self._inflight} queries still in flight")
            sessions = list(self._sessions.values())
            for session in sessions:
                session.closed = True
            self._sessions.clear()
        for session in sessions:
            if session.namespace is not self.db.server:
                self.db.server.unregister_index_mirror(session.namespace)
