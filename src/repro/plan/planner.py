"""Cost-based planner: logical plan -> cached physical operator tree.

``Planner.plan`` is the single planning entry point for ``query``,
``explain`` and ``explain_analyze`` — all three hold the *same*
:class:`PhysicalPlan`, so rendered estimates are the estimates the
executor ran with and nothing ever plans twice.

Dispatch (per residual predicate, adaptive à la Enc2DB — one candidate
ranking, :meth:`Planner._dispatch_scheme`, whatever the strategy; with
hybrid execution on it also ranks OPE / Log-SRC-i / MPC candidates under
the leakage budget, see :mod:`repro.plan.schemes`):

* unindexed attribute → :class:`LinearScanOp` (the only legal operator);
* indexed predicate the equivalence cache already knows →
  :class:`CacheHitOp` (~0 QPF);
* otherwise PRKB vs. linear scan by estimated QPF, with the estimator's
  *refinement credit* (a growable chain is never priced above the scan,
  and ties prefer PRKB — scanning would freeze the index).  A genuinely
  degenerate index (capped chain whose model cost exceeds ``n``) loses
  to the scan: that is the adaptive win over the legacy fixed branching.

For fully-bounded dimensions the grid is taken under ``auto`` when at
least two dimensions exist *and* its estimate beats composing the same
predicates one by one (``md``/``sd+`` force it from one dimension up).

Plans are cached per ``(statement, strategy)`` and validated against a
live fingerprint (table row count + update version, per-index chain
shape via :meth:`~repro.core.prkb.PRKBIndex.plan_fingerprint`, and the
per-predicate cached bit), so PRKB refinement, table updates and
equivalence-cache churn all invalidate exactly the plans they affect.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from ..edbms.sql import BetweenCondition, SelectStatement
from .cache import PlanCache, StatementProfile
from .estimator import CostEstimator
from .logical import LogicalSelect, build_logical
from .operators import (
    AggregateOp,
    BatchProbeOp,
    CacheHitOp,
    ExecutionContext,
    GridIntersectOp,
    LinearScanOp,
    MPCShareOp,
    OPECompareOp,
    PhysicalOperator,
    PRKBSelectOp,
    SelectionRoot,
    SRCStructureOp,
)
from .report import PlanStep, QueryPlan
from .schemes import (
    MPC_KIND,
    OPE_KIND,
    SRC_KIND,
    SchemeCandidate,
    condition_cuts,
)

__all__ = ["Planner", "PhysicalPlan", "TRAPDOOR_MEMO_SIZE",
           "PLAN_CACHE_SIZE", "PLAN_METRICS", "plan_metric"]

#: DO-side LRU of sealed comparison trapdoors.  Re-asking the same
#: predicate reuses the same sealed object, which is what lets the SP's
#: equivalence cache (keyed by trapdoor serial) answer repeats in 0 QPF
#: through the SQL layer — and what makes the planner's cache-aware
#: estimate (``PlanStep.cached``) actually come true at execution time.
TRAPDOOR_MEMO_SIZE = 512

#: Physical plans retained per database, keyed ``(statement, strategy)``.
PLAN_CACHE_SIZE = 256

#: The planner's metric families, ``name -> (registry method, help,
#: label names)``.  The engine pre-registers them in this order when
#: observability is enabled (``/metrics`` shows each at zero before the
#: first planned query); the planner bumps them by name.
PLAN_METRICS = {
    "repro_plan_cache_hits_total": (
        "counter", "physical plans served from the plan cache", ()),
    "repro_plan_cache_misses_total": (
        "counter", "plan-cache misses (fresh planning runs)", ()),
    "repro_plan_cache_invalidations_total": (
        "counter", "cached plans dropped on fingerprint mismatch", ()),
    "repro_plan_fastpath_total": (
        "counter", "plan-cache hits dispatched without cost estimation",
        ()),
    "repro_plan_fingerprint_seconds": (
        "histogram", "wall time of plan-cache fingerprint checks", ()),
    "repro_plan_strategy_total": (
        "counter", "executed plan steps by dispatched strategy",
        ("strategy",)),
}


def plan_metric(registry, name: str):
    """Get-or-create the :data:`PLAN_METRICS` family ``name``."""
    kind, help_text, labels = PLAN_METRICS[name]
    return getattr(registry, kind)(name, help_text, labels)


#: Legacy paper strategies plus the scheme-forcing views: ``prkb`` and
#: ``scan`` force the paper's two pipelines per predicate; ``ope``,
#: ``src`` and ``mpc`` force the hybrid schemes (these three require
#: hybrid execution to be enabled — they need materialized artifacts).
_STRATEGIES = ("auto", "md", "sd+", "baseline",
               "prkb", "scan", "ope", "src", "mpc")
_SCHEME_STRATEGIES = ("prkb", "scan", "ope", "src", "mpc")
_HYBRID_ONLY = ("ope", "src", "mpc")

#: The operator that executes a dispatched ``PlanStep.kind``.
_STEP_OPERATORS = {
    "prkb-sd": PRKBSelectOp,
    "prkb-between": PRKBSelectOp,
    "baseline-scan": LinearScanOp,
    OPE_KIND: OPECompareOp,
    SRC_KIND: SRCStructureOp,
    MPC_KIND: MPCShareOp,
}


class PhysicalPlan:
    """One executable operator tree plus its costed steps.

    ``steps`` is what EXPLAIN renders and what the audit of EXPLAIN
    ANALYZE zips against (one audited entry per selection/aggregate-ends
    step, in execution order).  ``fingerprint`` is the catalog state the
    costs were computed from; the planner revalidates it on every cache
    hit.
    """

    __slots__ = ("statement", "strategy", "root", "steps", "fingerprint")

    def __init__(self, statement: SelectStatement, strategy: str,
                 root: SelectionRoot | AggregateOp,
                 steps: tuple[PlanStep, ...], fingerprint: tuple):
        self.statement = statement
        self.strategy = strategy
        self.root = root
        self.steps = steps
        self.fingerprint = fingerprint

    @property
    def estimated_qpf(self) -> int:
        return sum(step.estimated_qpf for step in self.steps)

    def execute(self, ctx: ExecutionContext):
        """Run the tree; returns ``(uids, aggregate_value_or_None)``."""
        if isinstance(self.root, AggregateOp):
            return self.root.execute(ctx)
        return self.root.execute(ctx), None

    def query_plan(self) -> QueryPlan:
        """The EXPLAIN view — same steps object the executor carries."""
        return QueryPlan(table=self.statement.table,
                         projection=self.statement.projection,
                         steps=self.steps)

    def render_tree(self) -> str:
        """Operator tree with per-step estimates and rejected
        alternatives — the ``repro plan`` CLI output."""
        lines = [f"SELECT {self.statement.projection} "
                 f"FROM {self.statement.table} [strategy={self.strategy}] "
                 f"~{self.estimated_qpf} QPF estimated"]

        def emit_step(op, pad: str) -> None:
            lines.append(f"{pad}-> {type(op).__name__}: {op.step.render()}")
            if op.step.alternatives:
                lines.append(f"{pad}     {op.step.render_alternatives()}")

        def emit_selection(root: SelectionRoot, pad: str) -> None:
            if not root.children:
                lines.append(f"{pad}-> FullTable({root.table}): "
                             f"all uids, 0 QPF")
                return
            if len(root.children) > 1:
                lines.append(f"{pad}-> Intersect"
                             f"[{len(root.children)} inputs]")
                pad += "   "
            for child in root.children:
                emit_step(child, pad)

        root = self.root
        if isinstance(root, AggregateOp):
            note = (root.step.render() if root.step is not None
                    else "resolve over selection winners")
            lines.append(f"  -> AggregateOp {root.func}"
                         f"({root.attribute}): {note}")
            if root.child is not None:
                emit_selection(root.child, "     ")
        else:
            emit_selection(root, "  ")
        return "\n".join(lines)


class Planner:
    """Owns the trapdoor memo, the cost estimator and the plan cache."""

    def __init__(self, owner, server, counter):
        self.owner = owner
        self.server = server
        self.counter = counter
        self._trapdoor_memo: OrderedDict = OrderedDict()
        self._plan_cache = PlanCache(PLAN_CACHE_SIZE)
        self.estimator = CostEstimator(server, self._trapdoor_memo.get)
        self.strategy_counts: dict[str, int] = {}
        #: Hybrid dispatch state (``repro.plan.schemes.HybridDispatch``)
        #: or ``None`` — the default, which keeps planning bit-identical
        #: to the pure PRKB-vs-scan dispatch.  Set via
        #: ``EncryptedDatabase.enable_hybrid`` (callers must
        #: ``invalidate_plans`` when flipping it).
        self.hybrid = None
        # Guards the trapdoor memo and strategy tallies when worker
        # threads share one planner (the serving fast path); the plan
        # cache carries its own lock.
        self._memo_lock = threading.RLock()

    # Python-side telemetry, owned by the cache (mirrored into the
    # metrics registry when observability is enabled; always available
    # to tests/CLI, and settable so benches can reset between passes).

    @property
    def cache_hits(self) -> int:
        return self._plan_cache.hits

    @cache_hits.setter
    def cache_hits(self, value: int) -> None:
        self._plan_cache.hits = value

    @property
    def cache_misses(self) -> int:
        return self._plan_cache.misses

    @cache_misses.setter
    def cache_misses(self, value: int) -> None:
        self._plan_cache.misses = value

    @property
    def cache_invalidations(self) -> int:
        return self._plan_cache.invalidations

    @cache_invalidations.setter
    def cache_invalidations(self, value: int) -> None:
        self._plan_cache.invalidations = value

    # -- DO-side trapdoor memo -------------------------------------------- #

    def seal_comparison(self, attribute: str, operator: str,
                        constant: int):
        """Seal (or reuse) the trapdoor for ``attribute op constant``.

        A DO-side LRU: re-asking a predicate returns the *same* sealed
        object, so the SP's serial-keyed equivalence cache can answer
        the repeat in 0 QPF.  Capped at :data:`TRAPDOOR_MEMO_SIZE`.
        """
        key = (attribute, operator, constant)
        with self._memo_lock:
            memo = self._trapdoor_memo
            trapdoor = memo.get(key)
            if trapdoor is None:
                trapdoor = self.owner.comparison_trapdoor(
                    attribute, operator, constant)
                memo[key] = trapdoor
                while len(memo) > TRAPDOOR_MEMO_SIZE:
                    memo.popitem(last=False)
            else:
                memo.move_to_end(key)
            return trapdoor

    # -- planning entry points -------------------------------------------- #

    def plan(self, statement: SelectStatement,
             strategy: str = "auto") -> PhysicalPlan:
        """The cached physical plan for ``(statement, strategy)``.

        Cache hits revalidate the stored fingerprint against the live
        catalog; any index refinement, table update or equivalence-cache
        change since planning evicts and replans.
        """
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; "
                             f"expected one of {_STRATEGIES}")
        if strategy in _HYBRID_ONLY and self.hybrid is None:
            raise RuntimeError(
                f"strategy {strategy!r} requires hybrid execution "
                f"(EncryptedDatabase.enable_hybrid)")
        cache = self._plan_cache
        profile = cache.profile(statement)
        counter = self.counter
        if counter.tracer is None and counter.metrics is None:
            fingerprint = self._profile_fingerprint(profile)
        else:
            fingerprint = self._observed_fingerprint(profile)
        if self.hybrid is not None:
            fingerprint = fingerprint + self.hybrid.fingerprint_parts(
                profile.table, profile.attributes)
        invalidations = cache.invalidations
        cached = cache.lookup((statement, strategy), fingerprint)
        if cached is not None:
            self._bump("repro_plan_cache_hits_total")
            self._bump("repro_plan_fastpath_total")
            return cached
        if cache.invalidations != invalidations:
            self._bump("repro_plan_cache_invalidations_total")
        self._bump("repro_plan_cache_misses_total")
        plan = self._build(statement, strategy, fingerprint)
        cache.insert((statement, strategy), plan)
        return plan

    def plan_batch(self, table: str,
                   statements: list[SelectStatement]) -> BatchProbeOp:
        """A coalesced probe for single-comparison statements on one
        table (the ``execute_many`` fast path)."""
        return BatchProbeOp(table, tuple(
            statement.conditions[0] for statement in statements))

    def invalidate_plans(self) -> None:
        """Drop every cached physical plan (and statement profile).

        Needed when the cost model itself changes under the cache —
        loading or clearing estimator corrections alters estimates
        without touching any catalog fingerprint, so revalidation alone
        would keep serving pre-correction plans.
        """
        self._plan_cache = PlanCache(PLAN_CACHE_SIZE)

    def record_execution(self, plan: PhysicalPlan) -> None:
        """Count the dispatched strategies of one executed plan (and
        charge its leakage under hybrid dispatch)."""
        for step in plan.steps:
            self._count_strategy(step.kind, 1)
        if self.hybrid is not None:
            self.hybrid.charge_execution(plan.statement.table, plan.steps)

    def record_batch(self, table: str, count: int) -> None:
        """Strategy attribution for the coalesced ``execute_many``
        path: ``count`` single-comparison statements answered by one
        :class:`BatchProbeOp` carry no per-statement plan steps, so the
        batch dispatcher labels them here — every dispatch path feeds
        ``repro_plan_strategy_total{strategy}``."""
        if count > 0:
            self._count_strategy("batch-probe", count)

    def _count_strategy(self, kind: str, count: int) -> None:
        with self._memo_lock:
            self.strategy_counts[kind] = (
                self.strategy_counts.get(kind, 0) + count)
        self._bump("repro_plan_strategy_total", count, strategy=kind)

    def execution_context(self, audit: list | None = None
                          ) -> ExecutionContext:
        """A fresh per-query context wired to this planner's memo."""
        return ExecutionContext(owner=self.owner, server=self.server,
                                counter=self.counter,
                                seal_comparison=self.seal_comparison,
                                audit=audit, hybrid=self.hybrid)

    # -- internals --------------------------------------------------------- #

    def _bump(self, name: str, amount: int = 1, **labels) -> None:
        metrics = self.counter.metrics
        if metrics is not None:
            plan_metric(metrics, name).inc(amount, **labels)

    def _fingerprint(self, statement: SelectStatement) -> tuple:
        """Catalog state this statement's costs depend on.  O(conditions)."""
        return self._profile_fingerprint(self._plan_cache.profile(statement))

    def _profile_fingerprint(self, profile: StatementProfile) -> tuple:
        """The live fingerprint for a memoized statement profile.

        Pure catalog lookups — table row count + update version,
        per-index :meth:`~repro.core.prkb.PRKBIndex.plan_fingerprint`,
        and the per-predicate equivalence bit (DO memo still holds the
        trapdoor *and* the SP still caches its Case-1 answer).  The
        estimator is never consulted, so a plan-cache hit costs no
        cost-model work at all.
        """
        server = self.server
        table_name = profile.table
        table = server.table(table_name)
        parts: list = [table.num_rows, table.version]
        indexes: dict[str, object] = {}
        for attribute in profile.attributes:
            if server.has_index(table_name, attribute):
                index = server.index(table_name, attribute)
                indexes[attribute] = index
                parts.append((attribute,) + index.plan_fingerprint())
            else:
                parts.append((attribute, None))
        memo_probe = self._trapdoor_memo.get
        for key in profile.comparison_keys:
            index = indexes.get(key[0])
            if index is None:
                parts.append(False)
            else:
                trapdoor = memo_probe(key)
                parts.append(
                    trapdoor is not None
                    and index.has_cached_equivalence(trapdoor.serial))
        return tuple(parts)

    def _observed_fingerprint(self, profile: StatementProfile) -> tuple:
        """:meth:`_profile_fingerprint` under observability: wraps the
        check in a ``plan.fingerprint`` span (visible in query traces
        and ``explain_analyze``) and feeds the
        ``repro_plan_fingerprint_seconds`` histogram.  Split out so the
        bare hot path costs two ``is None`` tests when observability is
        off."""
        counter = self.counter
        tracer = counter.tracer
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("plan.fingerprint", table=profile.table,
                             attributes=len(profile.attributes),
                             corrections=len(
                                 self.estimator.corrections or ())):
                fingerprint = self._profile_fingerprint(profile)
        else:
            fingerprint = self._profile_fingerprint(profile)
        metrics = counter.metrics
        if metrics is not None:
            plan_metric(metrics, "repro_plan_fingerprint_seconds").observe(
                time.perf_counter() - start)
        return fingerprint

    def _build(self, statement: SelectStatement, strategy: str,
               fingerprint: tuple) -> PhysicalPlan:
        logical = build_logical(statement, self.server.has_index)
        aggregate = logical.aggregate
        selection_ops, steps = self._build_selection(logical, strategy)
        if aggregate is None:
            root: SelectionRoot | AggregateOp = SelectionRoot(
                statement.table, tuple(selection_ops))
            return PhysicalPlan(statement, strategy, root, tuple(steps),
                                fingerprint)
        func, attribute = aggregate
        indexed = self.server.has_index(statement.table, attribute)
        child = (SelectionRoot(statement.table, tuple(selection_ops))
                 if statement.conditions else None)
        step = None
        if not statement.conditions:
            estimated, k, pruned = self.estimator.aggregate_ends_qpf(
                statement.table, attribute)
            step = PlanStep("aggregate-ends", (attribute,), pruned, k,
                            estimated)
            steps.append(step)
        root = AggregateOp(statement.table, func, attribute, child,
                           indexed, step)
        return PhysicalPlan(statement, strategy, root, tuple(steps),
                            fingerprint)

    def _build_selection(self, logical: LogicalSelect, strategy: str
                         ) -> tuple[list[PhysicalOperator], list[PlanStep]]:
        """Dispatch the predicate tree onto physical operators."""
        estimator = self.estimator
        table = logical.table
        scan_cost = estimator.scan_qpf(table)
        dimensions = logical.dimensions
        residual = list(logical.residual)
        ops: list[PhysicalOperator] = []
        steps: list[PlanStep] = []

        composed = None
        use_md = (strategy in ("auto", "md", "sd+")
                  and len(dimensions) >= (1 if strategy != "auto" else 2))
        if use_md and strategy == "auto":
            # Adaptive check: the grid must actually beat composing the
            # same predicates one by one (it essentially always does —
            # one probe per dimension instead of one per predicate, plus
            # cross-dimension pruning — but a cost-based planner checks).
            grid_cost = estimator.grid_qpf(table, dimensions, bonus=True)
            composed = sum(
                0 if estimator.is_cached(table, condition)
                else estimator.effective_prkb_qpf(table,
                                                  condition.attribute)
                for d in dimensions for condition in d.conditions())
            if grid_cost > composed:
                use_md = False
        if strategy == "baseline" or (dimensions and not use_md):
            # Grid rejected: every predicate goes through the
            # per-condition pipeline in original statement order.
            residual = list(logical.conditions)
            dimensions = ()

        if dimensions:
            mode = "sd+" if strategy == "sd+" else "md"
            attrs = tuple(d.attribute for d in dimensions)
            ks = [self.server.index(table, a).num_partitions
                  for a in attrs]
            kind = "md-grid" if mode == "md" else "prkb-sd"
            estimated = estimator.grid_qpf(table, dimensions,
                                           bonus=(mode == "md"))
            estimated, raw = estimator.corrected_qpf(table, kind, attrs,
                                                     estimated)
            # Each bounded dimension reveals a two-cut band, through the
            # grid or composed one predicate at a time.
            leakage = (2 * len(attrs) / max(1, scan_cost)
                       if self.hybrid is not None else 0.0)
            step = PlanStep(
                kind=kind,
                attributes=attrs,
                indexed=True,
                partitions=min(ks),
                estimated_qpf=estimated,
                alternatives=tuple(
                    (rejected, cost, leakage) for rejected, cost in
                    (("prkb-sd", composed), ("uncorrected", raw))
                    if cost is not None),
                leakage=leakage,
            )
            steps.append(step)
            ops.append(GridIntersectOp(table, dimensions, mode, step))

        for condition in residual:
            op = self._dispatch_scheme(table, condition, strategy,
                                       scan_cost)
            ops.append(op)
            steps.append(op.step)
        return ops, steps

    def _dispatch_scheme(self, table: str, condition, strategy: str,
                         scan_cost: int) -> PhysicalOperator:
        """Scheme-registry dispatch for one predicate (adaptive à la
        Enc2DB): every strategy ranks its candidates here.

        Builds the candidate list — PRKB (when indexed), linear scan,
        and (when hybrid artifacts are reachable) OPE compare, Log-SRC-i
        probe and MPC share — each carrying a corrected cost estimate
        and an RPOI leakage estimate.  The cheapest candidate
        *admissible under the leakage budget* wins (ties prefer registry
        order, PRKB first; a growable chain is never priced above the
        scan, since scanning would freeze the index); a forced scheme
        strategy bypasses admissibility but still records and charges
        its leakage.  The paper's own strategies — and ``auto`` with
        hybrid off — rank PRKB against the scan with no budget and no
        leakage model.  Every rejected candidate lands in
        ``PlanStep.alternatives`` as a ``(kind, cost, leakage)`` triple.
        """
        estimator = self.estimator
        attribute = condition.attribute
        between = isinstance(condition, BetweenCondition)
        prkb_kind = "prkb-between" if between else "prkb-sd"
        forced = strategy if strategy in _SCHEME_STRATEGIES else None
        hybrid = self.hybrid if forced or strategy == "auto" else None
        reveal = (condition_cuts(condition) / max(1, scan_cost)
                  if forced or hybrid is not None else 0.0)
        indexed = (strategy != "baseline"
                   and self.server.has_index(table, attribute))

        candidates: list[SchemeCandidate] = []
        provenance: dict[str, tuple] = {}

        partitions = None
        if indexed:
            index = self.server.index(table, attribute)
            partitions = index.num_partitions
            cost, raw = estimator.corrected_qpf(
                table, prkb_kind, (attribute,),
                estimator.comparison_qpf(table, attribute))
            if raw is not None:
                provenance[prkb_kind] = (("uncorrected", raw, reveal),)
            effective = min(cost, scan_cost) if index.can_grow else cost
            candidates.append(
                SchemeCandidate("prkb", prkb_kind, effective, reveal))
        candidates.append(
            SchemeCandidate("scan", "baseline-scan", scan_cost, reveal))

        if hybrid is not None:
            for candidate in hybrid.scheme_estimates(table, condition,
                                                     estimator):
                cost, raw = estimator.corrected_qpf(
                    table, candidate.kind, (attribute,), candidate.cost)
                if raw is not None:
                    provenance[candidate.kind] = (
                        ("uncorrected", raw, candidate.leakage),)
                    candidate = SchemeCandidate(
                        candidate.scheme, candidate.kind, cost,
                        candidate.leakage)
                candidates.append(candidate)

        if (indexed and not between and forced in (None, "prkb")
                and estimator.is_cached(table, condition)):
            # Equivalence-cache hit: the repeat is one chain slice — 0
            # QPF, not a cold NS-pair scan — and reveals no *new* cut:
            # the adversary already saw this result set.
            alternatives = (tuple(c.as_alternative() for c in candidates)
                            + provenance.get(prkb_kind, ()))
            step = PlanStep(prkb_kind, (attribute,), True, partitions, 0,
                            cached=True, alternatives=alternatives)
            return CacheHitOp(table, condition, step)

        if forced:
            chosen = next((c for c in candidates
                           if c.scheme == forced), None)
            if chosen is None:
                # Forced PRKB on an unindexed attribute: only the scan
                # is physically legal; the miss shows in alternatives.
                chosen = next(c for c in candidates if c.scheme == "scan")
        else:
            pool = candidates
            if hybrid is not None:
                ledger = hybrid.ledger
                # MPC (leakage 0) is always admissible, so the pool is
                # never empty while hybrid is on; the fallbacks are
                # belt-and-braces.
                pool = ([c for c in candidates
                         if ledger.admits(table, c.leakage)]
                        or [c for c in candidates if c.leakage <= 0.0]
                        or candidates)
            # A degenerate index (capped chain pricier than the scan,
            # and no refinement to buy) loses to the scan here.
            chosen = min(pool, key=lambda c: c.cost)

        alternatives = (tuple(c.as_alternative() for c in candidates
                              if c is not chosen)
                        + provenance.get(chosen.kind, ()))
        step = PlanStep(chosen.kind, (attribute,),
                        chosen.kind == prkb_kind,
                        partitions if chosen.kind == prkb_kind else None,
                        chosen.cost, alternatives=alternatives,
                        leakage=chosen.leakage)
        return _STEP_OPERATORS[chosen.kind](table, condition, step)
