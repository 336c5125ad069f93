"""Volcano-style physical operators over the encrypted catalog.

Each operator owns exactly one :class:`~repro.plan.report.PlanStep` — the
step the planner costed it with — and an ``execute(ctx)`` method that
spends real QPF.  The same operator tree backs ``query``, ``explain``
(render without executing) and ``explain_analyze`` (execute with the
audit enabled), which is what guarantees rendered estimates are the
estimates the executor ran with.

Trapdoor sealing happens *here*, at execute time, never at plan time:
a cached physical plan re-seals on every run exactly like the
pre-planner engine did, so the DO-side trapdoor memo and the SP-side
equivalence cache keep their observable behaviour (identical repeats
answered in 0 QPF) bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.aggregates import AggregateResolver
from ..core.multi import DimensionRange
from ..edbms.sql import BetweenCondition, ComparisonCondition
from .logical import BoundedDimension
from .report import PlanStep

__all__ = [
    "ExecutionContext",
    "PhysicalOperator",
    "PRKBSelectOp",
    "CacheHitOp",
    "LinearScanOp",
    "GridIntersectOp",
    "OPECompareOp",
    "SRCStructureOp",
    "MPCShareOp",
    "SelectionRoot",
    "AggregateOp",
    "BatchProbeOp",
]


@dataclass
class ExecutionContext:
    """Everything an operator needs at run time (nothing at plan time).

    ``seal_comparison`` is the planner's DO-side trapdoor memo
    (``(attribute, operator, constant) -> EncryptedPredicate``); sharing
    it across operators is what makes repeats equivalence-cache hits.
    ``audit`` is EXPLAIN ANALYZE's per-step ledger (``None`` on the
    regular query path, where steps run unmetered — see ``_run_step``).
    """

    owner: object
    server: object
    counter: object
    seal_comparison: Callable
    audit: list | None = None
    #: Hybrid dispatch state (``repro.plan.schemes.HybridDispatch``) or
    #: ``None`` when hybrid execution is off — the default.  Operators
    #: reach the artifact materializer (OPE columns, Log-SRC-i indexes,
    #: secret-shared tables) exclusively through this handle.
    hybrid: object | None = None


def _run_step(ctx: ExecutionContext, attributes, scheme, run, *args):
    """Run one plan step inside its own ``measure()`` scope — the one
    place per-step cost is attributed: the scope's QPF feeds the
    EXPLAIN ANALYZE audit (``(attributes, qpf, seconds)``) and, for a
    scheme-labelled step under hybrid dispatch, the per-scheme tally.
    The scope sees only the calling thread's charges, so statements
    served side by side never land in each other's steps.  A step that
    raises is still tallied (its QPF was spent) but not audited."""
    start = time.perf_counter()
    with ctx.counter.measure() as spent:
        try:
            result = run(*args)
        finally:
            if scheme is not None and ctx.hybrid is not None:
                ctx.hybrid.materializer.tally(scheme, spent.qpf_uses)
    if ctx.audit is not None:
        ctx.audit.append((attributes, spent.qpf_uses,
                          time.perf_counter() - start))
    return result


class PhysicalOperator:
    """Base: one plan step + one execute method."""

    __slots__ = ("step",)

    #: Scheme label for per-scheme QPF attribution under hybrid
    #: dispatch (see ``repro.plan.schemes.SCHEMES``).
    scheme = "prkb"

    def __init__(self, step: PlanStep):
        self.step = step

    def execute(self, ctx: ExecutionContext) -> np.ndarray:
        """Run this operator under ``ctx``; returns the matching UIDs.

        Contract: a 1-D ``uint64`` array, strictly increasing (sorted,
        no duplicates).  PRKB-backed answers are in uid order by
        construction; the other schemes order their own answer exactly
        once.  :class:`SelectionRoot` relies on this and never re-sorts.
        """
        raise NotImplementedError

    def _seal_condition(self, ctx: ExecutionContext, condition):
        """The condition's trapdoor, exactly as the legacy engine sealed
        it: comparisons go through the DO memo (repeats reuse the same
        sealed object — the equivalence-cache key), BETWEEN is sealed
        fresh each run (its refinement pattern depends on it)."""
        if isinstance(condition, ComparisonCondition):
            return ctx.seal_comparison(condition.attribute,
                                       condition.operator,
                                       condition.constant)
        if isinstance(condition, BetweenCondition):
            return ctx.owner.between_trapdoor(
                condition.attribute, condition.low, condition.high)
        raise TypeError(f"unknown condition {condition!r}")


class _PredicateOp(PhysicalOperator):
    """Base of the operators that answer one predicate of one table."""

    __slots__ = ("table", "condition")

    def __init__(self, table: str, condition, step: PlanStep):
        super().__init__(step)
        self.table = table
        self.condition = condition


class PRKBSelectOp(_PredicateOp):
    """One predicate through the PRKB pipeline (QFilter/QScan, Sec. 4)."""

    __slots__ = ()

    def execute(self, ctx: ExecutionContext) -> np.ndarray:
        """Seal the predicate and answer it via the PRKB index (already
        in uid order: the chain reads its winners out that way)."""
        trapdoor = self._seal_condition(ctx, self.condition)
        return ctx.server.select(self.table, trapdoor)


class CacheHitOp(PRKBSelectOp):
    """A :class:`PRKBSelectOp` the planner expects the SP's equivalence
    cache to answer (~0 QPF).  Execution is identical — the *server*
    decides the hit from the trapdoor serial; the distinct operator
    exists so plans/metrics show the expected fast path."""

    __slots__ = ()


class LinearScanOp(_PredicateOp):
    """One predicate tested against every tuple (Fig. 2a baseline)."""

    __slots__ = ()

    scheme = "scan"

    def execute(self, ctx: ExecutionContext) -> np.ndarray:
        """Seal the predicate and test it against every tuple."""
        trapdoor = self._seal_condition(ctx, self.condition)
        return ctx.server.select_baseline(self.table, trapdoor)


class GridIntersectOp(PhysicalOperator):
    """All fully-bounded dimensions through PRKB(MD)'s grid (Sec. 6.2),
    or the naive per-dimension composition when ``mode == "sd+"``.

    Dimension trapdoors are sealed at execute time (low then high,
    dimension order) through the DO's trapdoor memo: a repeated range
    re-sends the *same* sealed objects, so the SP's serial-keyed
    equivalence caches can answer the repeat without fresh QPF."""

    __slots__ = ("table", "dimensions", "mode")

    def __init__(self, table: str,
                 dimensions: tuple[BoundedDimension, ...],
                 mode: str, step: PlanStep):
        super().__init__(step)
        self.table = table
        self.dimensions = dimensions
        self.mode = mode

    def execute(self, ctx: ExecutionContext) -> np.ndarray:
        """Seal all dimension trapdoors and run the grid selection."""
        ranges = [
            DimensionRange(
                attribute=d.attribute,
                low=ctx.seal_comparison(
                    d.attribute, d.low.operator, d.low.constant),
                high=ctx.seal_comparison(
                    d.attribute, d.high.operator, d.high.constant),
            )
            for d in self.dimensions
        ]
        return ctx.server.select_range(self.table, ranges,
                                       strategy=self.mode)


class OPECompareOp(_PredicateOp):
    """One predicate answered by SP-local order-preserving ciphertext
    comparison — zero QPF, but the materialized OPE column has paid the
    full total order (RPOI 1.0) to get here.  The column itself is
    lazily built (version-keyed) by the hybrid materializer."""

    __slots__ = ()

    scheme = "ope"

    def execute(self, ctx: ExecutionContext) -> np.ndarray:
        """Compare OPE ciphertexts SP-side; zero QPF, exact winners."""
        return ctx.hybrid.materializer.ope_select(
            self.table, self.condition, ctx.hybrid.ledger)


class SRCStructureOp(_PredicateOp):
    """One predicate probed through the Log-SRC-i structure: an SSE
    lookup per covering dyadic node, false positives filtered inside
    the structure (exact winners out)."""

    __slots__ = ()

    scheme = "src"

    def execute(self, ctx: ExecutionContext) -> np.ndarray:
        """Probe the Log-SRC-i structure for the inclusive band."""
        return ctx.hybrid.materializer.src_select(
            self.table, self.condition)


class MPCShareOp(_PredicateOp):
    """One predicate through the full PRKB pipeline over a
    secret-shared table: same QFilter/QScan, but Θ is
    ``MPCQueryProcessingFunction`` — comparison outcomes come back as
    shares the DO recombines, so the SP learns nothing (RPOI 0).  The
    trapdoor is sealed through the same DO memo as the TM path, so the
    shared-side equivalence cache answers repeats identically."""

    __slots__ = ()

    scheme = "mpc"

    def execute(self, ctx: ExecutionContext) -> np.ndarray:
        """Seal the predicate and run PRKB over the shared table."""
        trapdoor = self._seal_condition(ctx, self.condition)
        return ctx.hybrid.materializer.mpc_select(self.table, trapdoor)


class SelectionRoot:
    """Intersect the child operators' winner sets (conjunctive AND).

    Every child runs even when an earlier one returned nothing — index
    refinement is a side effect the legacy engine also paid for, and the
    EXPLAIN ANALYZE audit expects one entry per planned step.
    """

    __slots__ = ("table", "children")

    def __init__(self, table: str, children: tuple[PhysicalOperator, ...]):
        self.table = table
        self.children = children

    def execute(self, ctx: ExecutionContext) -> np.ndarray:
        """Run every child and intersect their winner sets — already in
        order by the :meth:`PhysicalOperator.execute` contract, which
        ``np.intersect1d`` preserves, so nothing is re-sorted here."""
        if not self.children:
            return np.sort(ctx.server.table(self.table).uids)
        winners: np.ndarray | None = None
        metered = ctx.audit is not None or ctx.hybrid is not None
        for child in self.children:
            part = (_run_step(ctx, child.step.attributes, child.scheme,
                              child.execute, ctx)
                    if metered else child.execute(ctx))
            winners = part if winners is None else np.intersect1d(
                winners, part, assume_unique=True)
        assert winners is not None
        return winners


class AggregateOp:
    """MIN/MAX resolution over a child selection (or the whole table).

    ``indexed`` (a plan-time catalog fact, part of the cache
    fingerprint) picks between POP end-partition pruning
    (:class:`~repro.core.aggregates.AggregateResolver`) and the
    unindexed EDBMS fallback of decrypting every candidate in the TM.
    """

    __slots__ = ("table", "func", "attribute", "child", "indexed", "step")

    def __init__(self, table: str, func: str, attribute: str,
                 child: SelectionRoot | None, indexed: bool,
                 step: PlanStep | None):
        self.table = table
        self.func = func
        self.attribute = attribute
        self.child = child
        self.indexed = indexed
        self.step = step  # the "aggregate-ends" step; None when filtered

    def execute(self, ctx: ExecutionContext
                ) -> tuple[np.ndarray, int]:
        """Resolve the aggregate; returns ``([winner_uid], value)``."""
        candidates = None
        if self.child is not None:
            candidates = self.child.execute(ctx)
            if candidates.size == 0:
                raise ValueError("aggregate over an empty selection")
        if ctx.audit is None:
            uid, value = self._resolve(ctx, candidates)
        else:
            # Unfiltered, this is the plan's "aggregate-ends" step;
            # filtered, the entry lies past the planned steps and
            # EXPLAIN ANALYZE reports it as the trailing residual.
            uid, value = _run_step(ctx, (self.attribute,), None,
                                   self._resolve, ctx, candidates)
        return np.asarray([uid], dtype=np.uint64), value

    def _resolve(self, ctx: ExecutionContext,
                 candidates: np.ndarray | None) -> tuple[int, int]:
        """``(uid, value)`` of the extreme among ``candidates`` (the
        whole table when ``None``)."""
        smallest = self.func == "min"
        if self.indexed:
            # Decrypt only the extreme-candidate partitions of the chain.
            resolver = AggregateResolver(
                ctx.server.index(self.table, self.attribute), ctx.owner.key)
            if candidates is None:
                return resolver.minimum() if smallest else resolver.maximum()
            return (resolver.minimum_among(candidates) if smallest
                    else resolver.maximum_among(candidates))
        # No POP to prune with: the trusted machine decrypts every
        # candidate (the unindexed EDBMS cost).
        from ..edbms.encryption import decrypt_column

        table = ctx.server.table(self.table)
        if candidates is None:
            candidates = table.uids
        if candidates.size == 0:
            raise ValueError("aggregate over an empty selection")
        ctx.counter.charge(qpf_uses=int(candidates.size),
                           tuples_retrieved=int(candidates.size))
        values = decrypt_column(ctx.owner.key, table, self.attribute,
                                candidates)
        best = int(np.argmin(values) if smallest else np.argmax(values))
        return int(candidates[best]), int(values[best])


class BatchProbeOp:
    """A burst of single-comparison selections on one table, coalesced
    through :meth:`ServiceProvider.answer_batch` so their PRKB pipelines
    advance in lock step (one enclave roundtrip per step for the whole
    burst, duplicate predicates answered once)."""

    __slots__ = ("table", "conditions")

    def __init__(self, table: str,
                 conditions: tuple[ComparisonCondition, ...]):
        self.table = table
        self.conditions = conditions

    def execute(self, ctx: ExecutionContext, window: int | None = None):
        """Seal all predicates and answer them as one coalesced batch."""
        trapdoors = [ctx.seal_comparison(c.attribute, c.operator,
                                         c.constant)
                     for c in self.conditions]
        tracer = ctx.counter.tracer
        if tracer is None:
            return ctx.server.answer_batch(self.table, trapdoors,
                                           window=window)
        with tracer.span("execute_many.window", table=self.table,
                         queries=len(self.conditions)):
            return ctx.server.answer_batch(self.table, trapdoors,
                                           window=window)
