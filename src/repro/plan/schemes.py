"""Scheme registry for hybrid (multi-ciphertext) predicate dispatch.

The paper's SP only ever chooses between the PRKB pipeline and a linear
QPF scan.  This module makes physical strategy selection
*scheme-pluggable* in the Enc²DB sense: each supported predicate shape
is offered to a registry of candidate schemes —

========  ===========================  ======================  =========
scheme    operator                     cost (QPF uses)         leakage
========  ===========================  ======================  =========
prkb      ``PRKBSelectOp``             analytic + corrections  1–2 cuts/n
scan      ``LinearScanOp``             ``n``                   1–2 cuts/n
ope       ``OPECompareOp``             0 (SP-local compare)    1.0 once
src       ``SRCStructureOp``           ``2·n·span/D + 2·lgD``  1–2 cuts/n
mpc       ``MPCShareOp``               3 × PRKB-over-shares    0.0
========  ===========================  ======================  =========

Leakage is measured in **RPOI units** — the fraction of the total order
an adversary running ``attacks/order_reconstruction.py`` can pin down.
A single comparison result partitions the table once (one "cut", worth
``1/n`` RPOI); an inclusive BETWEEN band reveals two cuts (``2/n``, the
``observe_band`` model).  Materializing an OPE column publishes the
*entire* total order at once — RPOI 1.0, charged exactly once per
column version; subsequent OPE compares add nothing.  MPC-share keeps
comparison outcomes secret-shared (the DO recombines), so its marginal
RPOI is zero — which also makes it the guaranteed fallback when a
:class:`SecurityBudget` is exhausted.

The dispatch contract: candidates whose leakage fits the table's
remaining budget are admissible; the cheapest admissible candidate (by
estimated QPF, ties broken by registry order) wins.  Every candidate —
chosen and rejected — is recorded in ``PlanStep.alternatives`` as a
``(kind, cost, leakage)`` triple.

This module deliberately does **not** import ``repro.edbms.hybrid``
(the artifact materializer): ``repro.plan`` modules are imported while
``repro.edbms`` is still partially initialized, so the dispatcher only
ever reaches materialized artifacts through the duck-typed
``ExecutionContext.hybrid`` / ``Planner.hybrid`` attribute that
``EncryptedDatabase.enable_hybrid`` wires at runtime.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

from ..edbms.sql import BetweenCondition, ComparisonCondition

# Scheme identifiers, in registry (tie-break) order.
PRKB_SCHEME = "prkb"
SCAN_SCHEME = "scan"
OPE_SCHEME = "ope"
SRC_SCHEME = "src"
MPC_SCHEME = "mpc"

SCHEMES = (PRKB_SCHEME, SCAN_SCHEME, OPE_SCHEME, SRC_SCHEME, MPC_SCHEME)

# PlanStep kinds introduced by the hybrid dispatcher.
OPE_KIND = "ope-compare"
SRC_KIND = "src-probe"
MPC_KIND = "mpc-share"

#: RPOI of publishing a full OPE column: the complete total order.
OPE_MATERIALIZE_RPOI = 1.0

_EPS = 1e-12


def condition_cuts(condition) -> int:
    """Order cuts revealed by one predicate's result set.

    A one-sided comparison splits the table at a single threshold; an
    inclusive band (BETWEEN) reveals both end-points.
    """
    return 2 if isinstance(condition, BetweenCondition) else 1


def inclusive_band(condition, domain_min: int, domain_max: int):
    """Normalize a predicate to an inclusive plaintext band.

    Returns ``(low, high)`` clamped to the attribute domain, or ``None``
    when the predicate is unsatisfiable over the domain (empty result).
    Used both for exact evaluation (OPE compare, Log-SRC-i probe) and
    for selectivity-based cost estimates.
    """
    if isinstance(condition, BetweenCondition):
        low, high = condition.low, condition.high
    elif isinstance(condition, ComparisonCondition):
        op, constant = condition.operator, condition.constant
        if op == "<":
            low, high = domain_min, constant - 1
        elif op == "<=":
            low, high = domain_min, constant
        elif op == ">":
            low, high = constant + 1, domain_max
        elif op == ">=":
            low, high = constant, domain_max
        else:  # pragma: no cover - parser only emits the four above
            raise ValueError(f"unsupported operator {op!r}")
    else:  # pragma: no cover - defensive
        raise TypeError(f"unsupported condition {condition!r}")
    low = max(low, domain_min)
    high = min(high, domain_max)
    if low > high:
        return None
    return low, high


@dataclass(frozen=True)
class SecurityBudget:
    """Maximum cumulative RPOI an adversary may accumulate per table.

    ``max_rpoi=None`` means unconstrained: every scheme is admissible
    and dispatch degenerates to pure cost ranking.  ``max_rpoi=0.0``
    forces the zero-leakage scheme (MPC-share) for every fresh
    predicate.
    """

    max_rpoi: float | None = None

    def __post_init__(self) -> None:
        if self.max_rpoi is not None and self.max_rpoi < 0:
            raise ValueError("max_rpoi must be >= 0 or None")

    @classmethod
    def coerce(cls, budget) -> "SecurityBudget":
        """The budget a caller meant: a :class:`SecurityBudget` as is, a
        bare ``max_rpoi`` number, or ``None`` for unconstrained."""
        if budget is None:
            return cls()
        if isinstance(budget, cls):
            return budget
        return SecurityBudget(max_rpoi=float(budget))


class LeakageLedger:
    """Per-table cumulative RPOI spend against a :class:`SecurityBudget`.

    Thread-safe: serving sessions charge concurrently.  The ledger is
    deliberately separate from the budget so tenants can share one
    materializer (and its already-paid OPE columns) while metering
    leakage independently.
    """

    def __init__(self, budget: SecurityBudget) -> None:
        self.budget = budget
        self._spent: dict[str, float] = {}
        self._lock = threading.Lock()

    def spent(self, table: str) -> float:
        """Cumulative RPOI charged against ``table`` so far."""
        with self._lock:
            return self._spent.get(table, 0.0)

    def remaining(self, table: str) -> float:
        """Budget headroom for ``table`` (``inf`` when unconstrained)."""
        if self.budget.max_rpoi is None:
            return float("inf")
        with self._lock:
            return self.budget.max_rpoi - self._spent.get(table, 0.0)

    def admits(self, table: str, leakage: float) -> bool:
        """Whether ``leakage`` more RPOI still fits ``table``'s budget."""
        # Zero-leakage schemes stay admissible even when a forced
        # scheme has overdrawn the budget (remaining < 0).
        if leakage <= 0.0:
            return True
        return leakage <= self.remaining(table) + _EPS

    def charge(self, table: str, leakage: float) -> None:
        """Record ``leakage`` RPOI as spent against ``table``."""
        if leakage <= 0.0:
            return
        with self._lock:
            self._spent[table] = self._spent.get(table, 0.0) + leakage

    def snapshot(self) -> dict[str, float]:
        """Copy of the per-table spend map (for reports/tests)."""
        with self._lock:
            return dict(self._spent)


@dataclass(frozen=True)
class SchemeCandidate:
    """One scheme's offer for a predicate: identity, cost, leakage."""

    scheme: str
    kind: str
    cost: int
    leakage: float

    def as_alternative(self) -> tuple[str, int, float]:
        """The ``(kind, cost, leakage)`` triple recorded in plans."""
        return (self.kind, int(self.cost), float(self.leakage))


class HybridDispatch:
    """Budgeted scheme selection state attached to one :class:`Planner`.

    Pairs a private :class:`LeakageLedger` with the shared artifact
    materializer (``repro.edbms.hybrid.HybridMaterializer``, reached
    duck-typed).  Multiple dispatchers — one per tenant session — may
    share a single materializer while metering leakage independently.
    """

    def __init__(self, materializer, budget: SecurityBudget) -> None:
        self.materializer = materializer
        self.budget = budget
        self.ledger = LeakageLedger(budget)

    # -- planner-facing estimates -----------------------------------

    def scheme_estimates(self, table: str, condition, estimator):
        """Candidate offers from the non-paper schemes (ope/src/mpc).

        Returns ``[SchemeCandidate, ...]`` in registry order.  Costs
        reuse the estimator's live statistics where they exist; OPE
        leakage is 1.0 until the column is materialized, then 0.0
        (already paid, version-keyed).
        """
        mat = self.materializer
        attribute = condition.attribute
        lo, hi = mat.domain(table, attribute)
        domain_size = hi - lo + 1
        band = inclusive_band(condition, lo, hi)
        span = 0 if band is None else band[1] - band[0] + 1
        n = estimator.scan_qpf(table)
        cuts = condition_cuts(condition)
        reveal = cuts / max(1, n)

        ope_leak = 0.0 if mat.ope_version(table, attribute) is not None \
            else OPE_MATERIALIZE_RPOI
        candidates = [
            SchemeCandidate(OPE_SCHEME, OPE_KIND, 0, ope_leak),
            SchemeCandidate(
                SRC_SCHEME, SRC_KIND,
                estimator.src_probe_qpf(table, span, domain_size), reveal),
            SchemeCandidate(
                MPC_SCHEME, MPC_KIND,
                estimator.mpc_share_qpf(
                    table, mat.mpc_partitions(table, attribute)), 0.0),
        ]
        return candidates

    # -- cache fingerprinting ---------------------------------------

    def fingerprint_parts(self, table: str, attributes) -> tuple:
        """Hybrid-state extension of the plan-cache fingerprint.

        Includes artifact versions (an OPE column or MPC chain coming
        into existence changes both cost and leakage offers) and the
        budget's *admissibility bits* rather than the raw remaining
        RPOI — charging ``cuts/n`` per query must not thrash the cache
        while the set of admissible schemes is unchanged.
        """
        mat = self.materializer
        parts: list = ["hybrid"]
        for attribute in attributes:
            parts.append((
                mat.ope_version(table, attribute),
                mat.src_version(table, attribute),
                mat.mpc_fingerprint(table, attribute),
            ))
        remaining = self.ledger.remaining(table)
        n = max(1, mat.table_rows(table))
        parts.append((
            remaining >= OPE_MATERIALIZE_RPOI - _EPS,
            remaining >= 2.0 / n - _EPS,
            remaining >= 1.0 / n - _EPS,
        ))
        return tuple(parts)

    # -- execution-time accounting ----------------------------------

    def charge_execution(self, table: str, steps) -> None:
        """Charge each executed step's leakage to the ledger.

        OPE-compare steps are skipped here: their RPOI (the full order)
        is charged exactly once inside the materializer when the column
        is built, not per execution — re-running a cached OPE plan
        reveals nothing new.
        """
        for step in steps:
            if step.leakage and step.kind != OPE_KIND:
                self.ledger.charge(table, step.leakage)
