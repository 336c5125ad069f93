"""Cost estimation for the planner, fed by live POP statistics.

The estimator prices each candidate physical operator in *expected QPF
uses* — the paper's primary cost metric — from three live sources:

* the analytic Sec. 5/6 model (``2·(2n/k) + log2 k`` for a PRKB range,
  ``n`` for a linear scan), via
  :meth:`~repro.core.single.SingleDimensionProcessor.estimate_qpf`;
* the index's *observed* behaviour
  (:meth:`~repro.core.prkb.PRKBIndex.health`): when the select history
  is non-empty, the p90 Not-Sure-pair scan width plus the binary-search
  term usually beats the analytic model, so the estimate takes the
  tighter of the two;
* the equivalence/trapdoor-memo state: a predicate the DO would re-seal
  from its memo *and* the SP still holds a Case-1 entry for is priced
  at ~0 QPF (``cached``).

``ESTIMATE_BOUND`` is the documented planner guarantee: the chosen
strategy's *actual* QPF never exceeds ``ESTIMATE_BOUND × worst rejected
alternative's estimate + ESTIMATE_SLACK``.  The hypothesis property
suite (``tests/test_plan_property.py``) enforces it on generated
workloads.

The *refinement credit*: a PRKB pass over a chain that can still grow
(:attr:`~repro.core.prkb.PRKBIndex.can_grow`) is never priced above the
linear scan, because its worst case matches the scan's Θ(n) while also
refining the chain for every later query — dropping to the scan would
freeze the index cold.  A capped/frozen chain gets no credit, which is
where the adaptive dispatch genuinely diverges from the legacy fixed
branching (it falls back to the scan when the degenerate chain would
cost more).
"""

from __future__ import annotations

import math
from typing import Callable

from ..core.aggregates import AggregateResolver
from ..core.multi import estimate_grid_qpf
from ..core.single import SingleDimensionProcessor
from ..edbms.sql import ComparisonCondition
from ..obs.outcomes import step_key
from .logical import BoundedDimension

__all__ = ["CostEstimator", "ESTIMATE_BOUND", "ESTIMATE_SLACK",
           "MPC_COST_FACTOR"]

#: Documented bound on estimate error for strategy dispatch (see module
#: docstring; enforced by tests/test_plan_property.py).
ESTIMATE_BOUND = 5
#: Additive slack of the bound — absorbs binary-search and sampling
#: constants on tiny tables where the multiplicative bound is meaningless.
ESTIMATE_SLACK = 100
#: Relative price of one QPF use over secret shares vs. the trusted
#: machine: each probe is a share exchange (2 messages) on top of the
#: evaluation itself, and recombination happens per tuple on the DO.
MPC_COST_FACTOR = 3


class CostEstimator:
    """Price candidate operators against the live catalog.

    ``memo_probe`` looks up the DO's sealed-trapdoor memo (``(attribute,
    operator, constant) -> trapdoor | None``) so cached-equivalence
    pricing reflects what the DO would actually send.  Estimation is
    pure catalog inspection: no sealing, no QPF.
    """

    def __init__(self, server, memo_probe: Callable):
        self.server = server
        self._memo_probe = memo_probe
        #: Learned per-step-fingerprint multipliers
        #: (:meth:`~repro.obs.outcomes.OutcomeStore.corrections`), keyed
        #: by ``table|kind|attributes``.  ``None`` (the default) keeps
        #: estimation bit-identical to the analytic model — corrections
        #: are strictly opt-in via
        #: :meth:`~repro.edbms.engine.EncryptedDatabase.apply_corrections`.
        self.corrections: dict[str, float] | None = None

    def corrected_qpf(self, table_name: str, kind: str, attributes,
                      estimate: int) -> tuple[int, int | None]:
        """Apply a learned correction factor to one step estimate.

        Returns ``(corrected, raw)`` where ``raw`` is the uncorrected
        estimate when a factor applied, else ``None`` — the planner
        records ``raw`` as ``("uncorrected", raw, leakage)`` provenance
        in the chosen step's alternatives.  With no corrections loaded (the default)
        this is the identity.
        """
        corrections = self.corrections
        if not corrections:
            return estimate, None
        factor = corrections.get(step_key(table_name, kind, attributes))
        if factor is None:
            return estimate, None
        return max(1, int(round(estimate * factor))), estimate

    # -- primitive costs -------------------------------------------------- #

    def scan_qpf(self, table_name: str) -> int:
        """Linear scan: one QPF use per stored tuple."""
        return self.server.table(table_name).num_rows

    def comparison_qpf(self, table_name: str, attribute: str) -> int:
        """One indexed comparison/BETWEEN: analytic model, tightened by
        the index's observed Not-Sure scan widths when history exists."""
        index = self.server.index(table_name, attribute)
        n = self.server.table(table_name).num_rows
        k = index.num_partitions
        formula = SingleDimensionProcessor.estimate_qpf(n, k)
        if k <= 1:
            return formula
        queries_observed, observed_width = index.observed_scan_stats()
        if queries_observed and observed_width > 0:
            observed = observed_width + formula - 4 * max(1, n // k)
            return max(1, min(formula, observed))
        return formula

    def effective_prkb_qpf(self, table_name: str, attribute: str) -> int:
        """:meth:`comparison_qpf` with the refinement credit applied."""
        cost = self.comparison_qpf(table_name, attribute)
        index = self.server.index(table_name, attribute)
        if index.can_grow:
            return min(cost, self.scan_qpf(table_name))
        return cost

    def src_probe_qpf(self, table_name: str, span: int,
                      domain_size: int) -> int:
        """One Log-SRC-i probe: SSE record opens for every matching
        tuple (access-pattern volume, priced under uniform selectivity
        ``span/D``) over both replica trees, plus the dyadic cover
        lookups (``≤ 2·log2 D`` nodes)."""
        n = self.scan_qpf(table_name)
        fraction = min(1.0, max(0.0, span / max(1, domain_size)))
        cover = 2 * max(1, int(math.ceil(math.log2(max(2, domain_size)))))
        return max(1, int(2 * n * fraction) + cover)

    def mpc_share_qpf(self, table_name: str, partitions: int) -> int:
        """One predicate through PRKB-over-shares: the same analytic
        chain model as the TM path (with the refinement credit — shared
        chains grow too), scaled by :data:`MPC_COST_FACTOR`."""
        n = self.scan_qpf(table_name)
        formula = SingleDimensionProcessor.estimate_qpf(
            n, max(1, partitions))
        return MPC_COST_FACTOR * max(1, min(formula, n))

    def is_cached(self, table_name: str, condition) -> bool:
        """Whether re-running ``condition`` would hit the SP's
        equivalence cache: the DO would reuse its memoized trapdoor
        (same serial) and the index still holds a Case-1 entry for it.
        Pure catalog inspection — nothing is sealed or executed.
        """
        if not isinstance(condition, ComparisonCondition):
            return False
        if not self.server.has_index(table_name, condition.attribute):
            return False
        trapdoor = self._memo_probe(
            (condition.attribute, condition.operator, condition.constant))
        return (trapdoor is not None
                and self.server.index(table_name, condition.attribute)
                    .has_cached_equivalence(trapdoor.serial))

    # -- composite costs -------------------------------------------------- #

    def grid_qpf(self, table_name: str,
                 dimensions: tuple[BoundedDimension, ...],
                 bonus: bool = True) -> int:
        """The grid algorithm over ``dimensions`` (Sec. 6.2).

        ``bonus=False`` prices the naive per-dimension composition
        (``sd+``) instead — same per-dimension scans, no cross-dimension
        pruning.
        """
        per_dim = [self.effective_prkb_qpf(table_name, d.attribute)
                   for d in dimensions]
        return estimate_grid_qpf(per_dim, bonus=bonus)

    def aggregate_ends_qpf(self, table_name: str,
                           attribute: str) -> tuple[int, int, bool]:
        """Unfiltered MIN/MAX: ``(estimated_qpf, k, indexed)``.

        With an index the estimate is *exact* — the resolver decrypts
        precisely the chain's two end partitions; without one, the
        trusted machine decrypts the whole table.
        """
        n = self.server.table(table_name).num_rows
        if not self.server.has_index(table_name, attribute):
            return max(1, n), 1, False
        index = self.server.index(table_name, attribute)
        k = index.num_partitions
        return max(1, AggregateResolver.candidate_count(index)), k, k > 1
