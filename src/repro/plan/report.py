"""Plan rendering artifacts: EXPLAIN / EXPLAIN ANALYZE dataclasses.

These are the *reporting* views over one :class:`~repro.plan.planner.
PhysicalPlan` — the executor and both EXPLAIN variants share the same
plan tree, so a rendered estimate is always the estimate the executor
actually ran with (there is no second planning pass anywhere).

:class:`PlanStep` additionally records the *rejected alternatives* of
the adaptive dispatch (``alternatives``), so ``repro plan`` and the
planner-quality tests can see what the cost-based choice was up
against.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PlanStep", "QueryPlan", "StepAnalysis", "PlanAnalysis"]


@dataclass(frozen=True)
class PlanStep:
    """One step of an explained query plan."""

    # "md-grid" | "prkb-sd" | "prkb-between" | "baseline-scan"
    # | "ope-compare" | "src-probe" | "mpc-share"
    kind: str
    attributes: tuple[str, ...]
    indexed: bool
    partitions: int | None
    estimated_qpf: int
    #: The planner expects the SP's equivalence cache to answer this step
    #: (a repeat of a known predicate): estimated cost collapses to ~0.
    cached: bool = False
    #: Strategies the cost-based dispatch considered and rejected, as
    #: ``(kind, estimated_qpf, leakage)`` triples.
    alternatives: tuple = ()
    #: Estimated RPOI revealed by executing this step (0.0 outside
    #: hybrid dispatch; see ``repro.plan.schemes`` for the model).
    leakage: float = 0.0

    def render(self) -> str:
        """Human-readable single line."""
        attrs = ", ".join(self.attributes)
        index_note = (f"PRKB k={self.partitions}" if self.indexed
                      else "no index")
        cache_note = " [cached]" if self.cached else ""
        leak_note = (f" leak={self.leakage:.4g}" if self.leakage else "")
        return (f"{self.kind}({attrs}) [{index_note}]{cache_note} "
                f"~{self.estimated_qpf} QPF{leak_note}")

    def render_alternatives(self) -> str:
        """The rejected strategies, one ``kind ~cost`` clause each."""
        if not self.alternatives:
            return ""
        clauses = [
            f"{kind} ~{cost} QPF" + (f" leak={leakage:.4g}" if leakage
                                     else "")
            for kind, cost, leakage in self.alternatives]
        return f"rejected: {', '.join(clauses)}"


@dataclass(frozen=True)
class QueryPlan:
    """EXPLAIN output: the steps the engine would execute."""

    table: str
    projection: object
    steps: tuple[PlanStep, ...]

    @property
    def estimated_qpf(self) -> int:
        """Total estimated QPF uses across all steps."""
        return sum(step.estimated_qpf for step in self.steps)

    def render(self) -> str:
        """Multi-line human-readable plan."""
        lines = [f"SELECT {self.projection} FROM {self.table}"]
        lines.extend("  -> " + step.render() for step in self.steps)
        lines.append(f"  estimated total: ~{self.estimated_qpf} QPF uses")
        return "\n".join(lines)


@dataclass(frozen=True)
class StepAnalysis:
    """One plan step annotated with what execution actually spent."""

    step: PlanStep
    actual_qpf: int
    wall_ms: float

    @property
    def error_ratio(self) -> float:
        """``(actual+1)/(estimated+1)`` — 1.0 means a perfect estimate."""
        return (self.actual_qpf + 1) / (self.step.estimated_qpf + 1)

    def render(self) -> str:
        """Single line: the step plus its actual cost and error ratio."""
        return (f"{self.step.render()}  "
                f"(actual {self.actual_qpf} QPF, "
                f"{self.wall_ms:.3f} ms, x{self.error_ratio:.2f})")


@dataclass(frozen=True)
class PlanAnalysis:
    """EXPLAIN ANALYZE output: the plan, per-step actuals, the answer."""

    plan: QueryPlan
    steps: tuple[StepAnalysis, ...]
    answer: object  # QueryAnswer; typed loosely to keep this layer leaf

    @property
    def estimated_qpf(self) -> int:
        return self.plan.estimated_qpf

    @property
    def actual_qpf(self) -> int:
        return self.answer.qpf_uses

    @property
    def error_ratio(self) -> float:
        """``(actual+1)/(estimated+1)`` over the whole query."""
        return (self.actual_qpf + 1) / (self.estimated_qpf + 1)

    def render(self) -> str:
        """Multi-line report: every step with estimates vs. actuals."""
        lines = [f"SELECT {self.plan.projection} FROM {self.plan.table}"]
        lines.extend("  -> " + step.render() for step in self.steps)
        lines.append(f"  estimated ~{self.estimated_qpf} QPF, "
                     f"actual {self.actual_qpf} QPF "
                     f"(x{self.error_ratio:.2f})")
        return "\n".join(lines)
