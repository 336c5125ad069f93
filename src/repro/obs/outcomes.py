"""Plan-outcome knowledge atoms: aggregation, SLOs and corrections.

The paper's idea is that *past results* make future selections cheap;
this module applies it one level up, to the planner itself.  Every
executed query yields one **knowledge atom** — a dict recording the
plan fingerprint, statement hash, tenant, chosen strategy, rejected
alternatives with their estimates, estimated vs actual QPF, wall time
and cache-hit flags (the querytorque "knowledge atom" shape).  Atoms
are durable in a :class:`~repro.obs.ledger.PlanOutcomeLedger` and
aggregated by an :class:`OutcomeStore`:

* per **step fingerprint** (``table|kind|attributes``): estimate-error
  statistics and a learned multiplicative *correction factor* — the
  clamped geometric mean of ``(actual+1)/(estimated+1)`` ratios — that
  :class:`~repro.plan.estimator.CostEstimator` can optionally load so
  the estimator remembers instead of guessing;
* per **plan fingerprint**: error percentiles for the whole plan;
* per **tenant**: latency/QPF percentiles against an :class:`SLOTarget`
  with an error-budget burn-rate gauge.

Only *exact* atoms teach the corrector: single-step plans (where the
step's actual equals the query's actual) and ``explain_analyze`` runs
(which carry audited per-step actuals).  Cached-equivalence steps
(estimate ~0) and baseline scans (estimate already exact) never learn.

Like the rest of ``repro.obs`` this module is a leaf: it imports
nothing from the repo at import time, so every layer can reach it
without cycles.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import deque
from dataclasses import dataclass

__all__ = [
    "OutcomeStore", "SLOTarget", "build_atom", "plan_fingerprint",
    "statement_hash", "step_key", "symmetric_error",
]

#: Ratio / latency samples retained per aggregation key (bounded so a
#: long-lived store stays O(keys), not O(queries)).
MAX_SAMPLES = 512


# --------------------------------------------------------------------- #
# fingerprints                                                           #
# --------------------------------------------------------------------- #

def statement_hash(sql: str) -> str:
    """Stable 12-hex digest of one SQL text (whitespace-trimmed)."""
    return hashlib.sha1(sql.strip().encode("utf-8")).hexdigest()[:12]


def step_key(table: str, kind: str, attributes) -> str:
    """The correction key of one plan step: ``table|kind|attributes``.

    This is the granularity the estimator learns at — per table, per
    dispatched operator kind, per attribute set — so a correction for
    ``t|prkb-between|X`` never contaminates ``t|prkb-sd|X``.
    """
    return f"{table}|{kind}|{','.join(attributes)}"


def plan_fingerprint(table: str, strategy: str, keyed_steps) -> str:
    """12-hex digest over a plan's shape.

    ``keyed_steps`` is an iterable of ``(step_key, cached)`` pairs; the
    cached bit is part of the shape because a cache-hit plan and its
    cold twin have genuinely different cost profiles.
    """
    blob = "|".join([table, strategy] + [
        f"{key}#c" if cached else key for key, cached in keyed_steps])
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]


def symmetric_error(estimated_qpf: int, actual_qpf: int) -> float:
    """``max(r, 1/r)`` of ``(actual+1)/(estimated+1)`` — always >= 1."""
    ratio = (actual_qpf + 1) / (estimated_qpf + 1)
    return max(ratio, 1.0 / ratio)


def build_atom(table: str, strategy: str, steps, sql_hash: str,
               tenant: str, estimated_qpf: int, actual_qpf: int,
               wall_ms: float, rows: int, ts: float,
               step_actuals=None) -> dict:
    """One knowledge atom for an executed plan.

    ``steps`` are :class:`~repro.plan.report.PlanStep`-like objects
    (``kind`` / ``attributes`` / ``estimated_qpf`` / ``cached`` /
    ``alternatives``) — duck-typed so this module stays a leaf.
    ``step_actuals`` carries audited per-step actual QPF when available
    (``explain_analyze``); without it, a single-step plan's actual is
    attributed exactly and a multi-step plan's per-step actuals stay
    ``None`` (the atom is then marked inexact and never teaches the
    corrector).
    """
    encoded = []
    keyed = []
    steps = list(steps)
    for position, step in enumerate(steps):
        key = step_key(table, step.kind, step.attributes)
        keyed.append((key, bool(step.cached)))
        actual = None
        if step_actuals is not None and position < len(step_actuals):
            actual = int(step_actuals[position])
        elif len(steps) == 1:
            actual = int(actual_qpf)
        encoded.append({
            "key": key,
            "kind": step.kind,
            "estimated": int(step.estimated_qpf),
            "actual": actual,
            "cached": bool(step.cached),
            "alternatives": [[kind, int(cost), float(leakage)]
                             for kind, cost, leakage in step.alternatives],
        })
        leakage = float(getattr(step, "leakage", 0.0))
        if leakage:
            encoded[-1]["leakage"] = leakage
    return {
        "ts": float(ts),
        "tenant": tenant,
        "sql_hash": sql_hash,
        "fingerprint": plan_fingerprint(table, strategy, keyed),
        "table": table,
        "strategy": strategy,
        "estimated_qpf": int(estimated_qpf),
        "actual_qpf": int(actual_qpf),
        "wall_ms": float(wall_ms),
        "rows": int(rows),
        "exact": all(s["actual"] is not None for s in encoded),
        "steps": encoded,
    }


# --------------------------------------------------------------------- #
# SLOs                                                                   #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class SLOTarget:
    """A per-tenant service-level objective.

    ``target_fraction`` of requests must finish within ``latency_ms``
    (and within ``qpf_per_query`` QPF uses, when set — QPF is this
    system's real cost unit, so a QPF objective is often the meaningful
    one).  The *burn rate* is the observed violation fraction divided
    by the allowed fraction (``1 - target_fraction``): 1.0 means the
    error budget is being spent exactly as fast as it accrues, above
    1.0 the tenant is on track to miss its SLO.
    """

    latency_ms: float = 100.0
    qpf_per_query: int | None = None
    target_fraction: float = 0.99

    def __post_init__(self):
        if self.latency_ms <= 0:
            raise ValueError("latency_ms must be positive")
        if self.qpf_per_query is not None and self.qpf_per_query < 1:
            raise ValueError("qpf_per_query must be positive")
        if not 0.0 < self.target_fraction < 1.0:
            raise ValueError("target_fraction must be in (0, 1)")

    def violated(self, wall_ms: float, qpf_uses: int) -> bool:
        """Whether one request missed this objective."""
        if wall_ms > self.latency_ms:
            return True
        return (self.qpf_per_query is not None
                and qpf_uses > self.qpf_per_query)


# --------------------------------------------------------------------- #
# aggregation                                                            #
# --------------------------------------------------------------------- #

class _StepStats:
    """Error statistics for one step fingerprint (correction input)."""

    __slots__ = ("count", "log_sum", "samples")

    def __init__(self):
        self.count = 0
        self.log_sum = 0.0
        self.samples: deque = deque(maxlen=MAX_SAMPLES)

    def add(self, ratio: float) -> None:
        self.count += 1
        self.log_sum += math.log(ratio)
        self.samples.append(ratio)

    @property
    def geomean(self) -> float:
        return math.exp(self.log_sum / self.count) if self.count else 1.0


class _FingerprintStats:
    """Whole-plan error statistics for one plan fingerprint."""

    __slots__ = ("count", "errors", "estimated_qpf", "actual_qpf")

    def __init__(self):
        self.count = 0
        self.errors: deque = deque(maxlen=MAX_SAMPLES)
        self.estimated_qpf = 0
        self.actual_qpf = 0


class _TenantStats:
    """Latency/QPF history and SLO tallies for one tenant."""

    __slots__ = ("count", "wall_ms", "qpf", "violations")

    def __init__(self):
        self.count = 0
        self.wall_ms: deque = deque(maxlen=MAX_SAMPLES)
        self.qpf: deque = deque(maxlen=MAX_SAMPLES)
        self.violations = 0


def _percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile of an iterable (0 when empty)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


class OutcomeStore:
    """Aggregates knowledge atoms into errors, SLOs and corrections.

    Thread-safe; one per database (``EncryptedDatabase.enable_outcomes``
    owns it and feeds it from the query path).  ``min_samples`` gates
    how many exact observations a step fingerprint needs before it
    yields a correction; ``clamp`` bounds every learned factor to
    ``[1/clamp, clamp]`` so a pathological history can never push an
    estimate more than ``clamp``× in either direction.
    """

    def __init__(self, slo: SLOTarget | None = None,
                 min_samples: int = 5, clamp: float = 8.0):
        if min_samples < 1:
            raise ValueError("min_samples must be positive")
        if clamp <= 1.0:
            raise ValueError("clamp must exceed 1.0")
        self.default_slo = slo or SLOTarget()
        self.min_samples = int(min_samples)
        self.clamp = float(clamp)
        self._slos: dict[str, SLOTarget] = {}
        self._steps: dict[str, _StepStats] = {}
        self._fingerprints: dict[str, _FingerprintStats] = {}
        self._tenants: dict[str, _TenantStats] = {}
        self._atoms = 0
        self._registry = None
        self._lock = threading.Lock()

    # -- configuration ---------------------------------------------------- #

    def set_slo(self, tenant: str, slo: SLOTarget) -> None:
        """Override the default SLO for one tenant."""
        with self._lock:
            self._slos[tenant] = slo

    def slo(self, tenant: str) -> SLOTarget:
        """The effective SLO for ``tenant``."""
        with self._lock:
            return self._slos.get(tenant, self.default_slo)

    def bind_metrics(self, registry) -> None:
        """Publish ``repro_outcome_*`` / ``repro_slo_*`` series.

        Pre-registers every family so a scrape shows them (at zero)
        before the first atom; per-tenant burn rates are set-gauges
        (labelled callbacks are not supported by the registry).
        """
        with self._lock:
            self._registry = registry
        registry.counter("repro_outcome_atoms_total",
                         "knowledge atoms recorded, by tenant",
                         ("tenant",))
        registry.counter("repro_slo_violations_total",
                         "requests that missed their tenant SLO",
                         ("tenant",))
        registry.gauge("repro_slo_burn_rate",
                       "SLO error-budget burn rate per tenant "
                       "(violation fraction / allowed fraction)",
                       ("tenant",))
        from .metrics import DEFAULT_RATIO_BUCKETS
        registry.histogram("repro_outcome_error_ratio",
                           "symmetric estimate error per atom, by tenant",
                           ("tenant",), buckets=DEFAULT_RATIO_BUCKETS)
        store = self
        registry.gauge("repro_outcome_fingerprints",
                       "distinct plan fingerprints observed",
                       callback=lambda: len(store._fingerprints))
        registry.gauge("repro_outcome_corrections",
                       "step fingerprints with enough samples to "
                       "yield a correction factor",
                       callback=lambda: sum(
                           1 for s in store._steps.values()
                           if s.count >= store.min_samples))

    # -- ingestion --------------------------------------------------------- #

    def ingest(self, atom: dict) -> None:
        """Fold one knowledge atom into every aggregate."""
        tenant = str(atom.get("tenant", "local"))
        estimated = int(atom.get("estimated_qpf", 0))
        actual = int(atom.get("actual_qpf", 0))
        wall_ms = float(atom.get("wall_ms", 0.0))
        error = symmetric_error(estimated, actual)
        with self._lock:
            self._atoms += 1
            fingerprint = self._fingerprints.setdefault(
                str(atom.get("fingerprint", "?")), _FingerprintStats())
            fingerprint.count += 1
            fingerprint.errors.append(error)
            fingerprint.estimated_qpf += estimated
            fingerprint.actual_qpf += actual
            if atom.get("exact"):
                for step in atom.get("steps", ()):
                    self._learn_step(step)
            tenants = self._tenants.setdefault(tenant, _TenantStats())
            tenants.count += 1
            tenants.wall_ms.append(wall_ms)
            tenants.qpf.append(actual)
            slo = self._slos.get(tenant, self.default_slo)
            violated = slo.violated(wall_ms, actual)
            if violated:
                tenants.violations += 1
            burn = ((tenants.violations / tenants.count)
                    / (1.0 - slo.target_fraction))
            registry = self._registry
        if registry is not None:
            registry.counter("repro_outcome_atoms_total",
                             labelnames=("tenant",)).inc(tenant=tenant)
            if violated:
                registry.counter("repro_slo_violations_total",
                                 labelnames=("tenant",)).inc(tenant=tenant)
            registry.gauge("repro_slo_burn_rate",
                           labelnames=("tenant",)).set(burn, tenant=tenant)
            registry.histogram("repro_outcome_error_ratio",
                               labelnames=("tenant",)).observe(
                                   error, tenant=tenant)

    def _learn_step(self, step: dict) -> None:
        """Feed one exact step into the correction statistics.

        Cached-equivalence steps (estimate ~0 by design) and baseline
        scans (estimate already exact: one QPF per row) are skipped —
        correcting them would only add noise.
        """
        if step.get("cached") or step.get("actual") is None:
            return
        if str(step.get("kind", "")).startswith("baseline"):
            return
        ratio = (int(step["actual"]) + 1) / (int(step["estimated"]) + 1)
        self._steps.setdefault(step["key"], _StepStats()).add(ratio)

    def ingest_many(self, atoms) -> int:
        """Ingest an iterable of atoms; returns how many were folded."""
        count = 0
        for atom in atoms:
            self.ingest(atom)
            count += 1
        return count

    @classmethod
    def load(cls, source, **kwargs) -> "OutcomeStore":
        """A store built from a ledger (object or on-disk path)."""
        from .ledger import PlanOutcomeLedger, read_ledger

        store = cls(**kwargs)
        if isinstance(source, PlanOutcomeLedger):
            atoms = source.read()
        else:
            atoms = read_ledger(source).atoms
        store.ingest_many(atoms)
        return store

    # -- corrections -------------------------------------------------------- #

    def corrections(self) -> dict[str, float]:
        """Learned per-step-fingerprint factors, clamped and gated.

        The factor is the geometric mean of the step's observed
        ``(actual+1)/(estimated+1)`` ratios — the maximum-likelihood
        multiplicative bias under log-normal error — clamped to
        ``[1/clamp, clamp]``.  Keys with fewer than ``min_samples``
        exact observations yield nothing.
        """
        with self._lock:
            out = {}
            for key, stats in self._steps.items():
                if stats.count < self.min_samples:
                    continue
                factor = min(max(stats.geomean, 1.0 / self.clamp),
                             self.clamp)
                out[key] = factor
            return out

    # -- reporting ---------------------------------------------------------- #

    @property
    def atoms(self) -> int:
        """Total knowledge atoms ingested."""
        with self._lock:
            return self._atoms

    def report(self) -> dict:
        """Error statistics: overall, per fingerprint, per step key."""
        with self._lock:
            all_errors = [e for stats in self._fingerprints.values()
                          for e in stats.errors]
            fingerprints = {
                fp: {
                    "count": stats.count,
                    "error_p50": _percentile(stats.errors, 0.50),
                    "error_p90": _percentile(stats.errors, 0.90),
                    "estimated_qpf": stats.estimated_qpf,
                    "actual_qpf": stats.actual_qpf,
                }
                for fp, stats in self._fingerprints.items()
            }
            steps = {
                key: {
                    "count": stats.count,
                    "geomean_ratio": stats.geomean,
                    "corrects": stats.count >= self.min_samples,
                }
                for key, stats in self._steps.items()
            }
            atoms = self._atoms
            tenants = sorted(self._tenants)
        return {
            "atoms": atoms,
            "error_p50": _percentile(all_errors, 0.50),
            "error_p90": _percentile(all_errors, 0.90),
            "fingerprints": fingerprints,
            "steps": steps,
            "corrections": self.corrections(),
            "tenants": tenants,
        }

    def tenant_reports(self) -> dict:
        """Per-tenant latency/QPF percentiles and SLO standing."""
        with self._lock:
            out = {}
            for tenant, stats in self._tenants.items():
                slo = self._slos.get(tenant, self.default_slo)
                met = (1.0 - stats.violations / stats.count
                       if stats.count else 1.0)
                burn = ((stats.violations / stats.count)
                        / (1.0 - slo.target_fraction)
                        if stats.count else 0.0)
                out[tenant] = {
                    "count": stats.count,
                    "latency_ms": {
                        "p50": _percentile(stats.wall_ms, 0.50),
                        "p90": _percentile(stats.wall_ms, 0.90),
                        "p99": _percentile(stats.wall_ms, 0.99),
                    },
                    "qpf": {
                        "p50": _percentile(stats.qpf, 0.50),
                        "p90": _percentile(stats.qpf, 0.90),
                    },
                    "slo": {
                        "latency_ms": slo.latency_ms,
                        "qpf_per_query": slo.qpf_per_query,
                        "target_fraction": slo.target_fraction,
                        "violations": stats.violations,
                        "met_fraction": met,
                        "burn_rate": burn,
                    },
                }
            return out
