"""Span tracer the benchmark installs around the program's layer boundaries.

The program is traced from outside: :data:`TARGETS` names the public
entry points of each layer, :meth:`Tracer.installed` swaps each one for a
timing wrapper and restores the original afterwards, and nothing under
``src/`` is edited.  ``enable_observability()`` is never called, so the
program runs the same untraced branches as in the end-to-end pass.

Every span records name, start, end, parent and the request (root span) it
belongs to.  A span's *self* time is its duration minus the time its child
spans cover, so the self times of all spans add up to the duration of the
root spans: the per-layer seconds tile the time the benchmark's own op
timers saw, and ``trace.tiling_gap_share`` reports how closely.

A target that no longer resolves (renamed or deleted by a later change) is
skipped and counted in ``trace.unresolved_targets``; its time then shows
up as self time of the enclosing layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

#: Spans written to ``trace.json`` per workload; all spans are aggregated.
MAX_EXPORTED_SPANS = 40_000


@dataclass(frozen=True)
class Target:
    """One callable to wrap and the per-layer metrics it feeds."""

    path: str                       # "package.module:Owner.attribute"
    time: str                       # metric receiving the span's self time
    calls: str | None = None        # metric counting calls
    qpf: str | None = None          # metric receiving QPF spent in the span
    on_result: Callable | None = None
    #: Cross-thread linking for the serving pool, keyed by tenant: a span
    #: that ``offers`` itself is the parent of a span that ``adopts`` the
    #: same key on a thread with no open span (closed loop: one request in
    #: flight per tenant).
    offers: Callable | None = None
    adopts: Callable | None = None


# Result hooks read public result fields through ``getattr`` defaults so a
# later change to a result type costs a counter, not the whole traced pass.

def _note_estimate(state, span, plan) -> None:
    span.root.notes["estimated"] = getattr(plan, "estimated_qpf", None)


def _note_actual(state, span, answer) -> None:
    estimated = span.root.notes.pop("estimated", None)
    actual = getattr(answer, "qpf_uses", None)
    if estimated is not None and actual is not None:
        state.ratios.append((actual + 1) / (estimated + 1))


def _note_phases(state, span, result) -> None:
    counts = state.counts
    for phase, spent in getattr(result, "phase_qpf", {}).items():
        key = f"core.prkb.{phase}_qpf"
        counts[key] = counts.get(key, 0) + spent
    if getattr(result, "was_equivalent", False):
        counts["core.prkb.equivalent_selects"] = \
            counts.get("core.prkb.equivalent_selects", 0) + 1


def _tenant_arg(args) -> str:
    return args[1]


def _tenant_of_self(args) -> str:
    return args[0].tenant


TARGETS: tuple[Target, ...] = (
    # edbms.engine: the query / write root spans.  Result assembly, winner
    # sorting and anything not wrapped below stay here as self time.
    Target("repro.edbms.engine:EncryptedDatabase.query",
           "edbms.engine.query_self_s"),
    Target("repro.edbms.engine:EncryptedDatabase._query_with",
           "edbms.engine.query_self_s", on_result=_note_actual),
    Target("repro.edbms.engine:EncryptedDatabase.insert",
           "edbms.engine.insert_self_s"),
    Target("repro.edbms.engine:EncryptedDatabase.delete",
           "edbms.engine.delete_self_s"),
    Target("repro.edbms.engine:EncryptedDatabase.open",
           "edbms.engine.open_self_s"),
    # edbms.sql
    Target("repro.edbms.engine:EncryptedDatabase._parse",
           "edbms.sql.parse_s", calls="edbms.sql.memo_lookups"),
    Target("repro.edbms.engine:parse_select",
           "edbms.sql.parse_s", calls="edbms.sql.parse_calls"),
    # plan
    Target("repro.plan.planner:Planner.plan", "plan.plan_s",
           calls="plan.plan_calls", on_result=_note_estimate),
    Target("repro.plan.planner:Planner.plan_batch", "plan.plan_s",
           calls="plan.plan_calls"),
    Target("repro.plan.schemes:HybridDispatch.scheme_estimates",
           "plan.schemes.estimate_s"),
    # crypto.trapdoor
    Target("repro.plan.planner:Planner.seal_comparison",
           "crypto.trapdoor.seal_s", calls="crypto.trapdoor.memo_lookups"),
    Target("repro.edbms.owner:DataOwner.comparison_trapdoor",
           "crypto.trapdoor.seal_s", calls="crypto.trapdoor.seal_calls"),
    Target("repro.edbms.owner:DataOwner.between_trapdoor",
           "crypto.trapdoor.seal_s", calls="crypto.trapdoor.seal_calls"),
    # edbms.qpf
    Target("repro.edbms.qpf:QueryProcessingFunction.batch",
           "edbms.qpf.busy_s", calls="edbms.qpf.calls"),
    Target("repro.edbms.qpf:QueryProcessingFunction.batch_many",
           "edbms.qpf.busy_s", calls="edbms.qpf.calls"),
    Target("repro.edbms.qpf:QueryProcessingFunction.__call__",
           "edbms.qpf.busy_s", calls="edbms.qpf.calls"),
    # core.prkb
    Target("repro.edbms.server:ServiceProvider.select",
           "core.prkb.select_s"),
    Target("repro.edbms.server:ServiceProvider.select_baseline",
           "core.prkb.select_s"),
    Target("repro.edbms.server:ServiceProvider.answer_batch",
           "core.prkb.select_s"),
    Target("repro.core.prkb:PRKBIndex.select", "core.prkb.select_s",
           calls="core.prkb.selects", on_result=_note_phases),
    # core.partitions
    Target("repro.core.partitions:PartialOrderPartitions.split",
           "core.partitions.split_s", calls="core.partitions.split_calls"),
    # core.multi
    Target("repro.edbms.server:ServiceProvider.select_range",
           "core.multi.select_s", qpf="core.multi.qpf_uses"),
    Target("repro.core.multi:MultiDimensionProcessor.select",
           "core.multi.select_s"),
    # core.updates
    Target("repro.core.updates:TableUpdater.insert_plain",
           "core.updates.insert_s", calls="core.updates.insert_calls",
           qpf="core.updates.insert_qpf"),
    Target("repro.core.updates:TableUpdater.insert_encrypted",
           "core.updates.insert_s"),
    Target("repro.core.updates:TableUpdater.delete",
           "core.updates.delete_s"),
    # edbms.durability
    Target("repro.edbms.durability.wal:WALWriter.append",
           "edbms.durability.wal_append_s"),
    Target("repro.edbms.durability.wal:WALWriter.sync",
           "edbms.durability.wal_sync_s"),
    Target("repro.edbms.engine:EncryptedDatabase.checkpoint",
           "edbms.durability.checkpoint_s"),
    Target("repro.edbms.durability.manager:DurabilityManager.checkpoint_all",
           "edbms.durability.checkpoint_s"),
    Target("repro.edbms.durability.recovery:RecoveryManager.recover",
           "edbms.durability.recovery_replay_s"),
    # obs
    Target("repro.obs.ledger:PlanOutcomeLedger.append",
           "obs.ledger.append_s"),
    Target("repro.obs.outcomes:OutcomeStore.ingest",
           "obs.outcomes.ingest_s"),
    # serve
    Target("repro.serve.server:QueryServer.query", "serve.dispatch_s",
           offers=_tenant_arg),
    Target("repro.serve.server:QueryServer.submit", "serve.dispatch_s"),
    Target("repro.serve.admission:AdmissionController.admit",
           "serve.admit_s"),
    Target("repro.serve.admission:AdmissionController.release",
           "serve.admit_s", adopts=_tenant_arg),
    Target("repro.serve.session:Session.query", "serve.session_s",
           adopts=_tenant_of_self),
    # edbms.hybrid
    Target("repro.edbms.hybrid:HybridMaterializer.ope_column",
           "edbms.hybrid.materialize_s.ope"),
    Target("repro.crypto.ope:OrderPreservingEncryption.encrypt_many",
           "edbms.hybrid.materialize_s.ope",
           calls="edbms.hybrid.artifact_builds"),
    Target("repro.edbms.hybrid:HybridMaterializer.src_index",
           "edbms.hybrid.materialize_s.src"),
    Target("repro.baselines.log_src_i:LogSRCiIndex.__init__",
           "edbms.hybrid.materialize_s.src",
           calls="edbms.hybrid.artifact_builds"),
    Target("repro.edbms.hybrid:HybridMaterializer.shared_table",
           "edbms.hybrid.materialize_s.shares"),
    Target("repro.edbms.hybrid:HybridMaterializer.mpc_index",
           "edbms.hybrid.materialize_s.shares"),
    Target("repro.edbms.hybrid:share_table",
           "edbms.hybrid.materialize_s.shares",
           calls="edbms.hybrid.artifact_builds"),
    Target("repro.edbms.hybrid:HybridMaterializer.ope_select",
           "edbms.hybrid.select_s"),
    Target("repro.edbms.hybrid:HybridMaterializer.src_select",
           "edbms.hybrid.select_s"),
    Target("repro.edbms.hybrid:HybridMaterializer.mpc_select",
           "edbms.hybrid.select_s"),
    Target("repro.edbms.sdb_backend:MPCQueryProcessingFunction.batch",
           "edbms.hybrid.mpc_qpf_s"),
    Target("repro.edbms.sdb_backend:MPCQueryProcessingFunction.batch_many",
           "edbms.hybrid.mpc_qpf_s"),
)


class Span:
    """One timed call; ``root`` is the request it belongs to."""

    __slots__ = ("id", "parent", "root", "name", "start", "end",
                 "child_ns", "tid", "notes")

    def __init__(self, span_id, parent, name, tid):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.tid = tid
        self.child_ns = 0
        if parent is None:
            self.root = self
            self.notes = {}
        else:
            self.root = parent.root
            self.notes = None
        self.start = 0
        self.end = 0


class _ThreadState:
    """Per-thread stack and tallies (merged by :meth:`Tracer.totals`)."""

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.ratios: list[float] = []


class Tracer:
    """Installs the wrappers and keeps every span in memory."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._offers: dict[str, Span] = {}
        self._ids = itertools.count(1)
        #: The program's ``CostCounter``; set by the workload so targets
        #: with a ``qpf`` metric can meter the QPF spent inside them.
        self.counter = None
        self.unresolved: list[str] = []

    # -- installing ------------------------------------------------------ #

    @contextmanager
    def installed(self):
        """Wrap every resolvable target; restore the originals on exit."""
        patched = []
        self.unresolved = []
        try:
            for target in TARGETS:
                resolved = _resolve(target.path)
                if resolved is None:
                    self.unresolved.append(target.path)
                    continue
                owner, name, raw = resolved
                patched.append((owner, name, raw))
                setattr(owner, name, self._rewrap(target, raw))
            yield self
        finally:
            for owner, name, raw in reversed(patched):
                setattr(owner, name, raw)

    def _rewrap(self, target: Target, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(target, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(target, raw.__func__))
        return self._wrap(target, raw)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, target: Target, fn):
        tracer = self
        name, calls_key, qpf_key = target.time, target.calls, target.qpf
        on_result, offers, adopts = (target.on_result, target.offers,
                                     target.adopts)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
            elif adopts is not None:
                parent = tracer._offers.get(adopts(args))
            else:
                parent = None
            span = Span(next(tracer._ids), parent, name, state.tid)
            if offers is not None:
                tracer._offers[offers(args)] = span
            qpf_before = tracer.counter.qpf_uses if qpf_key else 0
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = end = perf_counter_ns()
                stack.pop()
                duration = end - span.start
                if parent is not None:
                    parent.child_ns += duration
                self_ns = state.self_ns
                self_ns[name] = self_ns.get(name, 0) + duration \
                    - span.child_ns
                state.spans.append(span)
                if offers is not None:
                    tracer._offers.pop(offers(args), None)
            counts = state.counts
            if calls_key is not None:
                counts[calls_key] = counts.get(calls_key, 0) + 1
            if qpf_key is not None:
                counts[qpf_key] = counts.get(qpf_key, 0) \
                    + tracer.counter.qpf_uses - qpf_before
            if on_result is not None:
                on_result(state, span, result)
            return result

        return traced

    # -- reading --------------------------------------------------------- #

    def totals(self) -> tuple[dict[str, float], dict[str, int], list[float]]:
        """``(self seconds by metric, counts by metric, estimate ratios)``
        summed over every thread that ran a traced call."""
        seconds: dict[str, float] = {}
        counts: dict[str, int] = {}
        ratios: list[float] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, spent in state.self_ns.items():
                seconds[name] = seconds.get(name, 0.0) + spent / 1e9
            for name, count in state.counts.items():
                counts[name] = counts.get(name, 0) + count
            ratios.extend(state.ratios)
        return seconds, counts, ratios

    def chrome_events(self) -> tuple[list[dict], int]:
        """Chrome-trace ``X`` events (first :data:`MAX_EXPORTED_SPANS` by
        start time) and the number of spans left out."""
        with self._lock:
            states = list(self._states)
        spans = sorted((span for state in states for span in state.spans),
                       key=lambda span: span.start)
        dropped = max(0, len(spans) - MAX_EXPORTED_SPANS)
        events = [{
            "name": span.name,
            "cat": span.name.rsplit(".", 1)[0],
            "ph": "X",
            "ts": span.start / 1e3,
            "dur": (span.end - span.start) / 1e3,
            "pid": 1,
            "tid": span.tid,
            "args": {"id": span.id,
                     "parent": None if span.parent is None
                     else span.parent.id,
                     "request": span.root.id},
        } for span in spans[:MAX_EXPORTED_SPANS]]
        return events, dropped


def _resolve(path: str):
    """``(owner, attribute name, raw attribute)`` for a target path, or
    ``None`` when any part of it no longer exists."""
    module_name, _, attribute_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = attribute_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name)
    if raw is None or isinstance(raw, property):
        return None
    return owner, name, raw
