"""Cross-query batched QPF execution (the roundtrip coalescing layer).

The paper optimises the *number* of QPF uses; a production service
provider is bounded just as hard by the number of *enclave roundtrips* —
every ``evaluate_batch`` call crosses the trusted boundary, and a warm
PRKB issues many tiny calls (endpoint samples, binary-search probes, two
NS-partition scans) per query.  This module amortises those crossings
across concurrently submitted queries:

* :class:`QPFBatcher` — a request accumulator.  Pending
  :class:`~repro.edbms.qpf.QPFRequest` entries are grouped by
  ``(trapdoor.serial, table)``, identical ``(serial, uid)`` probes are
  deduplicated, same-trapdoor payloads are merged, and the whole pile is
  shipped through a single :meth:`batch_many` crossing; labels are
  fanned back out to each submitter.
* :class:`BatchExecutor` — a cooperative lock-step scheduler.  Each
  query's PRKB pipeline is a request generator
  (:meth:`~repro.core.prkb.PRKBIndex.select_steps`) reading a frozen
  chain snapshot; the executor advances all live pipelines one step at a
  time, flushing one coalesced roundtrip per step.  A window of B warm
  queries therefore completes in roughly ``max`` (not ``sum``) of their
  step counts.  Completed queries commit their deferred POP splits
  immediately, so the next *window* starts from a finer chain —
  PRKB refinements compound across the burst.

Accounting is two-level by design: the shared
:class:`~repro.edbms.costs.CostCounter` records *physical* work (deduped
payload sizes, actual roundtrips), while every :class:`BatchAnswer`
carries the query's *logical* ``qpf_uses`` (what it would have paid
alone) plus its fractional ``roundtrip_share`` of the flushes it rode
in, so per-query cost reporting stays exact under sharing.

Everything is deterministic and single-threaded — "concurrency" here is
cooperative scheduling, not threads — so batched answers are
reproducible and byte-identical (as sets) to serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..distinct import distinct_inverse
from .costs import CostCounter
from .qpf import QPFRequest

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a layer cycle
    from ..core.prkb import PRKBIndex
    from ..crypto.trapdoor import EncryptedPredicate

__all__ = ["QPFBatcher", "BatchExecutor", "BatchJob", "BatchAnswer"]

_EMPTY = np.zeros(0, dtype=np.uint64)


class _Group:
    """All pending probes of one (trapdoor, table) pair, deduplicated.

    Submitted uid arrays are only *chunked* here (an O(1) append each);
    deduplication happens once per flush with a single sort over
    the concatenated chunks, whose inverse mapping fans the labels back
    out to every submitter.  The payload ships the (sorted) unique uids —
    labels are per-uid, so neither accounting nor answers depend on the
    payload's internal order.
    """

    __slots__ = ("trapdoor", "table", "_chunks", "_offsets", "_inverse",
                 "labels")

    def __init__(self, trapdoor, table):
        self.trapdoor = trapdoor
        self.table = table
        self._chunks: list[np.ndarray] = []
        self._offsets: list[int] = [0]
        self._inverse: np.ndarray | None = None
        self.labels: np.ndarray | None = None

    def place(self, uids: np.ndarray) -> int:
        """File one uid chunk; returns its chunk number within the group."""
        self._chunks.append(uids)
        self._offsets.append(self._offsets[-1] + int(uids.size))
        return len(self._chunks) - 1

    def payload(self) -> QPFRequest:
        """The deduplicated crossing payload (computes the fan-out map)."""
        if len(self._chunks) == 1:
            # One submitter: its probe array is duplicate-free by
            # construction (endpoint samples, partition members, whole
            # tables), so the chunk *is* the payload.  Skipping the
            # deduplicating sort here is what keeps small windows from
            # paying more flush overhead than serial execution saves.
            self._inverse = None
            return QPFRequest(self.trapdoor, self.table, self._chunks[0])
        stacked = np.concatenate(self._chunks)
        unique, self._inverse = distinct_inverse(stacked)
        return QPFRequest(self.trapdoor, self.table, unique)

    def labels_for(self, chunk: int) -> np.ndarray:
        """The submitted chunk's labels, in its own uid order."""
        assert self.labels is not None
        if self._inverse is None:
            return self.labels
        return self.labels[
            self._inverse[self._offsets[chunk]:self._offsets[chunk + 1]]]


class QPFBatcher:
    """Queue QPF evaluations from many queries; flush them as one roundtrip.

    ``submit`` returns a ticket; after ``flush`` the label array for each
    ticket is available from the returned list (tickets index it).  The
    flush dedups identical ``(trapdoor.serial, uid)`` probes and merges
    same-trapdoor requests, then crosses the enclave boundary exactly
    once via ``batch_many`` — the physical counter sees the deduped
    payload, every submitter sees exactly the labels it asked for.
    """

    def __init__(self, qpf):
        self.qpf = qpf
        self._placements: list[tuple[_Group, np.ndarray]] = []
        self._groups: dict[tuple[int, int], _Group] = {}

    @property
    def pending(self) -> int:
        """Number of requests queued since the last flush."""
        return len(self._placements)

    def submit(self, request: QPFRequest) -> int:
        """Queue one request; returns its ticket for the next flush."""
        key = (request.trapdoor.serial, id(request.table))
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(request.trapdoor,
                                               request.table)
        self._placements.append((group, group.place(request.uids)))
        return len(self._placements) - 1

    def flush(self) -> list[np.ndarray]:
        """Ship everything queued in one crossing; fan the labels out."""
        placements, self._placements = self._placements, []
        groups, self._groups = self._groups, {}
        if not placements:
            return []
        tracer = self.qpf.counter.tracer
        if tracer is None:
            fused = [group.payload() for group in groups.values()]
            for group, labels in zip(groups.values(),
                                     self.qpf.batch_many(fused)):
                group.labels = labels
        else:
            with tracer.span("qpf.flush", requests=len(placements),
                             groups=len(groups)) as fspan:
                fused = [group.payload() for group in groups.values()]
                fspan.set(payload=int(sum(r.uids.size for r in fused)))
                for group, labels in zip(groups.values(),
                                         self.qpf.batch_many(fused)):
                    group.labels = labels
        return [group.labels_for(chunk) for group, chunk in placements]


@dataclass(frozen=True)
class BatchJob:
    """One query submitted to the executor.

    ``kind`` picks the path: ``"prkb"`` (indexed comparison — joins the
    lock-step window), ``"between"`` (indexed BETWEEN — serial fallback
    through :class:`~repro.core.between.BetweenProcessor`) or ``"scan"``
    (unindexed — one full-table QPF scan).
    """

    kind: str
    trapdoor: "EncryptedPredicate"
    table: object
    index: "PRKBIndex | None" = None

    @classmethod
    def dispatch(cls, trapdoor: "EncryptedPredicate", table: object,
                 index: "PRKBIndex | None") -> "BatchJob":
        """Build the job for one trapdoor from catalog facts.

        ``index`` is the attribute's PRKB index or ``None`` — unindexed
        predicates scan, indexed BETWEEN takes the serial fallback, and
        indexed comparisons join the lock-step window.  Keeping the
        kind-dispatch here (next to the executor that interprets it)
        means callers only supply what the catalog knows.
        """
        if index is None:
            return cls("scan", trapdoor, table)
        if trapdoor.kind == "between":
            return cls("between", trapdoor, table, index)
        return cls("prkb", trapdoor, table, index)


@dataclass(frozen=True)
class BatchAnswer:
    """Per-query outcome of a batched execution.

    ``qpf_uses`` is the query's *logical* consumption (independent of
    sharing); ``roundtrip_share`` is its fractional share of the
    physical roundtrips it rode in (summing shares over a window gives
    the window's physical roundtrip count).  ``winners`` is strictly
    increasing ``uint64``, like every selection answer.
    """

    winners: np.ndarray
    qpf_uses: int
    roundtrip_share: float
    was_equivalent: bool = False
    trace_id: int | None = None

    @property
    def count(self) -> int:
        """Number of matching tuples."""
        return int(self.winners.size)


@dataclass
class _QueryState:
    """Book-keeping for one in-flight pipeline in a window."""

    position: int
    index: "PRKBIndex"
    steps: object
    request: QPFRequest | None = None
    roundtrip_share: float = 0.0
    labels: np.ndarray | None = None
    started: bool = field(default=False)
    span: object = None


class BatchExecutor:
    """Advance many PRKB pipelines in lock step, one roundtrip per step."""

    def __init__(self, qpf):
        self.qpf = qpf

    def run(self, jobs: Sequence[BatchJob], update: bool = True,
            window: int | None = None) -> list[BatchAnswer]:
        """Execute all jobs; answers align with the job order.

        ``window`` caps how many PRKB pipelines fly together (``None`` =
        all at once).  Completed windows commit their POP splits before
        the next window freezes its snapshot, so refinements compound
        through the burst.  Non-PRKB jobs run serially after the
        windows.
        """
        answers: list[BatchAnswer | None] = [None] * len(jobs)
        prkb = [(i, job) for i, job in enumerate(jobs)
                if job.kind == "prkb"]
        rest = [(i, job) for i, job in enumerate(jobs)
                if job.kind != "prkb"]
        size = window if window and window > 0 else max(1, len(prkb))
        for start in range(0, len(prkb), size):
            self._run_window(prkb[start:start + size], update, answers)
        for position, job in rest:
            answers[position] = self._run_serial(job, update)
        committed: set[int] = set()
        for __, job in prkb:
            if job.index is not None and id(job.index) not in committed:
                committed.add(id(job.index))
                job.index.commit_journal()
        return answers  # type: ignore[return-value]

    # -- the lock-step window ------------------------------------------- #

    def _run_window(self, chunk: list[tuple[int, BatchJob]], update: bool,
                    answers: list) -> None:
        tracer = self.qpf.counter.tracer
        active: list[_QueryState] = []
        aliases: list[tuple[int, int]] = []
        first_of: dict[tuple[int, int], int] = {}
        views: dict[int, object] = {}
        for position, job in chunk:
            key = (job.trapdoor.serial, id(job.index))
            if key in first_of:
                # Identical trapdoor resubmitted in the same window: run
                # the pipeline once, alias the answer.
                aliases.append((position, first_of[key]))
                continue
            first_of[key] = position
            view = views.get(id(job.index))
            if view is None:
                view = views[id(job.index)] = job.index.pop.freeze()
            span = None
            if tracer is not None:
                # Each batched query gets its own trace: phase spans
                # produced by the generator attach here even though the
                # engine's window span is on the stack.
                span = tracer.begin("batch.query", parent=None,
                                    position=position,
                                    attribute=job.index.attribute)
            steps = job.index.select_steps(job.trapdoor, update=update,
                                           view=view, span=span)
            state = _QueryState(position=position, index=job.index,
                                steps=steps, span=span)
            if self._advance(state, answers):
                active.append(state)
        batcher = QPFBatcher(self.qpf)
        while active:
            tickets = [batcher.submit(state.request) for state in active]
            label_lists = batcher.flush()
            share = 1.0 / len(active)
            survivors = []
            for state, ticket in zip(active, tickets):
                state.roundtrip_share += share
                state.labels = label_lists[ticket]
                if self._advance(state, answers):
                    survivors.append(state)
            active = survivors
        for position, source in aliases:
            original = answers[source]
            trace_id = None
            if tracer is not None:
                aspan = tracer.begin("batch.alias", parent=None,
                                     position=position,
                                     source=original.trace_id)
                tracer.finish(aspan, qpf_uses=0)
                trace_id = aspan.trace_id
            # The duplicate consumed nothing: its twin's work answers it.
            answers[position] = BatchAnswer(
                winners=original.winners, qpf_uses=0, roundtrip_share=0.0,
                was_equivalent=True, trace_id=trace_id)

    def _advance(self, state: _QueryState, answers: list) -> bool:
        """Step one pipeline; returns False (and records) on completion."""
        try:
            if not state.started:
                state.started = True
                state.request = next(state.steps)
            else:
                state.request = state.steps.send(state.labels)
            return True
        except StopIteration as stop:
            result, deferred = stop.value
            # No rotation inside a window: siblings still answer spans
            # of the frozen view, which a merge would break.
            if state.span is None:
                if deferred is not None:
                    state.index._commit_split(deferred, rotate=False)
            else:
                tracer = self.qpf.counter.tracer
                uspan = tracer.begin("prkb.update", parent=state.span)
                committed = (deferred is not None
                             and state.index._commit_split(deferred,
                                                           rotate=False))
                tracer.finish(uspan.set(split=bool(committed)), qpf_uses=0)
            if result.partitions_after != state.index.pop.num_partitions:
                result = replace(
                    result,
                    partitions_after=state.index.pop.num_partitions)
            trace_id = None
            if state.span is not None:
                # Totals as *attributes* (not costs): phase spans below
                # this root already carry the qpf attribution exactly.
                state.span.set(qpf_uses_total=result.qpf_uses,
                               equivalent=result.was_equivalent)
                self.qpf.counter.tracer.finish(state.span)
                trace_id = state.span.trace_id
            answers[state.position] = BatchAnswer(
                winners=result.winners,
                qpf_uses=result.qpf_uses,
                roundtrip_share=state.roundtrip_share,
                was_equivalent=result.was_equivalent,
                trace_id=trace_id)
            return False

    # -- serial fallbacks ----------------------------------------------- #

    def _run_serial(self, job: BatchJob, update: bool) -> BatchAnswer:
        counter: CostCounter = self.qpf.counter
        tracer = counter.tracer
        span = None
        if tracer is not None:
            span = tracer.begin("batch.serial", parent=None, kind=job.kind)
            tracer._push(span)
        before = counter.snapshot()
        try:
            if job.kind == "between":
                from ..core.between import BetweenProcessor

                winners = BetweenProcessor(job.index).select(job.trapdoor,
                                                             update=update)
            elif job.kind == "scan":
                labels = self.qpf.batch(job.trapdoor, job.table,
                                        job.table.uids)
                winners = np.sort(job.table.uids[labels])
            else:
                raise ValueError(f"unknown job kind {job.kind!r}")
        finally:
            spent = counter.diff(before)
            if span is not None:
                tracer._pop(span)
                # Serial sections own the counter: the delta is exact.
                tracer.finish(span, qpf_uses=spent.qpf_uses)
        return BatchAnswer(winners=winners, qpf_uses=spent.qpf_uses,
                           roundtrip_share=float(spent.qpf_roundtrips),
                           trace_id=span.trace_id if span else None)
