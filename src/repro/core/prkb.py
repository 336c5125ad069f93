"""PRKB — the past result knowledge base index (Sec. 4, 5 and 7).

One :class:`PRKBIndex` instance covers one attribute of one encrypted
table.  It owns the POP chain, the stored *separator* predicates needed for
insert handling, and implements the paper's four algorithms:

* ``initPRKB``  — the constructor (single all-covering partition),
* ``_qfilter_gen`` — Algorithm 1: sampling + binary search for the NS-pair,
* ``_qscan_gen``   — Algorithm 2: bounded scan with early stop,
* ``_plan_split`` / ``_commit_split`` — ``updatePRKB``: split the
  non-homogeneous partition and record the new separator, at zero extra
  QPF cost.

Everything here runs server-side only: the index consumes nothing but QPF
outputs, which is the paper's central security argument (Sec. 3.3).

Batched execution
-----------------
The pipeline is written as *generators of QPF requests*
(:meth:`PRKBIndex.select_steps`): each step yields one
:class:`~repro.edbms.qpf.QPFRequest` and receives the label array back.
Run serially (:meth:`PRKBIndex.select`) this is exactly the paper's
pipeline — same sample draws, same ``qpf_uses``.  The batching layer
(:mod:`repro.edbms.batching`) instead advances many queries' generators
in lock step and ships one coalesced payload per step, so concurrent
queries share enclave roundtrips.  Pipelines read only a frozen
:class:`~repro.core.partitions.ChainView`; refinements are returned as
:class:`DeferredSplit` plans and committed when each query completes,
skipped harmlessly if a sibling query already split the same partition.
The answer itself is read out of the live chain in uid order when the
pipeline completes: the snapshot's winner span is still a run of whole
live partitions, since siblings only split.
"""

from __future__ import annotations

import secrets
import threading
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace

import numpy as np

from ..crypto.primitives import _WORD_MASK, _mix64
from ..crypto.trapdoor import EncryptedPredicate
from ..edbms.encryption import EncryptedTable
from ..edbms.qpf import QPFRequest, QueryProcessingFunction, drive
from .locks import SnapshotLock
from .partitions import ChainView, PartialOrderPartitions, Partition

__all__ = ["PRKBIndex", "QFilterOutcome", "QScanOutcome", "SelectionResult",
           "DeferredSplit", "EQUIVALENCE_CACHE_SIZE", "HEALTH_HISTORY"]

#: Bound on the serial → separator equivalence cache (Case 1 fast path).
EQUIVALENCE_CACHE_SIZE = 256

#: How many recent queries :meth:`PRKBIndex.health` aggregates over.
HEALTH_HISTORY = 256


@dataclass(eq=False)  # identity semantics: partners reference each other
class _Separator:
    """A stored past predicate that cuts the chain at one boundary.

    For a comparison predicate, ``prefix_label`` is the QPF output of the
    trapdoor on *every* tuple in the partitions at or before the boundary;
    the complement holds after it.  This is exactly the information
    Sec. 7.1's O(log k) insertion binary search needs.

    For a boundary created by a BETWEEN predicate (Appendix A), the output
    is only *one-sided* decisive: ``edge == "low"`` means a 1-output
    certifies the tuple lies after the boundary (it is >= the band's low
    end), ``edge == "high"`` means a 1-output certifies it lies at or
    before the boundary.  A 0-output ("outside the band") is ambiguous on
    its own; :meth:`PRKBIndex._narrow` resolves it using the
    position of the ``partner`` edge of the same band when possible and
    otherwise degrades knowledge by merging (see the module docstring of
    :mod:`repro.core.between`).
    """

    trapdoor: EncryptedPredicate
    prefix_label: bool
    edge: str | None = None
    partner: "_Separator | None" = None


@dataclass(frozen=True)
class QFilterOutcome:
    """Result of Algorithm 1 (``QFilter``).

    Attributes
    ----------
    span:
        Chain-buffer offsets ``(start, stop)`` of the partitions
        guaranteed to satisfy the predicate without per-tuple QPF (the
        ``TW`` group); ``start >= stop`` when there are none.  Answers
        read it through
        :meth:`~repro.core.partitions.PartialOrderPartitions.uids_in_order`.
    ns_indices:
        Chain indices of the Not-Sure partitions — ``(a, b)`` in the
        general case, a single index when the chain has one partition.
    boundary:
        True when the samples of the first and last partition agreed
        (Algorithm 1's *boundary case*, NS-pair = ⟨P1, Pk⟩).
    label_prefix / label_suffix:
        QPF labels of the partition groups before / after the separating
        point (``label1`` / ``labelk`` in the paper); ``None`` only in the
        single-partition case where no samples are drawn.
    """

    span: tuple[int, int]
    ns_indices: tuple[int, ...]
    boundary: bool
    label_prefix: bool | None
    label_suffix: bool | None


@dataclass(frozen=True)
class QScanOutcome:
    """Result of Algorithm 2 (``QScan``) over the NS partitions.

    ``winners`` holds the NS winners (``TWNS``) as one uid array per NS
    partition, possibly empty; the answer scatters them, so they are
    never concatenated.  ``split_index`` is the chain index of the
    non-homogeneous partition (Case 2 of Lemma 4.5) or ``None`` when the
    predicate turned out equivalent to a stored one (Case 1).  When a
    split occurred, ``true_uids`` / ``false_uids`` are the two halves by
    QPF output.
    """

    winners: tuple[np.ndarray, ...]
    split_index: int | None
    true_uids: np.ndarray = field(default_factory=lambda: _EMPTY)
    false_uids: np.ndarray = field(default_factory=lambda: _EMPTY)


@dataclass(frozen=True)
class SelectionResult:
    """Full outcome of processing one comparison predicate with PRKB.

    ``winners`` is strictly increasing ``uint64`` by construction.
    ``phase_qpf`` breaks the total down by pipeline phase —
    ``qfilter`` (sampling + binary search, O(log k)), ``qscan`` (the
    NS-pair scans, O(n/k)) and ``update`` (0 for comparisons; the
    completion scans of other processors may charge here).
    """

    winners: np.ndarray
    qpf_uses: int
    partitions_after: int
    was_equivalent: bool
    phase_qpf: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class DeferredSplit:
    """A refinement planned by a pipeline, to be committed later.

    Identifies the partition to split by *object* (not chain index):
    batched queries plan against a frozen snapshot while earlier queries
    in the same window may have already reshaped the live chain.
    :meth:`PRKBIndex._commit_split` resolves the live position at commit
    time and skips silently when the partition is gone — losing only an
    optional refinement, never correctness.
    """

    trapdoor: EncryptedPredicate
    partition: Partition
    true_uids: np.ndarray
    false_uids: np.ndarray
    first_label: bool


_EMPTY = np.zeros(0, dtype=np.uint64)


def _metered(sub, meter: dict, phase: str):
    """Delegate to a request generator while tallying per-phase QPF uses.

    Generator-local accounting (rather than diffing the shared counter)
    is what lets many interleaved queries each report their own logical
    ``qpf_uses`` in batch mode.
    """
    try:
        request = next(sub)
        while True:
            meter[phase] += int(request.uids.size)
            labels = yield request
            request = sub.send(labels)
    except StopIteration as stop:
        return stop.value


def _metered_traced(sub, meter: dict, phase: str, name: str, tracer, parent):
    """:func:`_metered` plus one tracer span covering the whole phase.

    Cost attribution comes from the logical ``meter`` (exact even when
    the batching layer interleaves many queries through the shared
    counter); only the wall-clock interval is span-local, so under
    interleaving the duration includes sibling queries' work while
    ``qpf_uses`` stays per-query exact.
    """
    span = tracer.begin(name, parent=parent)
    try:
        result = yield from _metered(sub, meter, phase)
    finally:
        tracer.finish(span, qpf_uses=meter[phase])
    return result


def _metered_qfilter_traced(sub, meter: dict, tracer, parent):
    """QFilter metering split into *sample* and *search* sub-spans.

    Algorithm 1 has two distinct QPF consumers — the fused endpoint
    sample (first request) and the binary-search probes (the rest) —
    and the paper's cost analysis treats them separately, so the tracer
    does too.  The sample span closes when the first labels return.
    """
    sample = tracer.begin("prkb.qfilter.sample", parent=parent)
    search = None
    base = 0
    try:
        try:
            request = next(sub)
            while True:
                meter["qfilter"] += int(request.uids.size)
                labels = yield request
                if search is None:
                    base = meter["qfilter"]
                    tracer.finish(sample, qpf_uses=base)
                    search = tracer.begin("prkb.qfilter.search",
                                          parent=parent)
                request = sub.send(labels)
        except StopIteration as stop:
            return stop.value
    finally:
        if search is None:
            tracer.finish(sample, qpf_uses=meter["qfilter"])
        else:
            tracer.finish(search, qpf_uses=meter["qfilter"] - base)


class PRKBIndex:
    """Past result knowledge base over one encrypted attribute.

    Parameters
    ----------
    table, qpf:
        The encrypted relation and the server's QPF handle.
    attribute:
        The encrypted column this index covers.
    max_partitions:
        Optional cap on the chain length k.  The paper's static
        experiments use a cap of 250.
    cap_policy:
        What happens when a split would exceed the cap: ``"freeze"``
        (paper behaviour — stop refining) or ``"rotate"`` (beyond the
        paper — merge the smallest adjacent pair elsewhere in the chain
        to make room, adapting the fixed budget to the current
        workload's hot region).  Rotation applies to the single-predicate
        pipeline; BETWEEN and PRKB(MD) refinement still freeze at the
        cap.
    early_stop:
        Algorithm 2's early-stop strategy; disable only for the ablation
        benchmark.
    seed:
        Sampling key (reproducible benchmarks); ``None`` draws a 63-bit
        one from the OS, once (see :meth:`_sample_words`).
    """

    CAP_POLICIES = ("freeze", "rotate")

    def __init__(self, table: EncryptedTable, qpf: QueryProcessingFunction,
                 attribute: str, max_partitions: int | None = None,
                 early_stop: bool = True, seed: int | None = None,
                 cap_policy: str = "freeze"):
        if attribute not in table.attribute_names:
            raise KeyError(
                f"attribute {attribute!r} not in table {table.name!r}"
            )
        if max_partitions is not None and max_partitions < 1:
            raise ValueError("max_partitions must be positive")
        if cap_policy not in self.CAP_POLICIES:
            raise ValueError(
                f"unknown cap_policy {cap_policy!r}; "
                f"expected one of {self.CAP_POLICIES}"
            )
        self.table = table
        self.qpf = qpf
        self.attribute = attribute
        self.max_partitions = max_partitions
        self.cap_policy = cap_policy
        self.early_stop = early_stop
        #: Always concrete, so a sibling index (e.g. the hybrid layer's
        #: PRKB-over-shares twin) can replicate this chain's sampling
        #: trajectory exactly.
        self.seed = secrets.randbits(63) if seed is None else int(seed)
        #: The ordinal the next sampling statement takes; checkpoints and
        #: WAL commit records journal it.
        self.ordinal = 0
        # Snapshot-read protocol (see repro/serve + DESIGN.md): concurrent
        # selections hold ``lock.read()`` while they freeze a ChainView and
        # drive their pipelines; refinement commits, journal commits and
        # table-update mutations hold ``lock.write()``, so splits (and
        # their WAL records) publish atomically between reads.  The small
        # mutex guards the sampling ordinal and the Python-side
        # caches/tallies that concurrent *readers* may touch.  All
        # uncontended costs are sub-microsecond, so single-threaded paths
        # keep their performance profile.
        self.lock = SnapshotLock()
        self._stats_lock = threading.Lock()
        # Durability journal (attached by the durability manager); must be
        # set before the first `self.pop = ...` so the setter can consult it.
        self._journal = None
        # initPRKB: all tuples in one big partition (Sec. 4, last paragraph).
        self.pop = PartialOrderPartitions(table.uids)
        self._separators: list[_Separator] = []
        # serial -> cached Case-1 answer; see _remember_equivalence.
        self._equiv_cache: OrderedDict[int, tuple] = OrderedDict()
        # Observability: bounded history of per-query outcomes feeding
        # health().  One small tuple per select — cheap enough to keep
        # always on (QPF parity is untouched; only Python-side state).
        self._history: deque = deque(maxlen=HEALTH_HISTORY)
        #: NS scan widths of the non-equivalent ``_history`` entries,
        #: kept sorted so the planner's p90 is two list reads.
        self._scan_widths: list[int] = []
        self._equiv_hits = 0
        self._equiv_misses = 0
        self._splits_committed = 0

    # ------------------------------------------------------------------ #
    # durability journal plumbing                                         #
    # ------------------------------------------------------------------ #

    @property
    def pop(self) -> PartialOrderPartitions:
        """The POP chain; reassignment re-attaches any durability journal."""
        return self._pop

    @pop.setter
    def pop(self, chain: PartialOrderPartitions) -> None:
        self._pop = chain
        if self._journal is not None:
            chain.listener = self._journal

    def attach_journal(self, journal) -> None:
        """Hook a durability journal into every structural mutation.

        The journal observes POP refinements through the chain's listener
        protocol and separator-list edits through explicit calls below;
        :meth:`commit_journal` closes one query transaction, recording
        the sampling ordinal so replay reproduces exact QPF parity.
        """
        self._journal = journal
        self._pop.listener = journal
        journal.bind(self)

    def detach_journal(self) -> None:
        """Remove the durability journal (no-op when none is attached)."""
        self._journal = None
        self._pop.listener = None

    def commit_journal(self) -> None:
        """Close the current journal transaction, if a journal is attached.

        Idempotent and free when nothing happened since the last commit
        (no structural ops and an unchanged sampling ordinal).  Runs
        under the index write lock (reentrant), so commit records land in
        the WAL strictly after the structural records of the transaction
        they close — ordering holds under concurrent serving too.
        """
        if self._journal is not None:
            with self.lock.write():
                self._journal.commit()

    def _sample_words(self):
        """One statement's sampling words, as an endless generator.

        The ``step``-th word is ``splitmix64(mix(seed) + (ordinal << 32)
        + step)``, so no draw depends on which statements sampled first,
        and statements (each far below 2**32 draws) share no nonce.  The
        ordinal is taken at the first ``next``: equivalence-cache hits
        and ``k <= 1`` chains take none.
        """
        with self._stats_lock:
            ordinal = self.ordinal
            self.ordinal += 1
        base = _mix64(self.seed) + (ordinal << 32)
        step = 0
        while True:
            yield _mix64((base + step) & _WORD_MASK)
            step += 1

    # ------------------------------------------------------------------ #
    # inspection                                                          #
    # ------------------------------------------------------------------ #

    @property
    def num_partitions(self) -> int:
        """Current chain length k."""
        return self.pop.num_partitions

    @property
    def num_separators(self) -> int:
        """Number of stored past predicates (k - 1 for a live chain)."""
        return len(self._separators)

    def plan_fingerprint(self) -> tuple[int, int, int]:
        """Cheap token identifying the index state a plan was costed on.

        Changes whenever a refinement lands (split committed, separator
        stored) or the chain shape moves, so cached physical plans are
        invalidated by ``fingerprint mismatch`` instead of a TTL.  O(1).
        """
        return (self.pop.num_partitions, len(self._separators),
                self._splits_committed)

    def storage_bytes(self) -> int:
        """Index footprint: uid membership lists + stored trapdoors.

        Matches the paper's Table 3 accounting: PRKB is "simply partition
        information of encrypted tuples" (≈ one word per tuple) plus the
        separator predicates kept for update handling.
        """
        membership = 8 * self.pop.num_tuples
        chain_overhead = 16 * self.pop.num_partitions
        separators = sum(
            len(s.trapdoor.sealed) + 1 for s in self._separators
        )
        return membership + chain_overhead + separators

    def describe(self) -> dict:
        """Operational statistics for monitoring / the CLI.

        Returns chain shape (length, size quantiles, imbalance), the
        separator mix (comparison vs BETWEEN edges) and the expected
        QPF cost of the next range query under the Sec. 5 model.
        """
        sizes = sorted(self.pop.sizes())
        n = self.pop.num_tuples
        k = self.pop.num_partitions
        if sizes:
            median = sizes[len(sizes) // 2]
            largest = sizes[-1]
        else:
            median = largest = 0
        between_edges = sum(
            1 for s in self._separators if s.edge is not None)
        expected_qpf = (n if k <= 1 else
                        4 * max(1, largest) // 2 + 2 * max(1, k).bit_length())
        return {
            "attribute": self.attribute,
            "tuples": n,
            "partitions": k,
            "median_partition": median,
            "largest_partition": largest,
            "imbalance": (largest * k / n) if n and k else 0.0,
            "separators": len(self._separators),
            "between_edge_separators": between_edges,
            "max_partitions": self.max_partitions,
            "cap_policy": self.cap_policy,
            "storage_bytes": self.storage_bytes(),
            "expected_range_query_qpf": expected_qpf,
        }

    def _note_query(self, qpf_uses: int, ns_width: int,
                    split_planned: bool, was_equivalent: bool) -> None:
        """Append one query outcome to the bounded health history, and
        keep ``_scan_widths`` in step with it: the entry the full deque
        evicts leaves the sorted list, the new one enters it."""
        with self._stats_lock:
            history, widths = self._history, self._scan_widths
            if len(history) == history.maxlen:
                __, evicted, __, evicted_equivalent = history[0]
                if not evicted_equivalent:
                    del widths[bisect_left(widths, evicted)]
            history.append(
                (qpf_uses, ns_width, split_planned, was_equivalent))
            if not was_equivalent:
                insort(widths, ns_width)

    def observed_scan_stats(self) -> tuple[int, int]:
        """``(queries_observed, p90 NS-scan width)`` for the estimator.

        The pair the planner reads on *every* cost estimate, so it reads
        the width list :meth:`_note_query` keeps sorted instead of
        sorting the history per plan; :func:`_p90` gives values
        identical to :meth:`health`'s ``np.percentile``.
        """
        with self._stats_lock:
            return len(self._history), _p90(self._scan_widths)

    def health(self, window: int | None = None) -> dict:
        """Operational health report for this index.

        Extends :meth:`describe`'s static chain shape with *dynamic*
        signals aggregated over the last ``window`` (default: all
        retained, at most :data:`HEALTH_HISTORY`) select queries:
        refinement rate (fraction that planned a split — POPE's
        "how unrefined is the order still" signal), Not-Sure-pair scan
        widths (the per-query QScan payload the paper bounds by
        2·max|Pi|), per-query QPF quantiles and both cache hit ratios.
        Range/grid traffic refines the chain without flowing through
        ``select``; it shows up in ``splits_committed`` and the chain
        shape rather than the query history.
        """
        sizes = np.sort(np.asarray(self.pop.sizes(), dtype=np.int64)) \
            if self.pop.num_partitions else np.zeros(0, dtype=np.int64)
        history = list(self._history)
        if window is not None:
            history = history[-window:]

        def _quantiles(values):
            if not values:
                return {"p50": 0, "p90": 0, "max": 0}
            arr = np.asarray(values, dtype=np.int64)
            return {"p50": int(np.percentile(arr, 50)),
                    "p90": int(np.percentile(arr, 90)),
                    "max": int(arr.max())}

        scans = [ns for __, ns, __, eq in history if not eq]
        counter = self.qpf.counter
        pc_total = (counter.predicate_cache_hits
                    + counter.predicate_cache_misses)
        eq_total = self._equiv_hits + self._equiv_misses
        return {
            "attribute": self.attribute,
            "tuples": self.pop.num_tuples,
            "chain_length": self.pop.num_partitions,
            "max_partitions": self.max_partitions,
            "separators": len(self._separators),
            "storage_bytes": self.storage_bytes(),
            "partition_sizes": {
                "min": int(sizes[0]) if sizes.size else 0,
                "p50": int(np.percentile(sizes, 50)) if sizes.size else 0,
                "p90": int(np.percentile(sizes, 90)) if sizes.size else 0,
                "max": int(sizes[-1]) if sizes.size else 0,
                "mean": float(sizes.mean()) if sizes.size else 0.0,
            },
            "queries_observed": len(history),
            "refinement_rate": (
                sum(1 for __, __, split, __ in history if split)
                / len(history) if history else 0.0),
            "splits_committed": self._splits_committed,
            "ns_scan_width": _quantiles(scans),
            "qpf_per_query": _quantiles([q for q, __, __, __ in history]),
            "equivalence_cache": {
                "hits": self._equiv_hits,
                "misses": self._equiv_misses,
                "hit_ratio": self._equiv_hits / eq_total if eq_total else 0.0,
                "entries": len(self._equiv_cache),
            },
            "predicate_cache": {
                "hits": counter.predicate_cache_hits,
                "misses": counter.predicate_cache_misses,
                "hit_ratio": (counter.predicate_cache_hits / pc_total
                              if pc_total else 0.0),
            },
        }

    def has_cached_equivalence(self, serial: int) -> bool:
        """Whether a re-submission of trapdoor ``serial`` is a 0-QPF hit.

        The planner (``EncryptedDatabase.explain``) consults this so
        :class:`QueryPlan` estimates reflect the equivalence-cache fast
        path instead of pricing every query as cold.
        """
        return serial in self._equiv_cache

    def _check_attribute(self, trapdoor: EncryptedPredicate) -> None:
        if trapdoor.attribute != self.attribute:
            raise ValueError(
                f"trapdoor targets attribute {trapdoor.attribute!r}, index "
                f"covers {self.attribute!r}"
            )

    # ------------------------------------------------------------------ #
    # Algorithm 1: QFilter                                                #
    # ------------------------------------------------------------------ #

    def _qfilter_gen(self, trapdoor: EncryptedPredicate, view: ChainView):
        """Algorithm 1 as a request generator over a chain snapshot.

        Yields :class:`QPFRequest` payloads, receives label arrays, and
        returns the :class:`QFilterOutcome`.  The two endpoint samples
        are the statement's steps 0 and 1, in the paper's order (P1 then
        Pk), shipped as one fused request — one fewer roundtrip than the
        sequential algorithm.  The winner group is reported as its span
        of the snapshot's chain buffer — two offsets, no uids touched.
        """
        k = view.num_partitions
        if k == 0:
            return QFilterOutcome((0, 0), (), False, None, None)
        if k == 1:
            # No samples needed: the single partition is the NS "pair".
            return QFilterOutcome((0, 0), (0,), False, None, None)
        words = self._sample_words()
        endpoints = np.asarray(
            [view[0].sample(next(words)), view[k - 1].sample(next(words))],
            dtype=np.uint64)
        labels = yield QPFRequest(trapdoor, self.table, endpoints)
        label_first, label_last = bool(labels[0]), bool(labels[1])
        if label_first == label_last:
            # Boundary case: separating point is at one of the two ends;
            # every middle partition shares the sampled label.
            return QFilterOutcome(
                span=view.span(1, k - 2) if label_first else (0, 0),
                ns_indices=(0, k - 1),
                boundary=True,
                label_prefix=label_first,
                label_suffix=label_last,
            )
        # Recursive case: binary search for the adjacent NS-pair.
        a, b = 0, k - 1
        while b - a > 1:
            m = (a + b) // 2
            probe = np.asarray([view[m].sample(next(words))],
                               dtype=np.uint64)
            labels = yield QPFRequest(trapdoor, self.table, probe)
            if bool(labels[0]) == label_first:
                a = m
            else:
                b = m
        return QFilterOutcome(
            span=(view.span(0, a - 1) if label_first
                  else view.span(b + 1, k - 1)),
            ns_indices=(a, b),
            boundary=False,
            label_prefix=label_first,
            label_suffix=label_last,
        )

    # ------------------------------------------------------------------ #
    # Algorithm 2: QScan                                                  #
    # ------------------------------------------------------------------ #

    def _qscan_gen(self, trapdoor: EncryptedPredicate, view: ChainView,
                   filtered: QFilterOutcome):
        """Algorithm 2 as a request generator over a chain snapshot."""
        if not filtered.ns_indices:
            return QScanOutcome(winners=(), split_index=None)
        if len(filtered.ns_indices) == 1:
            # Single-partition chain: a full scan is both QScan and the
            # first opportunity to split.
            index = filtered.ns_indices[0]
            uids = view[index].uids
            labels = yield QPFRequest(trapdoor, self.table, uids)
            true_uids, false_uids = uids[labels], uids[~labels]
            if true_uids.size and false_uids.size:
                return QScanOutcome((true_uids,), index, true_uids,
                                    false_uids)
            return QScanOutcome((true_uids,), None)

        a, b = filtered.ns_indices
        uids_a = view[a].uids
        labels_a = yield QPFRequest(trapdoor, self.table, uids_a)
        true_a, false_a = uids_a[labels_a], uids_a[~labels_a]
        if true_a.size and false_a.size:
            # Pa is non-homogeneous: the separating point is a.  With early
            # stop, Pb's label is already known from QFilter's samples.
            if self.early_stop:
                winners_b = (
                    view[b].uids if filtered.label_suffix else _EMPTY
                )
            else:
                uids_b = view[b].uids
                labels_b = yield QPFRequest(trapdoor, self.table, uids_b)
                winners_b = uids_b[labels_b]
            return QScanOutcome(
                winners=(true_a, winners_b),
                split_index=a,
                true_uids=true_a,
                false_uids=false_a,
            )
        # Pa is homogeneous; Pb must be scanned to settle the case.
        uids_b = view[b].uids
        labels_b = yield QPFRequest(trapdoor, self.table, uids_b)
        true_b, false_b = uids_b[labels_b], uids_b[~labels_b]
        winners = (true_a, true_b)
        if true_b.size and false_b.size:
            return QScanOutcome(winners, b, true_b, false_b)
        # Case 1 of Lemma 4.5: the predicate is equivalent to a stored one.
        return QScanOutcome(winners, None)

    # ------------------------------------------------------------------ #
    # updatePRKB                                                          #
    # ------------------------------------------------------------------ #

    def _plan_split(self, trapdoor: EncryptedPredicate,
                    partition: Partition, filtered: QFilterOutcome,
                    scanned: QScanOutcome) -> DeferredSplit:
        """Decide the split's orientation; defer the structural change.

        Orientation is decided against the chain snapshot the
        QFilter/QScan outcomes refer to; the partition is pinned by
        object so the commit survives chain reshaping by sibling queries.
        """
        s = scanned.split_index
        if len(filtered.ns_indices) == 1:
            # First split of a virgin chain: the direction is genuinely
            # unknowable (either orientation is consistent); fix one.
            first_label = False
        elif s == filtered.ns_indices[0]:
            # Split at the lower NS index: the half matching the suffix
            # group's label sits adjacent to the suffix side (second).
            first_label = not filtered.label_suffix
        else:
            # Split at the upper NS index: the half matching the prefix
            # group's label sits adjacent to the prefix side (first).
            first_label = bool(filtered.label_prefix)
        return DeferredSplit(trapdoor=trapdoor, partition=partition,
                             true_uids=scanned.true_uids,
                             false_uids=scanned.false_uids,
                             first_label=first_label)

    def _commit_split(self, deferred: DeferredSplit,
                      rotate: bool = True) -> bool:
        """Apply a planned split to the live chain; False when skipped.

        Skips when the target partition is no longer in the chain (a
        sibling query in the same batch window — or a concurrent session
        — split it first) or when the partition cap forbids growth.
        ``rotate=False`` also skips instead of rotating at the cap: a
        lock-step window passes it, because a merge would erase a
        boundary that its still-running siblings' winner spans end on.
        Commits always run under the index write lock (reentrant when
        the caller already holds it), so a refinement publishes
        atomically with respect to snapshot readers.
        """
        with self.lock.write():
            try:
                index = self.pop.index_of(deferred.partition)
            except KeyError:
                # refinement superseded; knowledge not lost long
                return False
            if not self.can_grow:
                if not rotate or self.cap_policy != "rotate":
                    return False
                rotated = self._make_room(protect=index)
                if rotated is None:
                    return False
                index = rotated
            self.apply_split(deferred.trapdoor, index, deferred.true_uids,
                             deferred.false_uids, deferred.first_label)
            return True

    def apply_split(self, trapdoor: EncryptedPredicate, index: int,
                    true_uids: np.ndarray, false_uids: np.ndarray,
                    first_label: bool, edge: str | None = None,
                    partner_index: int | None = None) -> None:
        """Split the partition at ``index`` and record its separator.

        ``first_label`` states which half (the Θ=1 half when True) takes
        the chain position adjacent to the *prefix* side.  The caller is
        responsible for the orientation reasoning; this method performs the
        structural refinement.  ``edge``/``partner_index`` carry BETWEEN
        boundary metadata (see :class:`_Separator`).
        """
        if first_label:
            first_uids, second_uids = true_uids, false_uids
        else:
            first_uids, second_uids = false_uids, true_uids
        with self.lock.write():
            self.pop.split(index, first_uids, second_uids)
            separator = _Separator(trapdoor=trapdoor,
                                   prefix_label=first_label, edge=edge)
            if partner_index is not None:
                partner = self._separators[partner_index]
                separator.partner = partner
                partner.partner = separator
            self._separators.insert(index, separator)
            if self._journal is not None:
                self._journal.sep_add(index, separator, partner_index)
            if edge is None and trapdoor.kind == "comparison":
                # The fresh separator pins exactly where this trapdoor
                # cuts: its Θ=1 half sits on the prefix side iff
                # first_label, so a resubmission of the same trapdoor is
                # one cached slice.
                self._equiv_put(trapdoor.serial,
                                ("sep", separator, bool(first_label)))
            self._splits_committed += 1
        self.qpf.counter.charge(index_updates=1)

    # ------------------------------------------------------------------ #
    # full pipeline                                                       #
    # ------------------------------------------------------------------ #

    def select_steps(self, trapdoor: EncryptedPredicate,
                     update: bool = True, view: ChainView | None = None,
                     span=None):
        """The full pipeline as a request generator (Fig. 2b).

        Yields :class:`QPFRequest` payloads and returns
        ``(SelectionResult, DeferredSplit | None)``.  The caller drives
        the generator (serially via :meth:`select`, or interleaved with
        other queries by the batching layer), commits the deferred split
        and — in batch mode — charges roundtrips however it coalesced
        the requests.  ``qpf_uses``/``phase_qpf`` in the result are
        *logical* (what this query alone consumed), so per-query
        accounting is exact even when payloads were shared.

        ``span`` optionally names the tracer span phase spans should
        attach under; the batching layer passes its per-query pipeline
        span, since the thread-local current span over there belongs to
        the whole window, not to one query.
        """
        self._check_attribute(trapdoor)
        cached = self._equivalent_answer(trapdoor)
        tracer = self.qpf.counter.tracer
        if cached is not None:
            with self._stats_lock:
                self._equiv_hits += 1
            self._note_query(0, 0, False, True)
            if tracer is not None:
                tracer.finish(
                    tracer.begin("prkb.cached", parent=span,
                                 attribute=self.attribute),
                    qpf_uses=0)
            return (cached, None)
        with self._stats_lock:
            self._equiv_misses += 1
        if view is None:
            view = self.pop.freeze()
        meter = {"qfilter": 0, "qscan": 0}
        if tracer is None:
            filtered = yield from _metered(
                self._qfilter_gen(trapdoor, view), meter, "qfilter")
            scanned = yield from _metered(
                self._qscan_gen(trapdoor, view, filtered), meter, "qscan")
        else:
            parent = span if span is not None else tracer.current()
            filtered = yield from _metered_qfilter_traced(
                self._qfilter_gen(trapdoor, view), meter, tracer, parent)
            scanned = yield from _metered_traced(
                self._qscan_gen(trapdoor, view, filtered), meter, "qscan",
                "prkb.qscan", tracer, parent)
        deferred = None
        if update and scanned.split_index is not None:
            deferred = self._plan_split(
                trapdoor, view[scanned.split_index], filtered, scanned)
        was_equivalent = (scanned.split_index is None
                          and view.num_partitions > 1)
        if was_equivalent:
            self._remember_equivalence(trapdoor, view, filtered)
        # The live chain, not ``view``: its offsets still bound the
        # snapshot's runs (splits only), and its tables give uid order.
        result = SelectionResult(
            winners=self.pop.uids_in_order(*filtered.span, scanned.winners),
            qpf_uses=meter["qfilter"] + meter["qscan"],
            partitions_after=self.pop.num_partitions,
            was_equivalent=was_equivalent,
            phase_qpf={
                "qfilter": meter["qfilter"],
                "qscan": meter["qscan"],
                "update": 0,
            },
        )
        self._note_query(result.qpf_uses, meter["qscan"],
                         deferred is not None, was_equivalent)
        return (result, deferred)

    def select(self, trapdoor: EncryptedPredicate,
               update: bool = True) -> SelectionResult:
        """Process one comparison predicate end to end (Fig. 2b).

        ``QFilter`` → ``QScan`` → optional ``updatePRKB``; the result is
        ``TW ∪ TWNS``.
        """
        tracer = self.qpf.counter.tracer
        if tracer is None:
            # Snapshot read: the whole pipeline (equivalence probe, chain
            # freeze, QFilter/QScan) runs under the read lock, then the
            # commit re-acquires exclusively — no lock upgrade, and
            # ``_commit_split``'s supersession check absorbs any sibling
            # refinement that landed in the unlocked gap.
            with self.lock.read():
                [(result, deferred)] = drive(
                    self.qpf, [self.select_steps(trapdoor, update=update)])
            if deferred is not None or self._journal is not None:
                with self.lock.write():
                    if deferred is not None:
                        self._commit_split(deferred)
                    self.commit_journal()
        else:
            with tracer.span("prkb.select",
                             attribute=self.attribute) as root:
                with self.lock.read():
                    [(result, deferred)] = drive(
                        self.qpf, [self.select_steps(trapdoor, update=update,
                                                     span=root)])
                uspan = tracer.begin("prkb.update", parent=root)
                committed = False
                if deferred is not None or self._journal is not None:
                    with self.lock.write():
                        committed = (deferred is not None
                                     and self._commit_split(deferred))
                        self.commit_journal()
                # updatePRKB reuses QScan's labels: splits are QPF-free.
                tracer.finish(uspan.set(split=bool(committed)), qpf_uses=0)
                # Total as an *attribute* (not cost): span costs stay
                # non-overlapping so phase sums tile the global counter.
                root.set(qpf_uses_total=result.qpf_uses)
        if result.partitions_after != self.pop.num_partitions:
            result = replace(result,
                             partitions_after=self.pop.num_partitions)
        return result

    # ------------------------------------------------------------------ #
    # equivalence cache (QScan Case 1 fast path)                          #
    # ------------------------------------------------------------------ #

    def _equivalent_answer(self, trapdoor: EncryptedPredicate
                           ) -> SelectionResult | None:
        """Answer from the equivalence cache, or ``None`` on a miss.

        A hit costs zero QPF and zero scan work: the winners are the
        chain's prefix or suffix up to the separator's *current* position
        (splits elsewhere may have shifted it since the equivalence was
        learned), read out in uid order.
        """
        with self._stats_lock:
            entry = self._equiv_cache.get(trapdoor.serial)
            if entry is not None:
                self._equiv_cache.move_to_end(trapdoor.serial)
        if entry is None:
            return None
        pop = self.pop
        if entry[0] == "all":
            winners = pop.uids_in_order(0, pop.num_tuples)
        elif entry[0] == "none":
            winners = _EMPTY
        else:
            __, separator, prefix_side = entry
            try:
                # _Separator has identity equality, so this is an object
                # search; ValueError means the separator was retired.
                position = self._separators.index(separator)
            except ValueError:
                with self._stats_lock:
                    self._equiv_cache.pop(trapdoor.serial, None)
                return None
            cut = int(pop.offsets[position + 1])
            winners = (pop.uids_in_order(0, cut) if prefix_side
                       else pop.uids_in_order(cut, pop.num_tuples))
        self.qpf.counter.charge(comparisons=1)
        return SelectionResult(
            winners=winners,
            qpf_uses=0,
            partitions_after=self.pop.num_partitions,
            was_equivalent=True,
            phase_qpf={"qfilter": 0, "qscan": 0, "update": 0},
        )

    def _remember_equivalence(self, trapdoor: EncryptedPredicate,
                              view: ChainView,
                              filtered: QFilterOutcome) -> None:
        """Record a Case-1 discovery for zero-work repeats.

        Non-boundary case: both NS partitions scanned homogeneous with
        their sampled labels, so the predicate cuts exactly at the stored
        separator between them — remember (separator object, which side
        wins).  Boundary case: every tuple shared one label, i.e. the
        predicate is trivial over the current data ("all"/"none").
        """
        if len(filtered.ns_indices) != 2:
            return
        if filtered.boundary:
            self._equiv_put(
                trapdoor.serial,
                ("all",) if filtered.label_prefix else ("none",))
            return
        a = filtered.ns_indices[0]
        try:
            live = self.pop.index_of(view[a])
        except KeyError:
            return  # partition reshaped by a sibling query: don't cache
        if live >= len(self._separators):
            return
        self._equiv_put(trapdoor.serial,
                        ("sep", self._separators[live],
                         bool(filtered.label_prefix)))

    def _equiv_put(self, serial: int, entry: tuple) -> None:
        with self._stats_lock:
            cache = self._equiv_cache
            cache[serial] = entry
            cache.move_to_end(serial)
            while len(cache) > EQUIVALENCE_CACHE_SIZE:
                cache.popitem(last=False)

    # ------------------------------------------------------------------ #
    # update handling (Sec. 7)                                            #
    # ------------------------------------------------------------------ #

    @property
    def can_grow(self) -> bool:
        """Whether the partition cap still allows refinement."""
        return (self.max_partitions is None
                or self.pop.num_partitions < self.max_partitions)

    def _make_room(self, protect: int) -> int | None:
        """Rotate policy: merge the cheapest adjacent pair to free a slot.

        The pair with the smallest combined size loses its boundary (and
        the separator that defined it) — the knowledge there was the
        least valuable by the n/k scan-cost model.  ``protect`` (the
        position about to be split) is never part of the merged pair;
        the possibly shifted position is returned, or ``None`` when the
        chain is too short to rotate.
        """
        sizes = self.pop.sizes()
        best = None
        best_cost = None
        for i in range(len(sizes) - 1):
            if i == protect or i + 1 == protect:
                continue
            cost = sizes[i] + sizes[i + 1]
            if best_cost is None or cost < best_cost:
                best, best_cost = i, cost
        if best is None:
            return None
        self.pop.merge_range(best, best + 1)
        del self._separators[best]
        if self._journal is not None:
            self._journal.sep_del(best, best + 1)
        return protect - 1 if best < protect else protect

    def _narrow(self, boundary: int, label, lo: int,
                hi: int) -> tuple[int, int] | None:
        """The candidate range left by the separator at ``boundary``
        labelling the new tuple ``label``; ``None`` when inconclusive
        (only a 0-output on a BETWEEN edge whose partner edge lies inside
        the candidate range)."""
        separator = self._separators[boundary]
        if separator.edge is None:
            # Comparison separator: decisive both ways (Sec. 7.1).
            if label == separator.prefix_label:
                return lo, boundary
            return boundary + 1, hi
        if label:
            # In-band output: decisive towards the band side of this edge.
            if separator.edge == "low":
                return boundary + 1, hi
            return lo, boundary
        # Out-of-band output: the tuple is below the band's low end OR
        # above its high end — two regions on opposite sides of this
        # boundary.  The probe is decisive only when the band's *other*
        # edge is known (a linked partner separator) and lies outside the
        # candidate range on the far side, so "beyond the partner" is
        # impossible within the range.  A missing/retired partner means
        # the other cut's position is unknown: inconclusive.
        partner_pos = None
        if separator.partner is not None:
            try:
                partner_pos = self._separators.index(separator.partner)
            except ValueError:
                partner_pos = None  # partner retired by a deletion
        if partner_pos is None:
            return None
        if separator.edge == "low":
            if partner_pos >= hi:
                return lo, boundary
        else:
            if partner_pos < lo:
                return boundary + 1, hi
        return None

    def _placement_steps(self, uid: int):
        """Find the chain partition a new tuple belongs to (Sec. 7.1), as
        a request generator.

        Binary search over the stored separators: each probe asks Θ of one
        stored trapdoor on the new tuple — O(log k) QPF uses when all
        separators come from comparison predicates (the case the paper
        analyses).  A BETWEEN edge can be inconclusive on a 0-output; the
        search then probes the range's other boundaries for a decisive
        one and, failing that, returns the unresolved ``(lo, hi)`` range
        so the caller can degrade knowledge by merging.
        """
        probe = np.asarray([uid], dtype=np.uint64)
        lo, hi = 0, self.pop.num_partitions - 1
        while lo < hi:
            mid = lo + (hi - lo) // 2
            labels = yield QPFRequest(self._separators[mid].trapdoor,
                                      self.table, probe)
            narrowed = self._narrow(mid, labels[0], lo, hi)
            if narrowed is None:
                for boundary in range(lo, hi):
                    if boundary == mid:
                        continue
                    labels = yield QPFRequest(
                        self._separators[boundary].trapdoor, self.table,
                        probe)
                    narrowed = self._narrow(boundary, labels[0], lo, hi)
                    if narrowed is not None:
                        break
                else:
                    return lo, hi  # genuinely ambiguous: caller merges
            lo, hi = narrowed
        return lo

    def insert_many(self, uids) -> list[int]:
        """Register freshly inserted encrypted tuples with the index.

        The tuples must already be present in the encrypted table (the
        QPF needs their ciphertexts).  Returns the chain index each was
        filed under.  Every row's placement search runs on the chain as
        the batch found it, all in lock step (one crossing per round),
        then the rows are filed in order.  If a placement is ambiguous
        (BETWEEN boundaries only), its range is merged into one partition
        first — sound, but coarser; a later row placed inside a merged
        range folds to the merged partition.  The whole batch is one
        index transaction: one write-lock hold, one equivalence-cache
        clear and one journal ``commit`` record, so a crash inside it
        rolls the index back to the previous operation, never to part of
        this one.
        """
        uids = [int(uid) for uid in uids]
        with self.lock.write():
            # Two predicates equivalent on the old data may disagree on
            # a new value, so cached equivalences cannot survive an
            # insert.
            with self._stats_lock:
                self._equiv_cache.clear()
            placed = drive(self.qpf,
                           [self._placement_steps(uid) for uid in uids])
            merges: list[tuple[int, int]] = []
            located: list[int] = []
            filed = 0
            for place in placed:
                lo, hi = place if isinstance(place, tuple) else (place, place)
                for first, last in merges:
                    lo, hi = _fold(lo, first, last), _fold(hi, first, last)
                if lo < hi:
                    self._file(uids[filed:len(located)], located[filed:])
                    filed = len(located)
                    self.pop.merge_range(lo, hi)
                    del self._separators[lo:hi]
                    if self._journal is not None:
                        self._journal.sep_del(lo, hi)
                    merges.append((lo, hi))
                located.append(lo)
            self._file(uids[filed:], located[filed:])
            self.commit_journal()
            return located

    def insert(self, uid: int) -> int:
        """:meth:`insert_many` of one tuple; returns its chain index."""
        return self.insert_many([uid])[0]

    def _file(self, uids: list[int], positions: list[int]) -> None:
        """Place tuples at chain ``positions``, in order, with one chain
        update (caller holds the write lock).  An empty chain is rebuilt
        from the first tuple; every placement searched an empty chain
        then, so all positions are 0."""
        if uids and self.pop.num_partitions == 0:
            self.pop = PartialOrderPartitions(
                np.asarray(uids[:1], dtype=np.uint64))
            if self._journal is not None:
                self._journal.chain_reinit(uids[:1])
            uids, positions = uids[1:], positions[1:]
        self.pop.insert_many(uids, positions)

    def delete_many(self, uids) -> None:
        """Drop tuples; retire a separator for each partition that
        vanishes.  One index transaction, like :meth:`insert_many`."""
        with self.lock.write():
            for uid in uids:
                dropped = self.pop.delete(int(uid))
                if dropped is None or not self._separators:
                    continue
                # Boundaries dropped-1 and dropped collapsed into one;
                # either separator now describes the same cut, keep one
                # of them.
                retire = min(dropped, len(self._separators) - 1)
                del self._separators[retire]
                if self._journal is not None:
                    self._journal.sep_del(retire, retire + 1)
            self.commit_journal()

    def delete(self, uid: int) -> None:
        """:meth:`delete_many` of one tuple."""
        self.delete_many([uid])


def _fold(position: int, first: int, last: int) -> int:
    """Where ``position`` lands once partitions ``first..last`` merge."""
    if position > last:
        return position - (last - first)
    return min(position, first)


def _p90(ordered: list[int]) -> int:
    """``int(np.percentile(ordered, 90))`` of a sorted int list, bit for
    bit (numpy's "linear" method, including which side it interpolates
    from), without the array round trip; 0 when empty."""
    if not ordered:
        return 0
    virtual = (len(ordered) - 1) * 0.9
    below = int(virtual)
    if below >= len(ordered) - 1:
        return ordered[-1]
    low, high = ordered[below], ordered[below + 1]
    weight = virtual - below
    if weight < 0.5:
        return int(low + (high - low) * weight)
    return int(high - (high - low) * (1 - weight))
