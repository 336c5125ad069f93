"""Multi-dimensional range query processing (paper Sec. 6).

Two strategies are implemented:

* ``PRKB(SD+)`` — the naive composition: run the single-dimension PRKB
  pipeline once per comparison predicate (2d of them) and intersect the
  winner sets.  Each predicate pays its own NS-pair scan over *full*
  partitions.
* ``PRKB(MD)`` — the grid-based algorithm of Sec. 6.2.  Per-dimension
  ``QFilter`` passes classify every partition as certainly-in (IN),
  certainly-out (OUT) or not-sure (NS).  Tuples inside the all-IN central
  region are accepted with zero QPF; tuples touching any OUT partition are
  rejected with zero QPF; only the small cross-shaped NS residue is tested,
  and each tuple is tested only against the predicates whose NS partitions
  contain it, with short-circuiting on the first failed dimension and
  partition-level early-stop inference (a mixed observation in one NS
  partition resolves its pair partner for free — Sec. 6.2's early stop).

The grid phases are fully vectorised: per-partition classifications are
``int8`` status vectors whose contiguous runs become key ranges.  Each
chain's order keys are gathered once per phase
(:meth:`~repro.core.partitions.PartialOrderPartitions.keys_of_uids`),
and "in a run of chain positions" is one key compare per run
(:meth:`~repro.core.partitions.PartialOrderPartitions.keys_in_run`), so
candidate collection and OUT-pruning are boolean mask arithmetic and NS
groups are ``key == partition key`` index arrays into one sorted
candidate array — no per-uid Python loops anywhere on the hot path, so
the server-side (free) part of a query scales with numpy, not the
interpreter.

POP refinement under PRKB(MD) is governed by ``update_policy`` (see
DESIGN.md): the paper does not specify how the *partial* scans of the MD
algorithm feed back into the index, so ``"complete-partition"`` (default)
finishes scanning any partition observed non-homogeneous — making the split
sound — while ``"none"`` keeps the index static (the configuration of the
paper's Figs. 11-12).  When both thresholds of one dimension fall into the
same partition, the second refinement is skipped for that query (the
sibling split invalidated the snapshot); the knowledge is simply picked up
by a later query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..crypto.trapdoor import EncryptedPredicate
from .partitions import ChainView, PartialOrderPartitions, Partition
from .prkb import PRKBIndex, QFilterOutcome
from .single import SingleDimensionProcessor

__all__ = ["DimensionRange", "MultiDimensionProcessor", "estimate_grid_qpf"]


def estimate_grid_qpf(per_dimension_qpf: list[int] | tuple[int, ...],
                      bonus: bool = True) -> int:
    """Expected QPF uses of one grid query given per-dimension SD costs.

    The grid's QFilter passes pay roughly the per-dimension SD scans, but
    OUT-pruning and NS short-circuiting typically halve the tuples that
    reach the QPF (Sec. 6.2) — the ``bonus``.  ``bonus=False`` prices the
    naive ``SD+`` composition of the same dimensions instead.
    """
    estimated = sum(per_dimension_qpf)
    if bonus:
        estimated = max(1, estimated // 2)  # grid pruning bonus
    return estimated

_EMPTY = np.zeros(0, dtype=np.uint64)
_NO_POSITIONS = np.zeros(0, dtype=np.int64)

#: Per-partition classification codes (one QFilter pass, one dimension).
_IN = np.int8(1)
_OUT = np.int8(0)
_NS = np.int8(-1)

#: Valid values of ``update_policy``.
UPDATE_POLICIES = ("complete-partition", "none")

#: Valid values of ``dim_order`` — the predicate-testing order for
#: candidates.  ``"selective-first"`` tests the dimension whose POP
#: snapshot predicts the smallest pass rate first, maximising the
#: short-circuit effect of Sec. 6.2; ``"given"`` keeps the query's order.
DIM_ORDERS = ("selective-first", "given")


def _mask_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous True runs of ``mask`` as (start, stop) half-open pairs."""
    if mask.size == 0:
        return []
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.view(np.int8)))
    return [(int(edges[i]), int(edges[i + 1]))
            for i in range(0, edges.size, 2)]


def _in_runs(pop: PartialOrderPartitions, keys: np.ndarray,
             mask: np.ndarray) -> np.ndarray:
    """Which of a chain's order ``keys`` sit at positions where ``mask``
    holds: one key compare per contiguous run of ``mask``."""
    runs = _mask_runs(mask)
    if not runs:
        return np.zeros(keys.size, dtype=bool)
    hit = pop.keys_in_run(keys, *runs[0])
    for start, stop in runs[1:]:
        hit |= pop.keys_in_run(keys, start, stop)
    return hit


def _observed_labels(members: np.ndarray, observed_uids: np.ndarray,
                     observed_labels: np.ndarray) -> np.ndarray:
    """Each member's observed QPF label as ``int8``: 1 / 0, or -1 when
    the member was never observed (``members``: one partition, never
    empty).

    One dense scratch over the uid span, written at the observations and
    gathered at ``members`` — no hashing, no sort.  A uid observed twice
    carries the same label both times (Θ is deterministic).
    """
    span = int(members.max()) + 1
    if observed_uids.size:
        span = max(span, int(observed_uids.max()) + 1)
    scratch = np.full(span, -1, dtype=np.int8)
    scratch[observed_uids] = observed_labels
    return scratch[members]


@dataclass(frozen=True)
class DimensionRange:
    """One dimension of a hyper-rectangle query: two comparison trapdoors.

    ``low`` is the trapdoor of the lower-bound predicate (``X > lb``) and
    ``high`` of the upper bound (``X < ub``); the server cannot tell which
    is which — it just receives two comparison trapdoors per dimension.
    """

    attribute: str
    low: EncryptedPredicate
    high: EncryptedPredicate

    def trapdoors(self) -> tuple[EncryptedPredicate, EncryptedPredicate]:
        """Both trapdoors of this dimension."""
        return (self.low, self.high)


@dataclass
class _PredicateContext:
    """Snapshot of one predicate's QFilter pass over its POP chain."""

    trapdoor: EncryptedPredicate
    index: PRKBIndex
    #: Per chain position: ``_IN`` (all satisfy), ``_OUT`` (none satisfy)
    #: or ``_NS`` (not sure) at snapshot time — an int8 vector.
    status: np.ndarray
    #: NS partition objects (1 for a single-partition chain, else 2).
    ns_partitions: list[Partition]
    label_prefix: bool | None
    label_suffix: bool | None
    #: "single", or the mixed partition's role: tracked per NS partition —
    #: ns_partitions[0] is the lower ("a") and ns_partitions[-1] the upper.
    single: bool = False
    #: Candidate positions (indices into the sorted candidate array)
    #: grouped per NS partition (filled by the processor).
    groups: list[np.ndarray] = field(default_factory=list)
    #: Observed QPF outputs for this predicate's NS tuples, as aligned
    #: uid/label array pairs (appended batch-wise, never per uid).
    observed_uids: list[np.ndarray] = field(default_factory=list)
    observed_labels: list[np.ndarray] = field(default_factory=list)
    #: The NS partition observed non-homogeneous, if any.
    mixed_partition: Partition | None = None

    def record(self, uids: np.ndarray, labels: np.ndarray) -> None:
        """File one batch of observed QPF outputs."""
        if uids.size:
            self.observed_uids.append(np.asarray(uids, dtype=np.uint64))
            self.observed_labels.append(np.asarray(labels, dtype=bool))

    def observed(self) -> tuple[np.ndarray, np.ndarray]:
        """All observations so far as one (uids, labels) array pair."""
        if not self.observed_uids:
            return _EMPTY, np.zeros(0, dtype=bool)
        return (np.concatenate(self.observed_uids),
                np.concatenate(self.observed_labels))


class MultiDimensionProcessor:
    """Answer d-dimensional hyper-rectangle queries over PRKB indexes."""

    def __init__(self, indexes: dict[str, PRKBIndex],
                 update_policy: str = "complete-partition",
                 dim_order: str = "selective-first"):
        if not indexes:
            raise ValueError("at least one PRKB index is required")
        if update_policy not in UPDATE_POLICIES:
            raise ValueError(
                f"unknown update_policy {update_policy!r}; "
                f"expected one of {UPDATE_POLICIES}"
            )
        if dim_order not in DIM_ORDERS:
            raise ValueError(
                f"unknown dim_order {dim_order!r}; "
                f"expected one of {DIM_ORDERS}"
            )
        self.dim_order = dim_order
        tables = {id(ix.table) for ix in indexes.values()}
        if len(tables) != 1:
            raise ValueError("all indexes must cover the same table")
        self.indexes = dict(indexes)
        self.update_policy = update_policy
        self._table = next(iter(indexes.values())).table
        self._qpf = next(iter(indexes.values())).qpf

    def _index_for(self, attribute: str) -> PRKBIndex:
        try:
            return self.indexes[attribute]
        except KeyError:
            raise KeyError(
                f"no PRKB index for attribute {attribute!r}; "
                f"have {sorted(self.indexes)}"
            ) from None

    # ------------------------------------------------------------------ #
    # PRKB(SD+): naive per-predicate composition                          #
    # ------------------------------------------------------------------ #

    def select_naive(self, query: list[DimensionRange],
                     update: bool = True) -> np.ndarray:
        """Process the query one dimension at a time — PRKB(SD+)."""
        winners: np.ndarray | None = None
        for dimension in query:
            processor = SingleDimensionProcessor(
                self._index_for(dimension.attribute))
            part = processor.select_range(dimension.low, dimension.high,
                                          update=update)
            if winners is None:
                winners = part
            else:
                self._qpf.counter.charge(
                    comparisons=int(winners.size + part.size))
                winners = np.intersect1d(winners, part, assume_unique=True)
        for index in self.indexes.values():
            index.commit_journal()
        return winners if winners is not None else _EMPTY

    # ------------------------------------------------------------------ #
    # PRKB(MD): grid-based processing                                     #
    # ------------------------------------------------------------------ #

    def select(self, query: list[DimensionRange],
               update: bool = True) -> np.ndarray:
        """Process the query with the Sec. 6.2 grid algorithm — PRKB(MD)."""
        if not query:
            return _EMPTY
        contexts = self._snapshot(query)
        status_of = {
            position: self._dimension_status(ctxs)
            for position, ctxs in contexts.items()
        }
        free_winners = self._central_region(query, contexts, status_of)
        candidates = self._collect_candidates(query, contexts, status_of)
        survivors = self._test_candidates(contexts, candidates, status_of)
        if update and self.update_policy == "complete-partition":
            self._refine(contexts)
        self._qpf.counter.charge(
            comparisons=int(free_winners.size + survivors.size))
        for index in self.indexes.values():
            index.commit_journal()
        if survivors.size == 0:
            return free_winners
        return np.concatenate([free_winners, survivors])

    # -- phase 1: QFilter snapshots and per-partition classification ----- #

    def _snapshot(self, query: list[DimensionRange]
                  ) -> dict[int, list[_PredicateContext]]:
        """Run QFilter for all 2d predicates; classify every partition.

        The searches run in lock-step: every round ships each live
        search's pending probe through one ``batch_many`` crossing, so
        the phase costs as many crossings as its longest search.  No
        split lands between the searches and every draw is keyed by
        (seed, ordinal, step), so interleaving moves no QPF; priming
        the generators in query order (dimension, then ``low`` before
        ``high``) hands out the sampling ordinals as a serial run does.
        """
        views: dict[int, ChainView] = {}
        searches = []
        for position, dimension in enumerate(query):
            index = self._index_for(dimension.attribute)
            view = views.get(id(index))
            if view is None:
                view = views[id(index)] = index.pop.freeze()
            for trapdoor in dimension.trapdoors():
                index._check_attribute(trapdoor)
                searches.append((position, index, trapdoor,
                                 index._qfilter_gen(trapdoor, view)))
        outcomes = self._lock_step([search[3] for search in searches])
        contexts: dict[int, list[_PredicateContext]] = {}
        for (position, index, trapdoor, __), filtered in zip(searches,
                                                             outcomes):
            contexts.setdefault(position, []).append(
                self._classify(index, trapdoor, filtered))
        return contexts

    def _lock_step(self, generators: list) -> list:
        """Drive request generators together, one crossing per round;
        return their results in input order."""
        outcomes: list = [None] * len(generators)
        pending = []
        for slot, steps in enumerate(generators):
            try:
                pending.append((slot, steps, next(steps)))
            except StopIteration as stop:
                outcomes[slot] = stop.value
        while pending:
            answers = self._qpf.batch_many(
                [request for __, __, request in pending])
            advanced = []
            for (slot, steps, __), labels in zip(pending, answers):
                try:
                    advanced.append((slot, steps, steps.send(labels)))
                except StopIteration as stop:
                    outcomes[slot] = stop.value
            pending = advanced
        return outcomes

    @staticmethod
    def _classify(index: PRKBIndex, trapdoor: EncryptedPredicate,
                  filtered: QFilterOutcome) -> _PredicateContext:
        """One QFilter outcome turned into a per-partition status vector."""
        k = index.pop.num_partitions
        status = np.full(k, _NS, dtype=np.int8)
        ns = list(filtered.ns_indices)
        if len(ns) <= 1:
            return _PredicateContext(
                trapdoor=trapdoor,
                index=index,
                status=status,
                ns_partitions=[index.pop[i] for i in ns],
                label_prefix=None,
                label_suffix=None,
                single=True,
            )
        a, b = ns
        if filtered.boundary:
            status[1:k - 1] = _IN if filtered.label_prefix else _OUT
        else:
            status[:a] = _IN if filtered.label_prefix else _OUT
            status[b + 1:] = _IN if filtered.label_suffix else _OUT
        return _PredicateContext(
            trapdoor=trapdoor,
            index=index,
            status=status,
            ns_partitions=[index.pop[a], index.pop[b]],
            label_prefix=filtered.label_prefix,
            label_suffix=filtered.label_suffix,
        )

    @staticmethod
    def _dimension_status(contexts: list[_PredicateContext]) -> np.ndarray:
        """Combine the dimension's predicates into one status vector.

        ``_OUT`` dominates, then ``_NS``; a partition is ``_IN`` only when
        every predicate certifies it.  One vectorised pass over the chain.
        """
        stacked = np.stack([ctx.status for ctx in contexts])
        out = (stacked == _OUT).any(axis=0)
        ns = (stacked == _NS).any(axis=0)
        return np.where(out, _OUT, np.where(ns, _NS, _IN)).astype(np.int8)

    # -- phase 1b: central all-IN region and NS candidates --------------- #

    def _central_region(self, query: list[DimensionRange],
                        contexts: dict[int, list[_PredicateContext]],
                        status_of: dict[int, np.ndarray]) -> np.ndarray:
        """Tuples inside IN partitions of *every* dimension: free winners.

        IN partitions form at most two contiguous runs along the chain
        (a prefix and/or a suffix of the NS band), so the first
        dimension's IN set comes out of the prefix-sum buffer as
        whole-run slices; every further dimension keeps the uids its own
        chain files in an IN partition (one key gather, one compare per
        IN run) — no sort, no set intersection.  The result is in the
        first chain's order.
        """
        in_runs = [
            contexts[0][0].index.pop.range_uids(start, stop - 1)
            for start, stop in _mask_runs(status_of[0] == _IN)
        ]
        current = np.concatenate(in_runs) if in_runs else _EMPTY
        for position in range(1, len(query)):
            if current.size == 0:
                break
            pop = contexts[position][0].index.pop
            current = current[_in_runs(pop, pop.keys_of_uids(current),
                                       status_of[position] == _IN)]
        return current

    def _collect_candidates(self, query: list[DimensionRange],
                            contexts: dict[int, list[_PredicateContext]],
                            status_of: dict[int, np.ndarray]) -> np.ndarray:
        """Tuples in some NS partition and in no OUT partition.

        Also files each candidate into the per-predicate NS groups used by
        phase 2, so it is only ever tested against predicates that are
        actually unsure about it.  Everything is mask arithmetic: the NS
        runs come out of the prefix-sum buffers as slices and are
        scattered into one bool mask over the uid span, whose
        ``flatnonzero`` is the union in uid order; OUT-pruning is one
        key gather per dimension and one compare per run of non-OUT
        partitions, and the groups are index arrays into the returned
        (sorted, unique) candidate array, one key compare each.
        """
        ns_chunks = []
        for position in range(len(query)):
            index = contexts[position][0].index
            ns_chunks.extend(
                index.pop.range_uids(start, stop - 1)
                for start, stop in _mask_runs(status_of[position] == _NS)
            )
        ns_union = _EMPTY
        if ns_chunks:
            in_ns = np.zeros(max(int(chunk.max()) for chunk in ns_chunks)
                             + 1, dtype=bool)
            for chunk in ns_chunks:
                in_ns[chunk] = True
            ns_union = np.flatnonzero(in_ns).view(np.uint64)
        self._qpf.counter.charge(
            comparisons=int(ns_union.size) * len(query))
        keep = np.ones(ns_union.size, dtype=bool)
        keys_of: dict[int, np.ndarray] = {}
        for position in range(len(query)):
            pop = contexts[position][0].index.pop
            keys = keys_of[position] = pop.keys_of_uids(ns_union)
            keep &= _in_runs(pop, keys, status_of[position] != _OUT)
        candidates = ns_union[keep]
        for position in range(len(query)):
            candidate_keys = keys_of[position][keep]
            for ctx in contexts[position]:
                ctx.groups = []
                for partition in ctx.ns_partitions:
                    chain_pos = ctx.index.pop.index_of(partition)
                    if ctx.status[chain_pos] != _NS:
                        ctx.groups.append(_NO_POSITIONS)
                        continue  # defensive: NS slots only
                    ctx.groups.append(
                        np.flatnonzero(candidate_keys == partition.key))
        return candidates

    # -- phase 2: QPF testing with early-stop inference ------------------ #

    def _test_candidates(self, contexts: dict[int, list[_PredicateContext]],
                         candidates: np.ndarray,
                         status_of: dict[int, np.ndarray]) -> np.ndarray:
        """Test candidates against their unsure predicates only."""
        alive = np.ones(candidates.size, dtype=bool)
        for position in self._dimension_order(contexts, status_of):
            for ctx in contexts[position]:
                if not alive.any():
                    return candidates[alive]
                self._test_predicate(ctx, candidates, alive)
        return candidates[alive]

    def _dimension_order(self,
                         contexts: dict[int, list[_PredicateContext]],
                         status_of: dict[int, np.ndarray]) -> list[int]:
        """Dimension processing order for the candidate-testing phase."""
        positions = sorted(contexts)
        if self.dim_order == "given":
            return positions

        def estimated_pass_rate(position: int) -> float:
            combined = status_of[position]
            if combined.size == 0:
                return 1.0
            return float((combined != _OUT).sum()) / combined.size

        return sorted(positions, key=estimated_pass_rate)

    def _test_predicate(self, ctx: _PredicateContext,
                        candidates: np.ndarray,
                        alive: np.ndarray) -> None:
        """Evaluate one predicate over its NS groups, inferring when able.

        Scanning the lower NS partition first mirrors Algorithm 2: a mixed
        observation there certifies the other NS partition homogeneous with
        the suffix label (``label_suffix``), saving its QPF calls.
        """
        resolved: dict[int, bool] = {}
        for slot, group in enumerate(ctx.groups):
            live = group[alive[group]] if group.size else group
            if live.size == 0:
                continue
            if slot in resolved:
                label = resolved[slot]
                if not label:
                    alive[live] = False
                ctx.record(candidates[live],
                           np.full(live.size, label, dtype=bool))
                continue
            uids = candidates[live]
            labels = ctx.index.qpf.batch(ctx.trapdoor, ctx.index.table, uids)
            ctx.record(uids, labels)
            alive[live[~labels]] = False
            if labels.any() and not labels.all():
                # Mixed: this NS partition holds the separating point, so
                # every other NS partition of this predicate is homogeneous.
                ctx.mixed_partition = ctx.ns_partitions[slot]
                if not ctx.single and len(ctx.ns_partitions) == 2:
                    other = 1 - slot
                    inferred = (ctx.label_suffix if other == 1
                                else ctx.label_prefix)
                    resolved[other] = bool(inferred)

    # -- phase 3: POP refinement ----------------------------------------- #

    def _refine(self, contexts: dict[int, list[_PredicateContext]]) -> None:
        """Complete-partition update policy (see module docstring)."""
        for position in sorted(contexts):
            for ctx in contexts[position]:
                if ctx.mixed_partition is None or not ctx.index.can_grow:
                    continue
                partition = ctx.mixed_partition
                try:
                    ctx.index.pop.index_of(partition)
                except KeyError:
                    continue  # sibling predicate already split it
                members = partition.uids
                member_labels = _observed_labels(members, *ctx.observed())
                unknown = member_labels < 0
                if unknown.any():
                    untested = members[unknown]
                    labels = ctx.index.qpf.batch(ctx.trapdoor,
                                                 ctx.index.table, untested)
                    member_labels[unknown] = labels
                    ctx.record(untested, labels)
                true_uids = members[member_labels == 1]
                false_uids = members[member_labels == 0]
                if not (true_uids.size and false_uids.size):
                    continue  # completion revealed a homogeneous partition
                first_label = self._orientation(ctx, partition)
                chain_pos = ctx.index.pop.index_of(partition)
                ctx.index.apply_split(ctx.trapdoor, chain_pos, true_uids,
                                      false_uids, first_label)

    @staticmethod
    def _orientation(ctx: _PredicateContext, partition: Partition) -> bool:
        """First-half label for the split, by the Sec. 5.3 rules."""
        if ctx.single:
            return False
        if partition is ctx.ns_partitions[0]:
            return not ctx.label_suffix
        return bool(ctx.label_prefix)
