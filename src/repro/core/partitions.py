"""Partial order partitions (POP) — the knowledge PRKB accumulates.

Definition 4.2 of the paper: ``POP_k`` is a list of k disjoint partitions
covering the encrypted table such that every tuple in partition ``P_i`` has
a strictly smaller (or strictly larger — direction unknown to the SP) plain
value than every tuple in ``P_{i+1}``.  The chain is refined one split at a
time as inequivalent predicates are observed.

The implementation keeps, per partition, a dense ``uint64`` uid array
(appends buffer into a small pending list, folded in vectorised) and a
global slot-based ``uid -> partition`` lookup (one gather into
``_slot_of_uid`` plus one list index) so multi-dimensional processing can
classify tuples in O(1) — no per-uid Python dict maintenance anywhere on
the refinement path.

Vectorised ordinal lookups
--------------------------
The multi-dimensional grid engine classifies whole candidate *arrays* at
once, so the chain also maintains a dense ``uid -> slot`` int array plus a
``slot -> chain position`` table (``ordinals_of_uids``).  Each partition
owns a stable integer *slot*; a split touches only the second half's uids
(O(segment)), a merge only the merged members, and the slot→ordinal table
is patched by one vectorised shift per structural change (built lazily
in O(k) only the first time, and after a compaction).  Slots are
compacted when structural churn makes the table sparse, so the arrays
stay O(n + k).  The result: mapping
m candidate uids to chain positions is two numpy gathers instead of m
dict lookups.

The chain buffer and its offsets
--------------------------------
The chain lazily maintains one contiguous uid buffer in chain order plus
prefix-sum ``offsets`` (``offsets[i]`` = first buffer position of
``P_i``).  It serves the places that want members *as a set, in chain
order*: QFilter's endpoint and probe samples and QScan's NS partitions
read a :class:`ChainView` snapshot of it, and PRKB(MD) gathers its IN
and NS runs with :meth:`PartialOrderPartitions.range_uids` — each one
read-only slice, no per-partition concatenation.

Maintenance is in-place and cheap: a split permutes only its own
partition's segment of the buffer (O(segment)) and inserts one offset; a
merge deletes offsets and leaves the buffer untouched.  Because splits
never move uids *across* pre-existing segment boundaries, any boundary
captured earlier remains a boundary, which is what makes
:meth:`PartialOrderPartitions.freeze` snapshots (:class:`ChainView`)
set-stable while later queries keep refining the chain.  Tuple inserts
and deletes discard the buffer (rebuilt lazily as a *new* array, so
outstanding views are never corrupted).

Answers in uid order
--------------------
Selection answers are a run of whole partitions (the winners of
``X < c`` are ``P1..Pj``) plus the winners QScan found in the NS
partitions.  Callers name the run by its *buffer offsets* — the
coordinate a :class:`ChainView` is set-stable in — and
:meth:`PartialOrderPartitions.uids_in_order` turns it into the strictly
increasing uid array every operator returns, by construction: the
offsets become live chain positions (``searchsorted``), the positions a
bool table over slots (one compare on the slot→ordinal table), and that
table is gathered through ``uid -> slot``; the NS winners are scattered
into the result and ``flatnonzero`` reads it out in uid order.  O(k + n)
per answer, no sort, and no structure beyond the two lookup tables above.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Partition", "PartialOrderPartitions", "ChainView"]


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Partition:
    """One partition of the chain: an unordered set of tuple uids.

    ``slot`` is the stable integer id the owning chain uses for vectorised
    uid→ordinal lookups; ``-1`` for partitions not (yet) in a chain.
    """

    __slots__ = ("_array", "_pending", "slot")

    def __init__(self, uids, slot: int = -1):
        # Own copy: callers routinely pass views into shared buffers.
        self._array = np.array(uids, dtype=np.uint64, copy=True).ravel()
        self._pending: list[int] = []
        self.slot = slot

    def __len__(self) -> int:
        return self._array.size + len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Partition(size={len(self)})"

    def _fold_pending(self) -> None:
        self._array = np.concatenate([
            self._array, np.asarray(self._pending, dtype=np.uint64)])
        self._pending = []

    @property
    def uids(self) -> np.ndarray:
        """Members as a numpy array (appends folded in on demand)."""
        if self._pending:
            self._fold_pending()
        return self._array

    def sample(self, word: int) -> int:
        """The member a uniformly random 64-bit ``word`` picks —
        ``P_i.sample`` in the paper (``word mod |P_i|``)."""
        if self._pending:
            self._fold_pending()
        if not self._array.size:
            raise ValueError("cannot sample from an empty partition")
        return int(self._array[word % self._array.size])

    def add(self, uid: int) -> None:
        """Insert a tuple uid (Sec. 7.1 insertion lands here)."""
        self._pending.append(int(uid))

    def remove(self, uid: int) -> None:
        """Delete a tuple uid (Sec. 7.2); O(size) but deletes are rare."""
        if self._pending:
            self._fold_pending()
        hits = np.flatnonzero(self._array == np.uint64(uid))
        if hits.size == 0:
            raise ValueError(f"uid {uid} not in partition")
        self._array = np.delete(self._array, hits[0])


class PartialOrderPartitions:
    """The ordered chain ``P1 ↦ P2 ↦ … ↦ Pk`` plus a tuple→partition map.

    The chain's *global direction* (ascending vs descending in plain value)
    is unknowable to the SP; all algorithms are direction-agnostic and the
    test-suite invariant checks accept either orientation.
    """

    def __init__(self, uids: np.ndarray):
        #: Optional structural-event listener (duck-typed: ``on_split``,
        #: ``on_merge``, ``on_insert``, ``on_delete``).  The durability
        #: journal hooks in here to write-ahead-log every refinement.
        self.listener = None
        first = Partition(np.asarray(uids, dtype=np.uint64), slot=0)
        self._chain: list[Partition] = [first]
        self._buffer: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._next_slot = 1
        members = first.uids
        self._num_tuples = int(members.size)
        #: ``slot -> Partition`` (dead slots hold ``None``); together with
        #: ``_slot_of_uid`` this replaces the old per-uid dict map.
        self._partition_by_slot: list[Partition | None] = [first]
        capacity = int(members.max()) + 1 if members.size else 0
        self._slot_of_uid = np.full(capacity, -1, dtype=np.int64)
        if members.size:
            self._slot_of_uid[members] = 0
        self._slot_ordinals: np.ndarray | None = None
        #: Serializes the lazy buffer/ordinal rebuilds so that concurrent
        #: snapshot readers (holding the owning index's read lock) never
        #: observe a half-built table; structural mutations stay guarded
        #: by the index write lock above this layer.
        self._rebuild_lock = threading.Lock()

    @classmethod
    def from_segments(cls, members: np.ndarray,
                      offsets: np.ndarray) -> "PartialOrderPartitions":
        """Rebuild a chain from its serialized (members, offsets) form.

        ``members`` holds every tuple uid in chain order; ``offsets`` are
        the prefix sums (``offsets[i]`` = first position of ``P_i``).  The
        reconstruction is O(n + k) and reproduces the exact
        partition-internal uid order of the serialized chain — required
        for bit-identical post-restore sampling.
        """
        members = np.asarray(members, dtype=np.uint64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0 or int(offsets[0]) != 0 \
                or int(offsets[-1]) != members.size:
            raise ValueError("offsets do not describe the member array")
        self = cls.__new__(cls)
        self.listener = None
        self._chain = []
        self._slot_ordinals = None
        self._num_tuples = int(members.size)
        capacity = int(members.max()) + 1 if members.size else 0
        self._slot_of_uid = np.full(capacity, -1, dtype=np.int64)
        for position in range(offsets.size - 1):
            segment = members[offsets[position]:offsets[position + 1]]
            partition = Partition(segment, slot=position)
            self._chain.append(partition)
            if segment.size:
                self._slot_of_uid[segment] = position
        self._partition_by_slot = list(self._chain)
        self._next_slot = len(self._chain)
        self._buffer = members.copy()
        self._offsets = offsets.copy()
        self._rebuild_lock = threading.Lock()
        return self

    # ------------------------------------------------------------------ #
    # inspection                                                          #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._chain)

    def __iter__(self):
        return iter(self._chain)

    def __getitem__(self, index: int) -> Partition:
        return self._chain[index]

    @property
    def num_partitions(self) -> int:
        """k — the chain length."""
        return len(self._chain)

    @property
    def num_tuples(self) -> int:
        """Total number of tuples across all partitions."""
        return self._num_tuples

    def partition_of(self, uid: int) -> Partition:
        """The partition containing ``uid``."""
        uid = int(uid)
        slot = (int(self._slot_of_uid[uid])
                if 0 <= uid < self._slot_of_uid.size else -1)
        if slot < 0:
            raise KeyError(uid)
        return self._partition_by_slot[slot]

    def tracked_uids(self) -> np.ndarray:
        """Every uid currently covered by the chain (unordered)."""
        return np.flatnonzero(self._slot_of_uid >= 0).astype(np.uint64)

    def index_of(self, partition: Partition) -> int:
        """Chain position of ``partition`` (cached until structure changes).

        Served from the slot→ordinal table shared with
        :meth:`ordinals_of_uids`, so a structural change costs one table
        rebuild, not one rebuild per lookup kind.
        """
        self._ensure_ordinals()
        slot = partition.slot
        ordinal = (int(self._slot_ordinals[slot])
                   if 0 <= slot < self._slot_ordinals.size else -1)
        if ordinal < 0 or self._chain[ordinal] is not partition:
            raise KeyError(f"partition (slot {slot}) not in chain")
        return ordinal

    def index_of_uid(self, uid: int) -> int:
        """Chain position of the partition holding ``uid``."""
        return self.index_of(self.partition_of(uid))

    # -- vectorised uid -> chain-position lookups ----------------------- #

    def _grow_slot_array(self, capacity: int) -> None:
        old = self._slot_of_uid
        grown = np.full(max(capacity, 2 * old.size), -1, dtype=np.int64)
        grown[:old.size] = old
        self._slot_of_uid = grown

    def _fresh_slot(self, partition: Partition,
                    members: np.ndarray) -> None:
        """Give ``partition`` a new slot and point its members at it."""
        partition.slot = self._next_slot
        self._next_slot += 1
        self._partition_by_slot.append(partition)
        self._slot_of_uid[members] = partition.slot

    def _compact_slots(self) -> None:
        """Renumber slots densely after heavy structural churn."""
        for position, partition in enumerate(self._chain):
            partition.slot = position
            self._slot_of_uid[partition.uids] = position
        self._partition_by_slot = list(self._chain)
        self._next_slot = len(self._chain)

    def _slots_sparse(self) -> bool:
        return self._next_slot > max(64, 8 * len(self._chain))

    def _ensure_ordinals(self) -> None:
        if self._slot_ordinals is not None:
            return
        with self._rebuild_lock:
            if self._slot_ordinals is not None:
                return
            if self._slots_sparse():
                self._compact_slots()
            table = np.full(self._next_slot, -1, dtype=np.int64)
            for position, partition in enumerate(self._chain):
                table[partition.slot] = position
            self._slot_ordinals = table

    def ordinals_of_uids(self, uids: np.ndarray) -> np.ndarray:
        """Chain positions of many uids as one int64 array.

        Two numpy gathers (uid→slot, slot→ordinal); no per-uid Python.
        Raises ``KeyError`` if any uid is not tracked by the chain.
        """
        self._ensure_ordinals()
        uids = np.asarray(uids, dtype=np.uint64).ravel()
        if uids.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(uids.max()) >= self._slot_of_uid.size:
            raise KeyError("untracked uid in ordinals_of_uids")
        slots = self._slot_of_uid[uids]
        if int(slots.min()) < 0:
            raise KeyError("untracked uid in ordinals_of_uids")
        return self._slot_ordinals[slots]

    def sizes(self) -> list[int]:
        """Partition sizes along the chain."""
        return [len(p) for p in self._chain]

    # ------------------------------------------------------------------ #
    # chain-order slices and uid-order answers                            #
    # ------------------------------------------------------------------ #

    def _ensure_offsets(self) -> None:
        """(Re)build the contiguous uid buffer and its prefix sums."""
        if self._buffer is not None:
            return
        with self._rebuild_lock:
            if self._buffer is not None:
                return
            total = self.num_tuples
            buffer = np.empty(total, dtype=np.uint64)
            offsets = np.empty(len(self._chain) + 1, dtype=np.int64)
            offsets[0] = 0
            cursor = 0
            for i, partition in enumerate(self._chain):
                members = partition.uids
                buffer[cursor:cursor + members.size] = members
                cursor += members.size
                offsets[i + 1] = cursor
            # Publish offsets first: readers test ``_buffer`` for
            # doneness, so it must become non-None last.
            self._offsets = offsets
            self._buffer = buffer

    def _drop_buffer(self) -> None:
        """Discard the buffer (tuple-set changed); rebuilt lazily anew."""
        self._buffer = None
        self._offsets = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_rebuild_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._rebuild_lock = threading.Lock()

    @property
    def offsets(self) -> np.ndarray:
        """Prefix sums: ``offsets[i]`` is P_i's start in the uid buffer."""
        self._ensure_offsets()
        return _readonly(self._offsets)

    def range_uids(self, first: int, last: int) -> np.ndarray:
        """Members of ``P_{first+1}..P_{last+1}`` (inclusive indices) as
        one read-only contiguous slice, in chain order.

        The returned view is *set-stable*: later splits may permute uids
        within it but never change which uids it contains.  Callers that
        outlive further tuple inserts/deletes must copy.
        """
        self._ensure_offsets()
        return _readonly(
            self._buffer[self._offsets[first]:self._offsets[last + 1]])

    def uids_in_order(self, start: int, stop: int,
                      extra=()) -> np.ndarray:
        """Members at chain-buffer offsets ``[start, stop)`` plus every uid
        in the ``extra`` arrays, as one strictly increasing ``uint64``
        array (see "Answers in uid order" in the module docstring).

        ``start`` / ``stop`` must be partition boundaries of a buffer
        this chain has published — live, or pinned earlier by a
        :class:`ChainView` and refined only by splits since — so they
        name whole live partitions.  ``stop <= start`` names none.
        """
        self._ensure_offsets()
        self._ensure_ordinals()
        # One read each: both tables are republished by reference swap.
        ordinals, slot_of_uid = self._slot_ordinals, self._slot_of_uid
        first, last = np.searchsorted(self._offsets, (start, stop))
        if first < last:
            # The trailing False is where a deleted or untracked uid's
            # ``-1`` slot lands.
            wanted = np.zeros(ordinals.size + 1, dtype=bool)
            np.logical_and(ordinals >= first, ordinals < last,
                           out=wanted[:-1])
            hit = wanted[slot_of_uid]
        else:
            hit = np.zeros(slot_of_uid.size, dtype=bool)
        for uids in extra:
            hit[uids] = True
        return np.flatnonzero(hit).view(np.uint64)

    def freeze(self) -> "ChainView":
        """Snapshot the chain for one batched execution window.

        The view pins the current partition list, buffer and offsets;
        concurrent *splits* on the live chain keep the snapshot's slices
        set-stable (see module docstring).  Tuple inserts/deletes and
        merges are not permitted inside a batch window.
        """
        self._ensure_offsets()
        return ChainView(list(self._chain), self._buffer, self._offsets)

    # ------------------------------------------------------------------ #
    # refinement                                                          #
    # ------------------------------------------------------------------ #

    def _splice_ordinals(self, index: int, died: int, born: int) -> None:
        """Patch the slot→ordinal table after one structural change.

        Mirrors ``chain[index:index + died] = [newest] * born``: the
        slots at those ``died`` positions are dead, the newest slot
        (``born`` is 0 or 1) sits at ``index`` and every later position
        moved by ``born - died``.  Written into a *new* array published
        by one reference swap, so a reader holding the previous table
        never sees it half-shifted.  With no table yet, or once slot
        churn crosses the compaction threshold, it is left to the lazy
        rebuild (which compacts).
        """
        table = self._slot_ordinals
        if table is None:
            return
        if self._slots_sparse():
            self._slot_ordinals = None
            return
        shifted = np.empty(self._next_slot, dtype=np.int64)
        kept = shifted[:table.size]
        np.add(table, (born - died) * (table >= index + died), out=kept)
        if died:
            kept[(table >= index) & (table < index + died)] = -1
        if born:
            shifted[-1] = index
        self._slot_ordinals = shifted

    def split(self, index: int, first_uids: np.ndarray,
              second_uids: np.ndarray) -> tuple[Partition, Partition]:
        """Replace ``P[index]`` by two partitions in the given chain order.

        The caller (``updatePRKB``) has already decided the orientation —
        i.e. which half sits adjacent to which neighbour; this method only
        performs the structural replacement.
        """
        old = self._chain[index]
        first_uids = np.asarray(first_uids, dtype=np.uint64)
        second_uids = np.asarray(second_uids, dtype=np.uint64)
        if first_uids.size == 0 or second_uids.size == 0:
            raise ValueError("split halves must both be non-empty")
        if first_uids.size + second_uids.size != len(old):
            raise ValueError(
                "split halves do not partition the original "
                f"({first_uids.size} + {second_uids.size} != {len(old)})"
            )
        # The first half inherits the old slot (its uids already map
        # there); only the second half's uids need repointing.
        first = Partition(first_uids, slot=old.slot)
        second = Partition(second_uids)
        self._partition_by_slot[old.slot] = first
        self._fresh_slot(second, second_uids)
        self._chain[index:index + 1] = [first, second]
        if self._buffer is not None:
            # Reorder the split partition's own segment in place (the two
            # halves are copies, so overlapping writes are safe) and grow
            # the offset list by the new boundary.  Positions outside the
            # segment are untouched, which keeps frozen views set-stable.
            lo = int(self._offsets[index])
            cut = lo + first_uids.size
            self._buffer[lo:cut] = first_uids
            self._buffer[cut:lo + len(old)] = second_uids
            self._offsets = np.insert(self._offsets, index + 1, cut)
        self._splice_ordinals(index + 1, died=0, born=1)
        if self.listener is not None:
            self.listener.on_split(index, first_uids, second_uids)
        return first, second

    def merge_range(self, first: int, last: int) -> Partition:
        """Coarsen the chain by merging partitions ``first..last`` into one.

        Merging adjacent partitions is always sound — it only *forgets*
        ordering knowledge (``POP_k`` degrades towards ``POP_{k-m}``).  Used
        as the fallback when an insertion cannot be placed decisively
        (possible only with BETWEEN-created boundaries; see
        :mod:`repro.core.between`).
        """
        if not 0 <= first <= last < len(self._chain):
            raise IndexError(f"merge range [{first}, {last}] out of bounds")
        if first == last:
            return self._chain[first]
        merged_uids = np.concatenate(
            [self._chain[i].uids for i in range(first, last + 1)])
        merged = Partition(merged_uids)
        for i in range(first, last + 1):
            self._partition_by_slot[self._chain[i].slot] = None
        self._fresh_slot(merged, merged_uids)
        self._chain[first:last + 1] = [merged]
        if self._offsets is not None:
            # The buffer already stores the merged members contiguously;
            # only the interior boundaries disappear.
            self._offsets = np.delete(self._offsets,
                                      np.arange(first + 1, last + 1))
        self._splice_ordinals(first, died=last - first + 1, born=1)
        if self.listener is not None:
            self.listener.on_merge(first, last)
        return merged

    # ------------------------------------------------------------------ #
    # updates (Sec. 7)                                                    #
    # ------------------------------------------------------------------ #

    def insert(self, uid: int, index: int) -> None:
        """Place a newly inserted tuple into partition ``index``."""
        uid = int(uid)
        if (0 <= uid < self._slot_of_uid.size
                and self._slot_of_uid[uid] >= 0):
            raise ValueError(f"uid {uid} already tracked by POP")
        partition = self._chain[index]
        partition.add(uid)
        if uid >= self._slot_of_uid.size:
            self._grow_slot_array(uid + 1)
        self._slot_of_uid[uid] = partition.slot
        self._num_tuples += 1
        self._drop_buffer()
        if self.listener is not None:
            self.listener.on_insert(uid, index)

    def delete(self, uid: int) -> int | None:
        """Remove a tuple; returns the chain index of a partition that
        became empty and was dropped, or ``None`` if no partition vanished.

        When a partition empties, the knowledge degrades from ``POP_k`` to
        ``POP_{k-1}`` (Sec. 7.2); the caller retires the matching separator
        predicate.
        """
        uid = int(uid)
        partition = self.partition_of(uid)
        partition.remove(uid)
        self._slot_of_uid[uid] = -1
        self._num_tuples -= 1
        self._drop_buffer()
        if self.listener is not None:
            self.listener.on_delete(uid)
        if len(partition) > 0:
            return None
        index = self.index_of(partition)
        del self._chain[index]
        self._partition_by_slot[partition.slot] = None
        self._splice_ordinals(index, died=1, born=0)
        return index

    # ------------------------------------------------------------------ #
    # validation (test support)                                           #
    # ------------------------------------------------------------------ #

    def check_invariants(self, plain_value_of=None) -> None:
        """Assert the POP invariants; optionally check order consistency.

        ``plain_value_of`` maps uid → plaintext value (ground truth known
        only to tests).  The chain must then be monotone *as partitions* in
        one direction or the other (Definition 4.2).
        """
        seen: set[int] = set()
        for partition in self._chain:
            if len(partition) == 0:
                raise AssertionError("empty partition in chain")
            members = {int(u) for u in partition.uids}
            if members & seen:
                raise AssertionError("partitions are not disjoint")
            seen |= members
            for u in members:
                try:
                    mapped = self.partition_of(u)
                except KeyError:
                    mapped = None
                if mapped is not partition:
                    raise AssertionError(f"uid {u} mapped to wrong partition")
        if seen != set(int(u) for u in self.tracked_uids()) \
                or len(seen) != self._num_tuples:
            raise AssertionError("partition map does not cover the chain")
        if seen:
            members = np.asarray(sorted(seen), dtype=np.uint64)
            want = np.asarray([self.index_of(self.partition_of(int(u)))
                               for u in members], dtype=np.int64)
            got = self.ordinals_of_uids(members)
            if not np.array_equal(got, want):
                raise AssertionError(
                    "uid -> ordinal array disagrees with partition map")
        if plain_value_of is None or len(self._chain) == 1:
            return
        ranges = []
        for partition in self._chain:
            values = [plain_value_of(int(u)) for u in partition.uids]
            ranges.append((min(values), max(values)))
        ascending = all(
            ranges[i][1] < ranges[i + 1][0] for i in range(len(ranges) - 1)
        )
        descending = all(
            ranges[i][0] > ranges[i + 1][1] for i in range(len(ranges) - 1)
        )
        if not (ascending or descending):
            raise AssertionError(
                f"chain is not monotone in either direction: {ranges}"
            )


class ChainView:
    """An immutable snapshot of the POP chain for one execution window.

    Produced by :meth:`PartialOrderPartitions.freeze`.  Pipelines in a
    batched window walk the *snapshot* — its partition list and offsets
    never move under them even while completed queries in the same window
    split the live chain.  Soundness rests on two facts:

    * a split replaces one partition with two holding exactly the same
      uids, so every snapshot partition's member *set* is unchanged (the
      old :class:`Partition` object is simply no longer in the live
      chain, but its uid list is never mutated by splits), and
    * buffer rewrites stay inside pre-existing segment boundaries, so
      the snapshot's prefix/suffix/range slices remain set-equal, and
      every snapshot offset (:meth:`span`) is still a live boundary —
      which is what lets :meth:`PartialOrderPartitions.uids_in_order`
      answer a snapshot range against the live chain.

    Tuple inserts/deletes and merges invalidate snapshots; the batching
    layer never interleaves them with a window.
    """

    __slots__ = ("_chain", "_buffer", "_offsets")

    def __init__(self, chain: list[Partition], buffer: np.ndarray,
                 offsets: np.ndarray):
        self._chain = chain
        self._buffer = buffer
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._chain)

    def __iter__(self):
        return iter(self._chain)

    def __getitem__(self, index: int) -> Partition:
        return self._chain[index]

    @property
    def num_partitions(self) -> int:
        """k at snapshot time."""
        return len(self._chain)

    @property
    def num_tuples(self) -> int:
        """Total tuples covered by the snapshot."""
        return int(self._offsets[-1])

    def prefix_uids(self, count: int) -> np.ndarray:
        """Snapshot members of ``P1..P_count`` — one read-only slice."""
        return _readonly(self._buffer[:self._offsets[count]])

    def suffix_uids(self, start: int) -> np.ndarray:
        """Snapshot members of ``P_{start+1}..P_k`` — one slice."""
        return _readonly(self._buffer[self._offsets[start]:])

    def range_uids(self, first: int, last: int) -> np.ndarray:
        """Snapshot members of partitions ``first..last`` inclusive."""
        return _readonly(
            self._buffer[self._offsets[first]:self._offsets[last + 1]])

    def span(self, first: int, last: int) -> tuple[int, int]:
        """Buffer offsets ``(start, stop)`` of partitions ``first..last``
        inclusive — the set :meth:`range_uids` slices, in the coordinate
        :meth:`PartialOrderPartitions.uids_in_order` takes."""
        return int(self._offsets[first]), int(self._offsets[last + 1])
