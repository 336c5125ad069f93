"""Partial order partitions (POP) — the knowledge PRKB accumulates.

Definition 4.2 of the paper: ``POP_k`` is a list of k disjoint partitions
covering the encrypted table such that every tuple in partition ``P_i`` has
a strictly smaller (or strictly larger — direction unknown to the SP) plain
value than every tuple in ``P_{i+1}``.  The chain is refined one split at a
time as inequivalent predicates are observed.

The implementation keeps, per partition, a dense ``uint64`` uid array
(appends buffer into a small pending list, folded in vectorised) and one
global ``uid -> order key`` array, so tuples are classified by numpy
compares — no per-uid Python dict maintenance anywhere on the
refinement path.

Order keys
----------
Every partition in the chain holds an integer *order key*
(:attr:`Partition.key`) in ``[0, 2**30)``, strictly increasing along the
chain, and the chain keeps one dense ``int32`` ``uid -> key`` array
(``-1`` = untracked; :meth:`PartialOrderPartitions.keys_of_uids`).  Keys
preserve exactly what the chain already shows the SP — order and
partition equality — and nothing more.  Because they increase, "is this
uid in chain positions ``[i, j)``" is a compare against the keys of
``P_i`` and ``P_j``
(:meth:`PartialOrderPartitions.keys_in_run`); because they are stable
under splits elsewhere, a structural change writes only the uids whose
partition changed:

* a split leaves the first half the old key and gives the second half
  the midpoint between its neighbours' keys (or between the old key and
  ``2**30`` at the chain's end), writing only the second half's uids;
* a merge keeps its first partition's key and rewrites the others'
  members; an insert or delete writes one entry;
* when a split finds no gap left, the whole chain is re-keyed evenly in
  one vectorised pass over the chain buffer and the new array is
  published by reference swap (under the index write lock, like every
  structural change).

Chain positions are recovered by binary search over the chain's keys
(:meth:`PartialOrderPartitions.index_of`).  Keys are never persisted:
:meth:`PartialOrderPartitions.from_segments` assigns even keys.

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
set-stable while later queries keep refining the chain.  A tuple insert
puts the uid at the end of its partition's segment (where
:meth:`Partition.add` appends it) and a delete takes it out of its
segment; both shift the later offsets, and a partition that empties
drops its boundary.  Both build *new* arrays (``np.insert`` /
``np.delete``), so outstanding views keep their slices.  Segment
``P_i`` of the buffer always equals ``P_i.uids`` in order.

A chain built from scratch (a new chain, :meth:`from_segments`) has no
buffer until its first reader builds it with one concatenate, so
recovery replays journaled inserts and deletes without patching one.

Answers in uid order
--------------------
Selection answers are a run of whole partitions (the winners of
``X < c`` are ``P1..Pj``) plus the winners QScan found in the NS
partitions.  Callers name the run by its *buffer offsets* — the
coordinate a :class:`ChainView` is set-stable in — and
:meth:`PartialOrderPartitions.uids_in_order` turns it into the strictly
increasing uid array every operator returns, by construction: the
offsets become live chain positions (``searchsorted``), the run's two
end keys turn the ``uid -> key`` array into a bool mask over uids
(one vectorised compare, two for a run strictly inside the chain;
``-1`` never matches), the NS winners are
scattered into it and ``flatnonzero`` reads it out in uid order.  O(n)
per answer with no gather, no sort, and no structure beyond the keys.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import attrgetter

import numpy as np

__all__ = ["Partition", "PartialOrderPartitions", "ChainView"]

#: Order keys live in ``[0, KEY_SPACE)``; the last partition's gap runs
#: to ``KEY_SPACE``.  Keys and the ``-1`` sentinel fit ``int32``.
KEY_SPACE = 1 << 30

_key_of = attrgetter("key")


def _even_keys(count: int) -> np.ndarray:
    """``count`` evenly spaced order keys, as ``int32``."""
    return (np.arange(count, dtype=np.int64)
            * (KEY_SPACE // max(count, 1))).astype(np.int32)


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Partition:
    """One partition of the chain: an unordered set of tuple uids.

    ``key`` is the owning chain's order key for this partition (see
    "Order keys" in the module docstring); ``-1`` for partitions not
    (yet) in a chain.
    """

    __slots__ = ("_array", "_pending", "key")

    def __init__(self, uids, key: int = -1):
        # Own copy: callers routinely pass views into shared buffers.
        self._array = np.array(uids, dtype=np.uint64, copy=True).ravel()
        self._pending: list[int] = []
        self.key = key

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

    def remove(self, uid: int) -> int:
        """Delete a tuple uid (Sec. 7.2); O(size) but deletes are rare.
        Returns where it sat among the members, in :attr:`uids` order."""
        if self._pending:
            self._fold_pending()
        hits = np.flatnonzero(self._array == np.uint64(uid))
        if hits.size == 0:
            raise ValueError(f"uid {uid} not in partition")
        slot = int(hits[0])
        self._array = np.delete(self._array, slot)
        return slot


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
        first = Partition(np.asarray(uids, dtype=np.uint64), key=0)
        self._chain: list[Partition] = [first]
        self._buffer: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        members = first.uids
        self._num_tuples = int(members.size)
        capacity = int(members.max()) + 1 if members.size else 0
        #: ``uid -> order key`` of its partition, ``-1`` when untracked.
        self._key_of_uid = np.full(capacity, -1, dtype=np.int32)
        if members.size:
            self._key_of_uid[members] = 0
        #: Serializes the lazy buffer rebuild so that concurrent snapshot
        #: readers (holding the owning index's read lock) never observe a
        #: half-built buffer; structural mutations stay guarded by the
        #: index write lock above this layer.
        self._rebuild_lock = threading.Lock()

    @classmethod
    def from_segments(cls, members: np.ndarray,
                      offsets: np.ndarray) -> "PartialOrderPartitions":
        """Rebuild a chain from its serialized (members, offsets) form.

        ``members`` holds every tuple uid in chain order; ``offsets`` are
        the prefix sums (``offsets[i]`` = first position of ``P_i``).  The
        reconstruction is O(n + k) and reproduces the exact
        partition-internal uid order of the serialized chain — required
        for bit-identical post-restore sampling.  Order keys are not
        serialized; the rebuilt chain gets evenly spaced ones.  The chain
        buffer is built by its first reader, so a replay of journaled
        inserts and deletes that follows patches none.
        """
        members = np.asarray(members, dtype=np.uint64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0 or int(offsets[0]) != 0 \
                or int(offsets[-1]) != members.size:
            raise ValueError("offsets do not describe the member array")
        self = cls.__new__(cls)
        self.listener = None
        self._num_tuples = int(members.size)
        keys = _even_keys(offsets.size - 1)
        self._chain = [
            Partition(members[offsets[position]:offsets[position + 1]],
                      key=key)
            for position, key in enumerate(keys.tolist())]
        capacity = int(members.max()) + 1 if members.size else 0
        self._key_of_uid = np.full(capacity, -1, dtype=np.int32)
        self._key_of_uid[members] = np.repeat(keys, np.diff(offsets))
        self._buffer = None
        self._offsets = None
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

    def _position_of_key(self, key: int) -> int:
        """Chain position of the partition holding order key ``key``
        (binary search over the chain's keys), or ``-1``."""
        chain = self._chain
        position = bisect_left(chain, key, key=_key_of)
        if position < len(chain) and chain[position].key == key:
            return position
        return -1

    def partition_of(self, uid: int) -> Partition:
        """The partition containing ``uid``."""
        uid = int(uid)
        key_of_uid = self._key_of_uid
        key = int(key_of_uid[uid]) if 0 <= uid < key_of_uid.size else -1
        position = self._position_of_key(key) if key >= 0 else -1
        if position < 0:
            raise KeyError(uid)
        return self._chain[position]

    def tracked_uids(self) -> np.ndarray:
        """Every uid currently covered by the chain, in increasing order."""
        return np.flatnonzero(self._key_of_uid >= 0).astype(np.uint64)

    def index_of(self, partition: Partition) -> int:
        """Chain position of ``partition``: a binary search over the
        chain's keys, verified by identity (``KeyError`` when the
        partition is no longer in the chain)."""
        position = self._position_of_key(partition.key)
        if position < 0 or self._chain[position] is not partition:
            raise KeyError(f"partition (key {partition.key}) not in chain")
        return position

    def index_of_uid(self, uid: int) -> int:
        """Chain position of the partition holding ``uid``."""
        return self.index_of(self.partition_of(uid))

    # -- order keys ------------------------------------------------------ #

    def keys_of_uids(self, uids: np.ndarray) -> np.ndarray:
        """Order keys of many uids as one ``int32`` array — one gather.

        Keys increase along the chain, so they compare as the uids'
        chain positions do, and two uids share a key exactly when they
        share a partition.  Raises ``KeyError`` if any uid is not
        tracked by the chain.
        """
        uids = np.asarray(uids, dtype=np.uint64).ravel()
        if uids.size == 0:
            return np.zeros(0, dtype=np.int32)
        key_of_uid = self._key_of_uid
        if int(uids.max()) >= key_of_uid.size:
            raise KeyError("untracked uid in keys_of_uids")
        keys = key_of_uid[uids]
        if int(keys.min()) < 0:
            raise KeyError("untracked uid in keys_of_uids")
        return keys

    def keys_in_run(self, keys: np.ndarray, first: int,
                    last: int) -> np.ndarray:
        """Mask of the ``int32`` order ``keys`` held by chain positions
        ``[first, last)`` (``first < last``): a compare against the
        run's end keys.  ``-1`` (untracked) never matches: read unsigned,
        it is larger than every key, and it is below every lower end."""
        chain = self._chain
        if last >= len(chain):
            return keys >= chain[first].key
        high = chain[last].key
        if first == 0:
            return keys.view(np.uint32) < high
        # Two bool compares, not one on ``keys - low``: as fast, and no
        # int32 temporary the size of the uid space.
        hit = keys >= chain[first].key
        hit &= keys < high
        return hit

    def _rekey(self) -> None:
        """Space the chain's keys evenly again (a split found no gap).

        One vectorised pass over the chain buffer; the new ``uid -> key``
        array is published by reference swap.  A chain without a buffer
        (mid-replay) concatenates one for this pass and publishes none.
        """
        buffer, offsets = self._buffer, self._offsets
        if buffer is None:
            buffer, offsets = self.segments()
        keys = _even_keys(len(self._chain))
        fresh = np.full(self._key_of_uid.size, -1, dtype=np.int32)
        fresh[buffer] = np.repeat(keys, np.diff(offsets))
        for partition, key in zip(self._chain, keys.tolist()):
            partition.key = key
        self._key_of_uid = fresh

    def sizes(self) -> list[int]:
        """Partition sizes along the chain."""
        return [len(p) for p in self._chain]

    # ------------------------------------------------------------------ #
    # chain-order slices and uid-order answers                            #
    # ------------------------------------------------------------------ #

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The chain as ``(members, offsets)`` — every uid in chain order
        in one new array, plus prefix sums — built from the partitions
        with one concatenate and one cumsum: the form
        :meth:`from_segments` takes, and a fresh chain buffer."""
        members = [partition.uids for partition in self._chain]
        offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum([array.size for array in members], out=offsets[1:])
        if not members:
            return np.zeros(0, dtype=np.uint64), offsets
        return np.concatenate(members), offsets

    def _ensure_offsets(self) -> None:
        """Build the contiguous uid buffer and its prefix sums, if absent."""
        if self._buffer is not None:
            return
        with self._rebuild_lock:
            if self._buffer is not None:
                return
            buffer, offsets = self.segments()
            # Publish offsets first: readers test ``_buffer`` for
            # doneness, so it must become non-None last.
            self._offsets = offsets
            self._buffer = buffer

    def _drop_buffer(self) -> None:
        """Discard the buffer; the next reader builds it anew."""
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
        # One read: re-keying republishes the array by reference swap.
        key_of_uid = self._key_of_uid
        first, last = np.searchsorted(self._offsets, (start, stop))
        if first < last:
            hit = self.keys_in_run(key_of_uid, int(first), int(last))
        else:
            hit = np.zeros(key_of_uid.size, dtype=bool)
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

    def split(self, index: int, first_uids: np.ndarray,
              second_uids: np.ndarray) -> tuple[Partition, Partition]:
        """Replace ``P[index]`` by two partitions in the given chain order.

        The caller (``updatePRKB``) has already decided the orientation —
        i.e. which half sits adjacent to which neighbour; this method only
        performs the structural replacement.
        """
        chain = self._chain
        old = chain[index]
        first_uids = np.asarray(first_uids, dtype=np.uint64)
        second_uids = np.asarray(second_uids, dtype=np.uint64)
        if first_uids.size == 0 or second_uids.size == 0:
            raise ValueError("split halves must both be non-empty")
        if first_uids.size + second_uids.size != len(old):
            raise ValueError(
                "split halves do not partition the original "
                f"({first_uids.size} + {second_uids.size} != {len(old)})"
            )
        # The first half keeps the old key (its uids already hold it);
        # the second takes the midpoint of the gap to the next key.
        following = (chain[index + 1].key if index + 1 < len(chain)
                     else KEY_SPACE)
        key = (old.key + following) // 2
        first = Partition(first_uids, key=old.key)
        second = Partition(second_uids, key=key)
        chain[index:index + 1] = [first, second]
        if self._buffer is not None:
            # Reorder the split partition's own segment in place (the two
            # halves are copies, so overlapping writes are safe) and grow
            # the offset list by the new boundary.  Positions outside the
            # segment are untouched, which keeps frozen views set-stable.
            offsets = self._offsets
            lo = int(offsets[index])
            cut = lo + first_uids.size
            self._buffer[lo:cut] = first_uids
            self._buffer[cut:lo + len(old)] = second_uids
            self._offsets = np.concatenate(
                (offsets[:index + 1], (cut,), offsets[index + 1:]))
        if key > old.key:
            self._key_of_uid[second_uids] = key
        else:
            self._rekey()  # no gap left between the neighbours
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
        head = self._chain[first]
        merged_uids = np.concatenate(
            [self._chain[i].uids for i in range(first, last + 1)])
        # The merged partition keeps the first key; the rest repoint.
        merged = Partition(merged_uids, key=head.key)
        self._key_of_uid[merged_uids[len(head):]] = head.key
        self._chain[first:last + 1] = [merged]
        if self._offsets is not None:
            # The buffer already stores the merged members contiguously;
            # only the interior boundaries disappear.
            self._offsets = np.concatenate(
                (self._offsets[:first + 1], self._offsets[last + 1:]))
        if self.listener is not None:
            self.listener.on_merge(first, last)
        return merged

    # ------------------------------------------------------------------ #
    # updates (Sec. 7)                                                    #
    # ------------------------------------------------------------------ #

    def insert(self, uid: int, index: int) -> None:
        """Place a newly inserted tuple into partition ``index``."""
        self.insert_many([uid], [index])

    def insert_many(self, uids, positions) -> None:
        """Place new tuples, ``uids[j]`` into partition ``positions[j]``,
        in order (Sec. 7.1), as if by one :meth:`insert` each.

        Each uid lands at the end of its partition; a live chain buffer
        takes the whole batch with one ``np.insert`` into a new array.
        """
        uids = [int(uid) for uid in uids]
        positions = [int(position) for position in positions]
        key_of_uid = self._key_of_uid
        if len(set(uids)) != len(uids):
            raise ValueError("duplicate uids in insert")
        for uid in uids:
            if 0 <= uid < key_of_uid.size and key_of_uid[uid] >= 0:
                raise ValueError(f"uid {uid} already tracked by POP")
        chain = self._chain
        if any(not 0 <= position < len(chain) for position in positions):
            raise IndexError(f"insert positions {positions} out of bounds")
        if not uids:
            return
        top = max(uids)
        if top >= key_of_uid.size:
            grown = np.full(max(top + 1, 2 * key_of_uid.size), -1,
                            dtype=np.int32)
            grown[:key_of_uid.size] = key_of_uid
            self._key_of_uid = key_of_uid = grown
        for uid, position in zip(uids, positions):
            partition = chain[position]
            partition.add(uid)
            key_of_uid[uid] = partition.key
        self._num_tuples += len(uids)
        if self._buffer is not None:
            # Equal insertion points keep the batch's order, which is
            # the order the partitions appended the uids in.
            at = np.asarray(positions, dtype=np.int64)
            offsets = self._offsets.copy()
            offsets[1:] += np.cumsum(np.bincount(at, minlength=len(chain)))
            self._buffer = np.insert(self._buffer, self._offsets[at + 1],
                                     np.asarray(uids, dtype=np.uint64))
            self._offsets = offsets
        if self.listener is not None:
            for uid, position in zip(uids, positions):
                self.listener.on_insert(uid, position)

    def delete(self, uid: int) -> int | None:
        """Remove a tuple; returns the chain index of a partition that
        became empty and was dropped, or ``None`` if no partition vanished.

        When a partition empties, the knowledge degrades from ``POP_k`` to
        ``POP_{k-1}`` (Sec. 7.2); the caller retires the matching separator
        predicate.  A live chain buffer loses the uid's cell (a new
        array) and, with the partition, its boundary.
        """
        uid = int(uid)
        partition = self.partition_of(uid)
        slot = partition.remove(uid)
        self._key_of_uid[uid] = -1
        self._num_tuples -= 1
        index = self.index_of(partition)
        if self._buffer is not None:
            offsets = self._offsets.copy()
            offsets[index + 1:] -= 1
            if not len(partition):
                offsets = np.delete(offsets, index + 1)
            self._buffer = np.delete(self._buffer,
                                     int(self._offsets[index]) + slot)
            self._offsets = offsets
        if self.listener is not None:
            self.listener.on_delete(uid)
        if len(partition) > 0:
            return None
        del self._chain[index]
        return index

    # ------------------------------------------------------------------ #
    # validation (test support)                                           #
    # ------------------------------------------------------------------ #

    def check_invariants(self, plain_value_of=None) -> None:
        """Assert the POP invariants; optionally check order consistency.

        Structure: partitions are non-empty and disjoint, their keys
        strictly increase inside ``[0, KEY_SPACE)``, every member holds
        its partition's key in the ``uid -> key`` array, every other uid
        holds ``-1``, and :meth:`partition_of` / :meth:`index_of` agree
        with the chain.  A live chain buffer holds each partition's
        members, in order, between its offsets.  ``plain_value_of`` maps
        uid → plaintext value (ground truth known only to tests).  The
        chain must then be monotone *as partitions* in one direction or
        the other (Definition 4.2).
        """
        keys = [partition.key for partition in self._chain]
        if any(not 0 <= key < KEY_SPACE for key in keys) or any(
                a >= b for a, b in zip(keys, keys[1:])):
            raise AssertionError(f"keys do not increase along the chain: "
                                 f"{keys}")
        key_of_uid = self._key_of_uid
        expected = np.full(key_of_uid.size, -1, dtype=np.int32)
        claimed = np.zeros(key_of_uid.size, dtype=np.int64)
        for position, partition in enumerate(self._chain):
            members = partition.uids
            if members.size == 0:
                raise AssertionError("empty partition in chain")
            if int(members.max()) >= key_of_uid.size:
                raise AssertionError("member beyond the uid -> key array")
            np.add.at(claimed, members, 1)
            expected[members] = partition.key
            if self.index_of(partition) != position:
                raise AssertionError("index_of disagrees with the chain")
            probe = int(members[position % members.size])
            if self.partition_of(probe) is not partition:
                raise AssertionError(f"uid {probe} mapped to wrong partition")
        if int(claimed.max(initial=0)) > 1:
            raise AssertionError("partitions are not disjoint")
        if not np.array_equal(key_of_uid, expected):
            raise AssertionError("uid -> key array disagrees with the chain")
        if int(claimed.sum()) != self._num_tuples:
            raise AssertionError("partition map does not cover the chain")
        if self._buffer is not None:
            # Segment i of a live buffer is P_i's members, in order.
            buffer, offsets = self.segments()
            if not np.array_equal(self._offsets, offsets):
                raise AssertionError("buffer offsets disagree with the "
                                     "partition sizes")
            if not np.array_equal(self._buffer, buffer):
                raise AssertionError("buffer segments disagree with the "
                                     "partitions' members")
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

    Tuple inserts/deletes and merges move live boundaries, so a
    snapshot's spans stop naming live partitions; its own slices stay as
    they were (inserts and deletes build new arrays, merges leave the
    buffer alone).  The batching layer never interleaves them with a
    window.
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
