"""Property tests for the POP chain's order keys and snapshots.

Two invariants are pinned with hypothesis:

* the order keys stay consistent with the chain across arbitrary
  interleaved split / merge / insert / delete / pickle / ``from_segments``
  sequences, checked after every step against a linear scan: keys
  strictly increase along the chain, every tracked uid holds its
  partition's key and every other uid ``-1``, :meth:`index_of` and
  :meth:`partition_of` find what the scan finds, and
  :meth:`uids_in_order` over random boundary spans equals the
  ``np.unique`` oracle — including through the even re-keying a split
  forces once it finds no gap left; and
* :class:`ChainView` snapshots are *set-stable*: while a shard pool is
  reading a window's payloads on worker threads, concurrent splits of
  the live chain never change which uids any snapshot slice contains;
  and inserts, deletes and merges, which patch the chain buffer into
  new arrays, leave a pinned snapshot's slices exactly as they were.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import Testbed
from repro.core.partitions import KEY_SPACE, PartialOrderPartitions
from repro.edbms.costs import CostCounter
from repro.edbms.qpf import (
    CrossingLatency,
    QPFRequest,
    QPFShardPool,
)
from repro.workloads import uniform_table

from conftest import plain_lookup


def _assert_keys_consistent(pop: PartialOrderPartitions,
                            words: tuple[int, ...] = (0, 1, 2)) -> None:
    """The keys against a linear scan of the chain; ``words`` pick the
    read-out spans and extras to check."""
    keys = [partition.key for partition in pop]
    assert all(0 <= key < KEY_SPACE for key in keys)
    assert all(a < b for a, b in zip(keys, keys[1:])), keys
    key_of_uid = pop._key_of_uid
    want = np.full(key_of_uid.size, -1, dtype=np.int32)
    for position, partition in enumerate(pop):
        want[partition.uids] = partition.key
        assert pop.index_of(partition) == position
        for uid in partition.uids.tolist():
            assert pop.partition_of(uid) is partition
            assert pop.index_of_uid(uid) == position
    assert np.array_equal(key_of_uid, want)
    with pytest.raises(KeyError):
        pop.partition_of(key_of_uid.size + 3)
    _assert_read_outs(pop, words)
    pop.check_invariants()


def _assert_read_outs(pop: PartialOrderPartitions,
                      words: tuple[int, ...]) -> None:
    """``uids_in_order`` over prefix, suffix, middle and empty spans, with
    and without extras, equals the ``np.unique`` oracle."""
    k = pop.num_partitions
    offsets = pop.offsets
    members = [partition.uids for partition in pop]
    tracked = np.concatenate(members)
    a, b, c = (word % (k + 1) for word in words)
    lo, hi = min(a, b), max(a, b)
    spans = {(0, hi), (lo, k), (lo, hi), (hi, lo), (a, a), (0, k)}
    extra = tracked[np.arange(c, tracked.size, 3)]
    for first, last in spans:
        inside = members[first:last] if first < last else []
        for extras in ((), (extra,), (extra[:1], extra[1:])):
            want = np.unique(np.concatenate(
                [np.zeros(0, dtype=np.uint64), *inside, *extras]))
            got = pop.uids_in_order(int(offsets[first]),
                                    int(offsets[last]), extras)
            assert got.dtype == np.uint64
            assert np.array_equal(got, want), (first, last, len(extras))


def _apply(pop: PartialOrderPartitions, op: tuple, next_uid: int,
           seen: dict) -> PartialOrderPartitions:
    """Run one encoded structural op; returns the (possibly reloaded)
    chain.  ``seen`` tallies the rare events the directed test wants."""
    code, a, b = op
    k = pop.num_partitions
    keys_before = {id(p): p.key for p in pop}
    if code == 0:  # split a partition with >= 2 members
        splittable = [i for i, size in enumerate(pop.sizes()) if size >= 2]
        if splittable:
            index = splittable[a % len(splittable)]
            old = pop[index]
            members = old.uids.copy()
            cut = 1 + b % (members.size - 1)
            pop.split(index, members[:cut], members[cut:])
            with pytest.raises(KeyError):
                pop.index_of(old)  # the split partition left the chain
    elif code == 1:  # merge an adjacent run
        if k >= 2:
            first = a % (k - 1)
            pop.merge_range(first, min(k - 1, first + 1 + b % 3))
    elif code == 2:  # insert a brand-new uid
        pop.insert(next_uid, a % k)
    elif code == 3:  # delete a tracked uid (keep the chain non-empty)
        if pop.num_tuples > 1:
            tracked = np.sort(np.concatenate([p.uids for p in pop]))
            if pop.delete(int(tracked[a % tracked.size])) is not None:
                seen["drops"] += 1
    elif code == 4:  # empty one whole partition: it drops off the chain
        if k >= 2:
            for uid in pop[a % k].uids.copy():
                if pop.delete(int(uid)) is not None:
                    seen["drops"] += 1
    elif code == 5:  # pickle round trip (checkpoints)
        pop = pickle.loads(pickle.dumps(pop))
        seen["pickles"] += 1
    else:  # serialized (members, offsets) round trip: keys re-spaced
        pop = PartialOrderPartitions.from_segments(
            pop.range_uids(0, k - 1).copy(), pop.offsets.copy())
        seen["restores"] += 1
        return pop
    if any(keys_before.get(id(p), p.key) != p.key for p in pop):
        seen["rekeys"] += 1
    return pop


def _drive(ops, size: int = 16) -> dict:
    pop = PartialOrderPartitions(np.arange(size, dtype=np.uint64))
    seen = {"drops": 0, "pickles": 0, "restores": 0, "rekeys": 0}
    for next_uid, op in enumerate(ops, start=size):
        pop = _apply(pop, op, next_uid, seen)
        _assert_keys_consistent(pop, op)
    return seen


_OPS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 1_000_000),
              st.integers(0, 1_000_000)),
    max_size=40,
)


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_keys_track_membership(ops):
    _drive(ops)


@given(ops=st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 1_000_000),
              st.integers(0, 1_000_000)), max_size=80))
@settings(max_examples=60, deadline=None)
def test_keys_survive_random_histories(ops):
    _drive(ops, size=32)


@given(ops=st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 1_000_000),
              st.integers(0, 1_000_000)), max_size=40))
@settings(max_examples=60, deadline=None)
def test_buffer_patches_keep_pinned_views(ops):
    # Code 4 files a batch of new uids with one ``insert_many``; the
    # others are ``_apply``'s split / merge / insert / delete.  Before
    # every step a view is pinned; afterwards its slices hold the same
    # uids (the same array, in order, unless the step was a split), and
    # the live buffer still equals the partitions' members in order
    # (``check_invariants``).
    pop = PartialOrderPartitions(np.arange(24, dtype=np.uint64))
    seen = {"drops": 0, "pickles": 0, "restores": 0, "rekeys": 0}
    next_uid = 24
    for op in ops:
        view = pop.freeze()
        pinned = view.range_uids(0, len(view) - 1).copy()
        segments = [np.sort(view.range_uids(i, i)) for i in range(len(view))]
        if op[0] == 4:
            count = 1 + op[2] % 5
            pop.insert_many(range(next_uid, next_uid + count),
                            [(op[1] + 7 * j) % pop.num_partitions
                             for j in range(count)])
            next_uid += count
        else:
            pop = _apply(pop, op, next_uid, seen)
            next_uid += 1
        for i, members in enumerate(segments):
            assert np.array_equal(np.sort(view.range_uids(i, i)), members)
        if op[0] != 0:
            assert np.array_equal(view.range_uids(0, len(view) - 1), pinned)
        assert pop._buffer is not None
        pop.check_invariants()


def _hot_spot(pop: PartialOrderPartitions, splits: int, seen: dict) -> None:
    """Split P1 ``splits`` times, shedding its last member each time:
    every split halves the gap between P1's key and the next one."""
    for __ in range(splits):
        members = pop[0].uids.copy()
        keys_before = [p.key for p in pop]
        pop.split(0, members[:-1], members[-1:])
        if [p.key for p in pop][2:] != keys_before[1:]:
            seen["rekeys"] += 1
        _assert_keys_consistent(pop, (1, members.size, 7))


def test_hot_spot_splits_force_a_rekey():
    # The gap closes after ~30 splits, so the chain must be re-keyed;
    # later ops run on the re-spaced keys, and the hot spot runs again
    # after a pickle, a drop and a restore.
    seen = {"drops": 0, "pickles": 0, "restores": 0, "rekeys": 0}
    pop = PartialOrderPartitions(np.arange(128, dtype=np.uint64))
    pop = _apply(pop, (0, 0, 100), 128, seen)
    _hot_spot(pop, 45, seen)
    assert seen["rekeys"] == 1
    for next_uid, op in enumerate([(5, 0, 0), (1, 3, 1), (4, 2, 0),
                                   (2, 1, 0), (6, 0, 0), (3, 7, 0)],
                                  start=129):
        pop = _apply(pop, op, next_uid, seen)
        _assert_keys_consistent(pop, op)
    _hot_spot(pop, 45, seen)
    assert seen["rekeys"] >= 2
    assert seen["drops"] and seen["pickles"] and seen["restores"]


def test_untracked_uids_have_no_key():
    pop = PartialOrderPartitions(np.arange(8, dtype=np.uint64))
    pop.delete(3)
    for probe in (3, 8, 10**6):
        with pytest.raises(KeyError):
            pop.keys_of_uids(np.asarray([0, probe], dtype=np.uint64))


@given(plan=st.lists(st.tuples(st.integers(0, 1_000_000),
                               st.integers(0, 1_000_000)),
                     min_size=1, max_size=8),
       threshold=st.integers(5_000, 95_000))
@settings(max_examples=10, deadline=None)
def test_chain_view_set_stable_under_concurrent_pool_reads(plan, threshold):
    table = uniform_table("t", 240, ["X"], domain=(1, 100_000), seed=41)
    bed = Testbed(table, ["X"], seed=41)
    bed.warm_up("X", 6, seed=42)
    pop = bed.prkb["X"].pop
    view = pop.freeze()

    slices = [view.range_uids(i, i) for i in range(view.num_partitions)]
    slices.append(view.prefix_uids(view.num_partitions))
    fingerprints = [frozenset(int(u) for u in s) for s in slices]

    # Payload copies model the batching layer's materialised payloads
    # (np.unique); the enclave never reads the live buffer directly.
    trapdoor = bed.owner.comparison_trapdoor("X", "<", threshold)
    requests = [QPFRequest(trapdoor, bed.table, s.copy()) for s in slices]
    pool = QPFShardPool(bed.owner.key, CostCounter(), num_workers=3,
                        min_shard_tuples=2,
                        latency=CrossingLatency(per_crossing=2e-3))
    labels_box: dict[str, list] = {}

    def drain():
        labels_box["labels"] = pool.evaluate_many(requests)

    reader = threading.Thread(target=drain)
    try:
        reader.start()
        # Concurrently split the live chain (structural splits only; the
        # snapshot guarantee is purely set-theoretic).
        for a, b in plan:
            splittable = [i for i, size in enumerate(pop.sizes())
                          if size >= 2]
            if not splittable:
                break
            index = splittable[a % len(splittable)]
            members = pop[index].uids.copy()
            cut = 1 + b % (members.size - 1)
            pop.split(index, members[:cut], members[cut:])
        reader.join()
    finally:
        pool.close()

    # 1. Every snapshot slice still holds exactly its original uid set.
    for view_slice, want in zip(slices, fingerprints):
        assert frozenset(int(u) for u in view_slice) == want
    # 2. The pooled labels match the plaintext oracle for each payload.
    value_of = plain_lookup(bed, "X")
    for request, labels in zip(requests, labels_box["labels"]):
        want = np.asarray([value_of(int(u)) < threshold
                           for u in request.uids])
        assert np.array_equal(labels, want)
