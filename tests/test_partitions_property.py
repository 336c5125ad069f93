"""Property tests for the POP chain's vectorised uid->ordinal machinery.

Two invariants introduced by the vectorised grid pipeline are pinned
with hypothesis:

* the dense ``uid -> partition ordinal`` lookup
  (:meth:`PartialOrderPartitions.ordinals_of_uids`) stays consistent
  with actual :class:`Partition` membership across arbitrary interleaved
  split / merge / insert / delete sequences — the incremental slot
  bookkeeping must never drift from the chain, and the slot→ordinal
  table it patches in place always equals a from-scratch rebuild
  (through emptied-partition drops, slot compaction and pickling); and
* :class:`ChainView` snapshots are *set-stable*: while a shard pool is
  reading a window's payloads on worker threads, concurrent splits of
  the live chain never change which uids any snapshot slice contains.
"""

import pickle
import threading

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bench import Testbed
from repro.core.partitions import PartialOrderPartitions
from repro.edbms.costs import CostCounter
from repro.edbms.qpf import (
    CrossingLatency,
    QPFRequest,
    QPFShardPool,
)
from repro.workloads import uniform_table

from conftest import plain_lookup


def _assert_ordinals_consistent(pop: PartialOrderPartitions) -> None:
    """The vectorised lookup equals membership-derived ordinals."""
    uids, want = [], []
    for position, partition in enumerate(pop):
        members = partition.uids
        uids.append(members)
        want.append(np.full(members.size, position, dtype=np.int64))
    all_uids = np.concatenate(uids)
    got = pop.ordinals_of_uids(all_uids)
    assert np.array_equal(got, np.concatenate(want))
    pop.check_invariants()


def _rebuilt_ordinals(pop: PartialOrderPartitions) -> np.ndarray:
    """The slot→ordinal table from scratch: the reference loop that
    used to run after every structural change."""
    table = np.full(pop._next_slot, -1, dtype=np.int64)
    for position, partition in enumerate(pop):
        table[partition.slot] = position
    return table


def _apply(pop: PartialOrderPartitions, op: tuple, next_uid: int,
           seen: dict) -> PartialOrderPartitions:
    """Run one encoded structural op; returns the (possibly reloaded)
    chain.  ``seen`` tallies the rare events the directed test wants."""
    code, a, b = op
    k = pop.num_partitions
    slots_before = pop._next_slot
    if code == 0:  # split a partition with >= 2 members
        splittable = [i for i, size in enumerate(pop.sizes()) if size >= 2]
        if splittable:
            index = splittable[a % len(splittable)]
            members = pop[index].uids.copy()
            cut = 1 + b % (members.size - 1)
            pop.split(index, members[:cut], members[cut:])
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
    elif code == 4:  # empty one whole partition: its chain slot drops
        if k >= 2:
            for uid in pop[a % k].uids.copy():
                if pop.delete(int(uid)) is not None:
                    seen["drops"] += 1
    else:  # pickle round trip (checkpoints)
        pop = pickle.loads(pickle.dumps(pop))
        seen["pickles"] += 1
    pop._ensure_ordinals()
    if pop._next_slot < slots_before:
        seen["compactions"] += 1
    return pop


def _drive(ops, size: int = 16) -> dict:
    pop = PartialOrderPartitions(np.arange(size, dtype=np.uint64))
    pop._ensure_ordinals()  # maintained incrementally from here on
    seen = {"drops": 0, "pickles": 0, "compactions": 0}
    for next_uid, op in enumerate(ops, start=size):
        pop = _apply(pop, op, next_uid, seen)
        assert np.array_equal(pop._slot_ordinals, _rebuilt_ordinals(pop))
        _assert_ordinals_consistent(pop)
    # Untracked uids must be rejected, not silently mis-mapped.
    try:
        pop.ordinals_of_uids(
            np.asarray([size + len(ops) + 7], dtype=np.uint64))
    except KeyError:
        pass
    else:
        raise AssertionError("untracked uid produced an ordinal")
    return seen


_OPS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 1_000_000),
              st.integers(0, 1_000_000)),
    max_size=40,
)


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_ordinal_array_tracks_membership(ops):
    _drive(ops)


@given(ops=st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 1_000_000),
              st.integers(0, 1_000_000)), max_size=80))
@settings(max_examples=60, deadline=None)
def test_incremental_ordinals_equal_rebuild(ops):
    _drive(ops, size=32)


def test_incremental_ordinals_through_drop_compaction_and_pickle():
    # Split/merge churn on a short chain burns two slots a pair, so the
    # table crosses the compaction threshold (64 slots) mid-stream.
    ops = ([(0, 0, 3), (0, 1, 1), (4, 1, 0), (5, 0, 0)]
           + [(0, 0, 7), (1, 0, 0)] * 40
           + [(0, 0, 5), (5, 0, 0), (0, 1, 2), (4, 0, 0), (2, 0, 0)])
    seen = _drive(ops)
    assert seen["drops"] and seen["pickles"] and seen["compactions"]


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
