"""Unit and property tests for the POP data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PartialOrderPartitions
from repro.core.partitions import Partition


class TestPartition:
    def test_len_and_uids(self):
        partition = Partition([3, 1, 2])
        assert len(partition) == 3
        assert sorted(partition.uids.tolist()) == [1, 2, 3]

    def test_uids_cache_invalidation(self):
        partition = Partition([1])
        first = partition.uids
        partition.add(2)
        assert sorted(partition.uids.tolist()) == [1, 2]
        assert len(first) == 1  # old snapshot untouched

    def test_sample_from_empty_rejected(self):
        with pytest.raises(ValueError):
            Partition([]).sample(0)

    def test_sample_is_member(self):
        partition = Partition([5, 6, 7])
        assert [partition.sample(word) for word in (0, 1, 2, 3, 2**64 - 1)] \
            == [5, 6, 7, 5, 5]

    def test_remove(self):
        partition = Partition([1, 2])
        partition.remove(1)
        assert partition.uids.tolist() == [2]
        with pytest.raises(ValueError):
            partition.remove(99)


class TestPop:
    def test_initial_chain(self):
        pop = PartialOrderPartitions(np.arange(10, dtype=np.uint64))
        assert pop.num_partitions == 1
        assert pop.num_tuples == 10
        pop.check_invariants()

    def test_split_structure(self):
        pop = PartialOrderPartitions(np.arange(10, dtype=np.uint64))
        first, second = pop.split(0, np.arange(4, dtype=np.uint64),
                                  np.arange(4, 10, dtype=np.uint64))
        assert pop.num_partitions == 2
        assert pop.index_of(first) == 0
        assert pop.index_of(second) == 1
        assert pop.index_of_uid(2) == 0
        assert pop.index_of_uid(7) == 1
        pop.check_invariants()

    def test_split_rejects_bad_halves(self):
        pop = PartialOrderPartitions(np.arange(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            pop.split(0, np.asarray([], dtype=np.uint64),
                      np.arange(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            pop.split(0, np.asarray([0], dtype=np.uint64),
                      np.asarray([1], dtype=np.uint64))

    def test_keys_of_uids(self):
        pop = PartialOrderPartitions(np.arange(6, dtype=np.uint64))
        first, second = pop.split(0, np.asarray([0, 1], dtype=np.uint64),
                                  np.asarray([2, 3, 4, 5], dtype=np.uint64))
        got = pop.keys_of_uids(np.asarray([0, 5, 1, 3], dtype=np.uint64))
        assert got.dtype == np.int32
        assert got.tolist() == [first.key, second.key] * 2
        assert first.key < second.key
        with pytest.raises(KeyError):
            pop.keys_of_uids(np.asarray([6], dtype=np.uint64))

    def test_insert(self):
        pop = PartialOrderPartitions(np.arange(4, dtype=np.uint64))
        pop.insert(100, 0)
        assert pop.num_tuples == 5
        assert pop.index_of_uid(100) == 0
        with pytest.raises(ValueError):
            pop.insert(100, 0)

    def test_delete_keeps_partition(self):
        pop = PartialOrderPartitions(np.arange(4, dtype=np.uint64))
        assert pop.delete(2) is None
        assert pop.num_tuples == 3
        pop.check_invariants()

    def test_delete_drops_empty_partition(self):
        pop = PartialOrderPartitions(np.arange(3, dtype=np.uint64))
        pop.split(0, np.asarray([0], dtype=np.uint64),
                  np.asarray([1, 2], dtype=np.uint64))
        assert pop.delete(0) == 0
        assert pop.num_partitions == 1
        pop.check_invariants()

    def test_merge_range(self):
        pop = PartialOrderPartitions(np.arange(6, dtype=np.uint64))
        pop.split(0, np.asarray([0, 1], dtype=np.uint64),
                  np.asarray([2, 3, 4, 5], dtype=np.uint64))
        pop.split(1, np.asarray([2, 3], dtype=np.uint64),
                  np.asarray([4, 5], dtype=np.uint64))
        assert pop.num_partitions == 3
        merged = pop.merge_range(0, 1)
        assert pop.num_partitions == 2
        assert pop.index_of(merged) == 0
        assert sorted(merged.uids.tolist()) == [0, 1, 2, 3]
        pop.check_invariants()

    def test_merge_range_bounds_checked(self):
        pop = PartialOrderPartitions(np.arange(3, dtype=np.uint64))
        with pytest.raises(IndexError):
            pop.merge_range(0, 1)

    def test_invariant_checker_detects_wrong_order(self):
        pop = PartialOrderPartitions(np.arange(4, dtype=np.uint64))
        # Split mixing values across partitions: 0,2 | 1,3 is not monotone.
        pop.split(0, np.asarray([0, 2], dtype=np.uint64),
                  np.asarray([1, 3], dtype=np.uint64))
        with pytest.raises(AssertionError):
            pop.check_invariants(lambda uid: uid)

    def test_invariant_checker_accepts_either_direction(self):
        for order in ([0, 1], [1, 0]):
            pop = PartialOrderPartitions(np.arange(4, dtype=np.uint64))
            halves = [np.asarray([0, 1], dtype=np.uint64),
                      np.asarray([2, 3], dtype=np.uint64)]
            pop.split(0, halves[order[0]], halves[order[1]])
            pop.check_invariants(lambda uid: uid)


class TestPopProperties:
    @given(st.integers(min_value=2, max_value=60),
           st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
                    max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_random_value_splits_keep_invariants(self, n, cut_seeds):
        """Splitting along any sequence of value thresholds keeps a valid
        monotone chain (the structural core of updatePRKB)."""
        rng = np.random.default_rng(0)
        values = {i: int(v) for i, v in
                  enumerate(rng.integers(0, 1000, size=n))}
        pop = PartialOrderPartitions(np.arange(n, dtype=np.uint64))
        for seed in cut_seeds:
            threshold = seed % 1000
            # Find the partition this threshold would straddle (ascending
            # orientation) and split it like updatePRKB would.
            for index in range(pop.num_partitions):
                members = pop[index].uids
                lower = [int(u) for u in members if values[int(u)]
                         < threshold]
                upper = [int(u) for u in members if values[int(u)]
                         >= threshold]
                if lower and upper:
                    pop.split(index, np.asarray(lower, dtype=np.uint64),
                              np.asarray(upper, dtype=np.uint64))
                    break
            pop.check_invariants(lambda uid: values[uid])
        assert pop.num_tuples == n


class TestOffsetConsistency:
    """The prefix-sum buffer must always agree with the chain itself."""

    @staticmethod
    def _naive_range(pop, first, last):
        chunks = [pop[i].uids for i in range(first, last + 1)]
        return np.concatenate(chunks) if chunks else np.zeros(
            0, dtype=np.uint64)

    def _check_all_windows(self, pop):
        k = pop.num_partitions
        assert pop.offsets[0] == 0 and pop.offsets[-1] == pop.num_tuples
        for first in range(k):
            for last in range(first, k):
                got = np.sort(pop.range_uids(first, last))
                want = np.sort(self._naive_range(pop, first, last))
                assert np.array_equal(got, want), (first, last)
        for count in range(k + 1):
            cut = int(pop.offsets[count])
            # uid order by construction: equal to the sorted naive set.
            assert np.array_equal(
                pop.uids_in_order(0, cut),
                np.sort(self._naive_range(pop, 0, count - 1))
                if count else np.zeros(0, dtype=np.uint64))
            assert np.array_equal(
                pop.uids_in_order(cut, pop.num_tuples),
                np.sort(self._naive_range(pop, count, k - 1))
                if count < k else np.zeros(0, dtype=np.uint64))

    @given(st.integers(min_value=2, max_value=40),
           st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=10**6),
                              st.integers(min_value=0, max_value=10**6)),
                    min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_windows_survive_random_splits_and_merges(self, n, moves):
        """Any interleaving of splits and merges keeps every prefix,
        suffix and contiguous window readable straight off the buffer."""
        pop = PartialOrderPartitions(np.arange(n, dtype=np.uint64))
        pop.offsets  # materialise the buffer up front
        for is_split, seed_a, seed_b in moves:
            k = pop.num_partitions
            if is_split or k == 1:
                index = seed_a % k
                members = pop[index].uids
                if members.size < 2:
                    continue
                cut = 1 + seed_b % (members.size - 1)
                pop.split(index, members[:cut].copy(),
                          members[cut:].copy())
            else:
                first = seed_a % k
                last = first + seed_b % (k - first)
                if first < last:
                    pop.merge_range(first, last)
            self._check_all_windows(pop)

    def test_views_are_readonly(self):
        pop = PartialOrderPartitions(np.arange(6, dtype=np.uint64))
        window = pop.range_uids(0, 0)
        with pytest.raises(ValueError):
            window[0] = 99

    def test_frozen_view_is_stable_under_later_splits(self):
        pop = PartialOrderPartitions(np.arange(8, dtype=np.uint64))
        view = pop.freeze()
        before = np.sort(view.prefix_uids(1)).copy()
        members = pop[0].uids
        pop.split(0, members[:3].copy(), members[3:].copy())
        # The snapshot still spans the same uid set (splits only reorder
        # within the segment they refine).
        assert np.array_equal(np.sort(view.prefix_uids(1)), before)
        assert view.num_partitions == 1
        assert pop.num_partitions == 2

    def test_insert_and_delete_rebuild_the_buffer(self):
        pop = PartialOrderPartitions(np.arange(5, dtype=np.uint64))
        pop.offsets
        pop.insert(50, 0)
        assert sorted(pop.range_uids(0, 0).tolist()) == [0, 1, 2, 3, 4, 50]
        pop.delete(50)
        assert sorted(pop.range_uids(0, 0).tolist()) == [0, 1, 2, 3, 4]


class TestUidsInOrder:
    """``uids_in_order``: chain-buffer spans plus scattered extras, read
    out strictly increasing without a sort."""

    @staticmethod
    def _chain():
        # Uids deliberately out of order inside and across partitions.
        pop = PartialOrderPartitions(
            np.asarray([9, 3, 7, 1, 5, 0, 8, 2, 6, 4], dtype=np.uint64))
        pop.split(0, np.asarray([9, 3, 7], dtype=np.uint64),
                  np.asarray([1, 5, 0, 8, 2, 6, 4], dtype=np.uint64))
        pop.split(1, np.asarray([1, 5, 0], dtype=np.uint64),
                  np.asarray([8, 2, 6, 4], dtype=np.uint64))
        return pop

    def test_span_and_extra_come_out_strictly_increasing(self):
        pop = self._chain()
        offsets = pop.offsets
        got = pop.uids_in_order(int(offsets[1]), int(offsets[3]),
                                [np.asarray([7, 3], dtype=np.uint64)])
        assert got.dtype == np.uint64
        assert got.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert pop.uids_in_order(0, 0).size == 0
        assert pop.uids_in_order(int(offsets[2]), int(offsets[1])).size == 0

    def test_deleted_and_grown_uids(self):
        pop = self._chain()
        # Grow ``uid -> key`` well past twice its size, then delete: the
        # dead uid's -1 key must never match a run.
        pop.insert(45, 2)
        pop.delete(2)
        pop.delete(9)
        got = pop.uids_in_order(0, pop.num_tuples)
        assert got.tolist() == [0, 1, 3, 4, 5, 6, 7, 8, 45]
        pop.check_invariants()

    def test_frozen_span_answers_against_the_refined_live_chain(self):
        pop = self._chain()
        view = pop.freeze()
        start, stop = view.span(1, 2)
        want = np.sort(view.range_uids(1, 2))
        # Siblings refine the live chain inside the snapshot's run.
        pop.split(2, np.asarray([8, 2], dtype=np.uint64),
                  np.asarray([6, 4], dtype=np.uint64))
        pop.split(1, np.asarray([1], dtype=np.uint64),
                  np.asarray([5, 0], dtype=np.uint64))
        assert np.array_equal(pop.uids_in_order(start, stop), want)
