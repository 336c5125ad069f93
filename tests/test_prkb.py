"""Unit and property tests for the PRKB index (QFilter/QScan/update)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import Testbed
from repro.core import PRKBIndex, SingleDimensionProcessor
from repro.crypto import ComparisonPredicate
from repro.edbms import AttributeSpec, PlainTable, Schema
from repro.workloads import uniform_table

from conftest import plain_lookup


def bed_with_values(values, seed=0):
    values = np.asarray(values, dtype=np.int64)
    lo, hi = int(values.min()), int(values.max())
    schema = Schema.of(AttributeSpec("X", lo - 10, hi + 10))
    table = PlainTable("t", schema, {"X": values})
    return Testbed(table, ["X"], seed=seed)


class TestSelectCorrectness:
    def test_single_predicate_all_operators(self, tiny_testbed):
        bed = tiny_testbed
        for op in ("<", "<=", ">", ">="):
            for constant in (0, 25, 50, 75, 101):
                trapdoor = bed.owner.comparison_trapdoor("X", op, constant)
                result = bed.prkb["X"].select(trapdoor)
                want = bed.owner.expected_result(
                    "t", ComparisonPredicate("X", op, constant))
                assert np.array_equal(np.sort(result.winners), want)

    def test_duplicates_heavy_data(self):
        bed = bed_with_values([5] * 10 + [7] * 10 + [9] * 10)
        for constant in (4, 5, 6, 7, 8, 9, 10):
            trapdoor = bed.owner.comparison_trapdoor("X", "<", constant)
            result = bed.prkb["X"].select(trapdoor)
            want = bed.owner.expected_result(
                "t", ComparisonPredicate("X", "<", constant))
            assert np.array_equal(np.sort(result.winners), want)

    def test_all_true_and_all_false_predicates(self, tiny_testbed):
        bed = tiny_testbed
        everything = bed.owner.comparison_trapdoor("X", "<", 10**9)
        nothing = bed.owner.comparison_trapdoor("X", ">", 10**9)
        assert bed.prkb["X"].select(everything).winners.size == 40
        assert bed.prkb["X"].select(nothing).winners.size == 0

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=30),
           st.lists(st.tuples(st.sampled_from(("<", "<=", ">", ">=")),
                              st.integers(min_value=-2, max_value=52)),
                    min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_select_matches_plaintext_property(self, values, queries):
        bed = bed_with_values(values)
        index = bed.prkb["X"]
        for op, constant in queries:
            trapdoor = bed.owner.comparison_trapdoor("X", op, constant)
            result = index.select(trapdoor)
            want = bed.owner.expected_result(
                "t", ComparisonPredicate("X", op, constant))
            assert np.array_equal(np.sort(result.winners), want)
            index.pop.check_invariants(plain_lookup(bed, "X"))


class TestKnowledgeGrowth:
    def test_distinct_queries_grow_chain(self, tiny_testbed):
        bed = tiny_testbed
        index = bed.prkb["X"]
        assert index.num_partitions == 1
        grew = 0
        for constant in (20, 40, 60, 80):
            before = index.num_partitions
            index.select(bed.owner.comparison_trapdoor("X", "<", constant))
            grew += index.num_partitions - before
        assert grew >= 3  # some thresholds might not straddle any value
        index.pop.check_invariants(plain_lookup(bed, "X"))

    def test_equivalent_query_does_not_grow(self, tiny_testbed):
        bed = tiny_testbed
        index = bed.prkb["X"]
        index.select(bed.owner.comparison_trapdoor("X", "<", 50))
        k = index.num_partitions
        result = index.select(bed.owner.comparison_trapdoor("X", "<", 50))
        assert index.num_partitions == k
        assert result.was_equivalent

    def test_mirror_operators_are_equivalent(self, tiny_testbed):
        """'X < c' and 'X >= c' induce the same partitions (Def. 4.3)."""
        bed = tiny_testbed
        index = bed.prkb["X"]
        index.select(bed.owner.comparison_trapdoor("X", "<", 50))
        k = index.num_partitions
        index.select(bed.owner.comparison_trapdoor("X", ">=", 50))
        assert index.num_partitions == k

    def test_separator_count_tracks_chain(self, tiny_testbed):
        bed = tiny_testbed
        index = bed.prkb["X"]
        for constant in (10, 30, 50, 70, 90):
            index.select(bed.owner.comparison_trapdoor("X", "<", constant))
        assert index.num_separators == index.num_partitions - 1


class TestQpfSavings:
    def test_warm_index_beats_cold(self):
        table = uniform_table("t", 2000, ["X"], domain=(1, 100_000), seed=5)
        bed = Testbed(table, ["X"], seed=5)
        cold = bed.run_sd("X", (40_000, 42_000))
        bed.warm_up("X", 60)
        warm = bed.run_sd("X", (50_000, 52_000))
        assert warm.qpf_uses < cold.qpf_uses / 5

    def test_prkb_beats_baseline(self):
        table = uniform_table("t", 2000, ["X"], domain=(1, 100_000), seed=6)
        bed = Testbed(table, ["X"], seed=6)
        bed.warm_up("X", 60)
        prkb = bed.run_sd("X", (30_000, 33_000))
        baseline = bed.run_baseline("X", (30_000, 33_000))
        # Baseline tests every tuple at least once (short-circuiting may
        # skip the second predicate for tuples failing the first).
        assert baseline.qpf_uses >= 2000
        assert prkb.qpf_uses < baseline.qpf_uses / 8

    def test_early_stop_saves_qpf(self):
        def run(early_stop):
            table = uniform_table("t", 1500, ["X"], domain=(1, 100_000),
                                  seed=9)
            bed = Testbed(table, ["X"], seed=9)
            bed.prkb["X"] = PRKBIndex(bed.table, bed.qpf, "X",
                                      early_stop=early_stop, seed=9)
            bed.warm_up("X", 40)
            before = bed.counter.qpf_uses
            for lo in range(10_000, 90_000, 5_000):
                bed.run_sd("X", (lo, lo + 1_000))
            return bed.counter.qpf_uses - before

        assert run(True) < run(False)


class TestPhaseBreakdown:
    def test_phases_sum_to_total(self, tiny_testbed):
        bed = tiny_testbed
        for constant in (20, 40, 60, 80):
            result = bed.prkb["X"].select(
                bed.owner.comparison_trapdoor("X", "<", constant))
            assert sum(result.phase_qpf.values()) == result.qpf_uses

    def test_qfilter_phase_is_logarithmic(self):
        from repro.workloads import uniform_table
        table = uniform_table("t", 3000, ["X"], domain=(1, 10**6),
                              seed=13)
        bed = Testbed(table, ["X"], seed=13)
        bed.warm_up("X", 120)
        k = bed.prkb["X"].num_partitions
        result = bed.prkb["X"].select(
            bed.owner.comparison_trapdoor("X", "<", 500_000),
            update=False)
        assert result.phase_qpf["qfilter"] <= int(np.ceil(np.log2(k))) + 2
        assert result.phase_qpf["update"] == 0  # comparisons update free

    def test_qscan_dominates_on_coarse_chain(self, tiny_testbed):
        bed = tiny_testbed
        result = bed.prkb["X"].select(
            bed.owner.comparison_trapdoor("X", "<", 50))
        assert result.phase_qpf["qscan"] >= result.phase_qpf["qfilter"]


class TestPartitionCap:
    def test_cap_stops_growth_but_not_answers(self):
        table = uniform_table("t", 500, ["X"], domain=(1, 10_000), seed=3)
        bed = Testbed(table, ["X"], max_partitions=5, seed=3)
        index = bed.prkb["X"]
        for constant in range(500, 9_500, 500):
            trapdoor = bed.owner.comparison_trapdoor("X", "<", constant)
            result = index.select(trapdoor)
            want = bed.owner.expected_result(
                "t", ComparisonPredicate("X", "<", constant))
            assert np.array_equal(np.sort(result.winners), want)
        assert index.num_partitions <= 5

    def test_invalid_cap_rejected(self, tiny_testbed):
        bed = tiny_testbed
        with pytest.raises(ValueError):
            PRKBIndex(bed.table, bed.qpf, "X", max_partitions=0)


class TestStorage:
    def test_storage_grows_with_knowledge(self, tiny_testbed):
        bed = tiny_testbed
        index = bed.prkb["X"]
        before = index.storage_bytes()
        for constant in (20, 40, 60, 80):
            index.select(bed.owner.comparison_trapdoor("X", "<", constant))
        assert index.storage_bytes() > before

    def test_storage_linear_in_tuples(self):
        small = Testbed(uniform_table("t", 100, ["X"], seed=1), ["X"])
        large = Testbed(uniform_table("t", 1000, ["X"], seed=1), ["X"])
        ratio = (large.prkb["X"].storage_bytes()
                 / small.prkb["X"].storage_bytes())
        assert 8 <= ratio <= 12


class TestDescribe:
    def test_cold_index_stats(self, tiny_testbed):
        stats = tiny_testbed.prkb["X"].describe()
        assert stats["partitions"] == 1
        assert stats["tuples"] == 40
        assert stats["separators"] == 0
        assert stats["expected_range_query_qpf"] == 40

    def test_warm_index_stats(self, tiny_testbed):
        bed = tiny_testbed
        for constant in (20, 40, 60, 80):
            bed.prkb["X"].select(
                bed.owner.comparison_trapdoor("X", "<", constant))
        stats = bed.prkb["X"].describe()
        assert stats["partitions"] > 1
        assert stats["separators"] == stats["partitions"] - 1
        assert stats["largest_partition"] >= stats["median_partition"]
        assert stats["between_edge_separators"] == 0
        assert stats["expected_range_query_qpf"] < 40

    def test_between_edges_counted(self):
        from repro.core import BetweenProcessor
        from repro.workloads import uniform_table
        table = uniform_table("t", 100, ["X"], domain=(1, 1000), seed=2)
        bed = Testbed(table, ["X"], seed=2)
        bed.prkb["X"].select(
            bed.owner.comparison_trapdoor("X", "<", 500))
        BetweenProcessor(bed.prkb["X"]).select(
            bed.owner.between_trapdoor("X", 200, 800))
        stats = bed.prkb["X"].describe()
        assert stats["between_edge_separators"] >= 1


class TestErrors:
    def test_wrong_attribute_trapdoor_rejected(self, small_testbed):
        bed = small_testbed
        trapdoor = bed.owner.comparison_trapdoor("Y", "<", 5)
        with pytest.raises(ValueError):
            bed.prkb["X"].select(trapdoor)

    def test_unknown_attribute_rejected(self, small_testbed):
        bed = small_testbed
        with pytest.raises(KeyError):
            PRKBIndex(bed.table, bed.qpf, "Z")


class TestInsertDelete:
    def test_insert_lands_in_correct_partition(self):
        bed = bed_with_values(list(range(0, 100, 2)), seed=4)
        index = bed.prkb["X"]
        bed.warm_up("X", 15, seed=4)
        lookup = {int(u): int(v) for u, v in
                  zip(bed.plain.uids, bed.plain.columns["X"])}
        # Insert rows whose values we pick across the domain.
        from repro.core import TableUpdater
        updater = TableUpdater(bed.table, bed.prkb)
        for value in (1, 33, 77, 99):
            receipt = updater.insert_plain(
                bed.owner.key, {"X": np.asarray([value], dtype=np.int64)})
            lookup[int(receipt.uids[0])] = value
        index.pop.check_invariants(lambda uid: lookup[uid])

    def test_insert_uses_logarithmic_qpf(self):
        table = uniform_table("t", 1000, ["X"], domain=(1, 10**6), seed=8)
        bed = Testbed(table, ["X"], seed=8)
        bed.warm_up("X", 100)
        k = bed.prkb["X"].num_partitions
        from repro.core import TableUpdater
        updater = TableUpdater(bed.table, bed.prkb)
        receipt = updater.insert_plain(
            bed.owner.key, {"X": np.asarray([123_456], dtype=np.int64)})
        assert receipt.qpf_uses <= int(np.ceil(np.log2(k))) + 1

    def test_delete_retires_separator(self):
        bed = bed_with_values([10, 20, 30], seed=2)
        index = bed.prkb["X"]
        index.select(bed.owner.comparison_trapdoor("X", "<", 15))
        index.select(bed.owner.comparison_trapdoor("X", "<", 25))
        assert index.num_partitions == 3
        # Delete the only tuple of the middle partition.
        uid_20 = int(bed.plain.uids[bed.plain.columns["X"] == 20][0])
        index.delete(uid_20)
        assert index.num_partitions == 2
        assert index.num_separators == 1

    def test_delete_to_empty_and_reinsert(self):
        bed = bed_with_values([10], seed=2)
        index = bed.prkb["X"]
        index.delete(int(bed.plain.uids[0]))
        assert index.num_partitions == 0
        # Reinsert a row: the chain must restart cleanly.
        from repro.core import TableUpdater
        updater = TableUpdater(bed.table, bed.prkb)
        bed.table.delete_rows(bed.plain.uids)
        receipt = updater.insert_plain(
            bed.owner.key, {"X": np.asarray([42], dtype=np.int64)})
        assert index.num_partitions == 1
        assert index.pop.num_tuples == 1
        assert int(receipt.uids[0]) in {int(u) for u in bed.table.uids}


class TestEquivalenceCache:
    """Resubmitting the *same trapdoor object* is answered from cached
    separator offsets with zero QPF and zero scan work.  (Fresh seals of
    the same plaintext predicate are indistinguishable to the SP by
    design, so those still pay the QFilter/QScan discovery cost.)"""

    def test_repeat_costs_zero_qpf(self, tiny_testbed):
        bed = tiny_testbed
        index = bed.prkb["X"]
        trapdoor = bed.owner.comparison_trapdoor("X", "<", 50)
        first = index.select(trapdoor)
        repeat = index.select(trapdoor)
        assert repeat.was_equivalent
        assert repeat.qpf_uses == 0
        assert np.array_equal(np.sort(repeat.winners),
                              np.sort(first.winners))

    def test_fresh_seal_still_pays_discovery(self, tiny_testbed):
        """Definition 4.3 is about observed partitions, not trapdoor
        bytes: a re-encrypted equivalent predicate cannot hit the cache."""
        bed = tiny_testbed
        index = bed.prkb["X"]
        index.select(bed.owner.comparison_trapdoor("X", "<", 50))
        fresh = index.select(bed.owner.comparison_trapdoor("X", "<", 50))
        assert fresh.was_equivalent  # discovered by scanning ...
        assert fresh.qpf_uses > 0    # ... not answered from the cache

    def test_cached_answer_tracks_later_splits(self, tiny_testbed):
        bed = tiny_testbed
        index = bed.prkb["X"]
        trapdoor = bed.owner.comparison_trapdoor("X", "<", 50)
        first = index.select(trapdoor)
        # Other predicates refine the chain around the cached separator.
        for constant in (25, 75, 40, 60):
            index.select(bed.owner.comparison_trapdoor("X", "<", constant))
        repeat = index.select(trapdoor)
        assert repeat.qpf_uses == 0
        assert np.array_equal(np.sort(repeat.winners),
                              np.sort(first.winners))

    def test_boundary_predicates_cached(self, tiny_testbed):
        bed = tiny_testbed
        index = bed.prkb["X"]
        index.select(bed.owner.comparison_trapdoor("X", "<", 50))
        nothing = bed.owner.comparison_trapdoor("X", "<", 1)
        first = index.select(nothing)  # discovers "none"; remembers it
        assert first.winners.size == 0
        none_again = index.select(nothing)
        assert none_again.qpf_uses == 0
        assert none_again.winners.size == 0
        everything = bed.owner.comparison_trapdoor("X", ">", 0)
        index.select(everything)
        all_again = index.select(everything)
        assert all_again.qpf_uses == 0
        assert all_again.winners.size == index.pop.num_tuples

    def test_many_random_repeats_stay_exact(self):
        rng = np.random.default_rng(13)
        bed = bed_with_values(rng.integers(1, 500, size=120).tolist(),
                              seed=13)
        index = bed.prkb["X"]
        operators = ("<", "<=", ">", ">=")
        trapdoors = [bed.owner.comparison_trapdoor(
            "X", operators[i % 4], int(c))
            for i, c in enumerate(rng.integers(1, 500, size=30))]
        firsts = [np.sort(index.select(t).winners).copy()
                  for t in trapdoors]
        for trapdoor, want in zip(trapdoors, firsts):
            repeat = index.select(trapdoor)
            assert repeat.qpf_uses == 0
            assert np.array_equal(np.sort(repeat.winners), want)

    def test_insert_invalidates_cache(self):
        bed = bed_with_values([10, 20, 30, 40], seed=6)
        index = bed.prkb["X"]
        index.select(bed.owner.comparison_trapdoor("X", "<", 25))
        from repro.core import TableUpdater
        updater = TableUpdater(bed.table, bed.prkb)
        receipt = updater.insert_plain(
            bed.owner.key, {"X": np.asarray([22], dtype=np.int64)})
        repeat = index.select(bed.owner.comparison_trapdoor("X", "<", 25))
        # The new row forces real work again, and must be in the answer.
        assert repeat.qpf_uses > 0
        assert int(receipt.uids[0]) in repeat.winners.tolist()

    def test_delete_of_cached_boundary_falls_back(self):
        bed = bed_with_values([10, 20, 30], seed=2)
        index = bed.prkb["X"]
        first = index.select(bed.owner.comparison_trapdoor("X", "<", 25))
        # Deleting tuples around the separator may retire it entirely.
        uid_20 = int(bed.plain.uids[bed.plain.columns["X"] == 20][0])
        index.delete(uid_20)
        repeat = index.select(bed.owner.comparison_trapdoor("X", "<", 25))
        assert np.array_equal(
            np.sort(repeat.winners),
            np.sort(first.winners[first.winners != uid_20]))


class TestKeyedSampling:
    """A statement's draws are a function of (seed, its ordinal, step):
    the order in which concurrent statements advance cannot move them."""

    @staticmethod
    def _bed():
        table = uniform_table("t", 400, ["X"], domain=(1, 10_000), seed=4)
        bed = Testbed(table, ["X"], seed=4)
        bed.warm_up("X", 12, seed=4)
        return bed

    @staticmethod
    def _start(bed, constant):
        """A primed ``select_steps(update=False)`` statement: the first
        request is out (so the ordinal is taken); ``advance`` answers it
        and returns False once the statement is done."""
        trapdoor = bed.owner.comparison_trapdoor("X", "<", constant)
        steps = bed.prkb["X"].select_steps(trapdoor, update=False)
        state = {"request": next(steps), "sampled": [], "result": None}

        def advance():
            request = state["request"]
            state["sampled"].append(request.uids.tolist())
            labels = bed.qpf.batch(request.trapdoor, request.table,
                                   request.uids)
            try:
                state["request"] = steps.send(labels)
            except StopIteration as stop:
                state["result"] = stop.value[0]
                return False
            return True

        return state, advance

    def _run(self, order):
        bed = self._bed()
        a, advance_a = self._start(bed, 3_100)
        b, advance_b = self._start(bed, 6_900)
        if order == "a-first":
            while advance_a():
                pass
            while advance_b():
                pass
        elif order == "b-first":
            while advance_b():
                pass
            while advance_a():
                pass
        else:
            live = [advance_a, advance_b]
            while live:
                live = [step for step in live if step()]
        return [(s["sampled"], s["result"].qpf_uses,
                 s["result"].winners.tolist()) for s in (a, b)]

    def test_interleaving_does_not_move_draws(self):
        runs = [self._run(order)
                for order in ("a-first", "b-first", "alternating")]
        assert len(runs[0][0][0]) > 2  # binary-search probes were drawn
        assert runs[0] == runs[1] == runs[2]

    def test_between_beside_a_select(self, monkeypatch):
        from repro.core import BetweenProcessor
        from repro.core.partitions import Partition

        drawn = []
        sample = Partition.sample

        def recording(partition, word):
            drawn.append(sample(partition, word))
            return drawn[-1]

        monkeypatch.setattr(Partition, "sample", recording)

        def between(bed):
            drawn.clear()
            trapdoor = bed.owner.between_trapdoor("X", 2_000, 2_600)
            with bed.counter.measure() as spent:
                winners = BetweenProcessor(bed.prkb["X"]).select(
                    trapdoor, update=False)
            return list(drawn), spent.qpf_uses, winners.tolist()

        def run(between_inside):
            bed = self._bed()
            select, advance = self._start(bed, 5_000)
            if between_inside:
                outcome = between(bed)
            while advance():
                pass
            if not between_inside:
                outcome = between(bed)
            return (select["sampled"], select["result"].qpf_uses, outcome)

        inside = run(True)
        assert inside[2][0]  # the BETWEEN drew samples
        assert inside == run(False)
