"""Unit and randomized tests for multi-dimensional range processing."""

import numpy as np
import pytest

from repro.bench import Testbed
from repro.core import (MultiDimensionProcessor, PRKBIndex,
                        SingleDimensionProcessor)
from repro.edbms import CostCounter
from repro.edbms.qpf import drive
from repro.edbms.sdb_backend import MPCQueryProcessingFunction, share_table
from repro.workloads import uniform_table

from conftest import plain_lookup


def make_bed(n=300, attrs=("X", "Y"), domain=(1, 1000), seed=0,
             max_partitions=None):
    table = uniform_table("t", n, list(attrs), domain=domain, seed=seed)
    return Testbed(table, list(attrs), seed=seed,
                   max_partitions=max_partitions)


def run_query(bed, bounds, strategy="md", update=True):
    query = [bed.dimension_range(a, b) for a, b in bounds.items()]
    processor = MultiDimensionProcessor(
        {a: bed.prkb[a] for a in bounds},
        update_policy="complete-partition" if update else "none")
    if strategy == "md":
        return np.sort(processor.select(query, update=update))
    return np.sort(processor.select_naive(query, update=update))


class TestMdCorrectness:
    def test_cold_2d(self):
        bed = make_bed()
        bounds = {"X": (100, 500), "Y": (200, 800)}
        got = run_query(bed, bounds)
        assert np.array_equal(got, bed.owner.expected_range_result(
            "t", bounds))

    def test_warm_2d_md_equals_sdplus_equals_truth(self):
        bed = make_bed(seed=2)
        for attr in ("X", "Y"):
            bed.warm_up(attr, 15, seed=3)
        for qseed in range(6):
            rng = np.random.default_rng(qseed)
            bounds = {}
            for attr in ("X", "Y"):
                lo = int(rng.integers(0, 900))
                bounds[attr] = (lo, lo + int(rng.integers(2, 100)))
            want = bed.owner.expected_range_result("t", bounds)
            assert np.array_equal(run_query(bed, bounds, "md"), want)
            assert np.array_equal(run_query(bed, bounds, "sd+"), want)
            for attr in ("X", "Y"):
                bed.prkb[attr].pop.check_invariants(plain_lookup(bed, attr))

    def test_3d(self):
        bed = make_bed(n=400, attrs=("A", "B", "C"), seed=5)
        for attr in ("A", "B", "C"):
            bed.warm_up(attr, 10, seed=6)
        bounds = {"A": (100, 700), "B": (50, 500), "C": (300, 999)}
        want = bed.owner.expected_range_result("t", bounds)
        assert np.array_equal(run_query(bed, bounds, "md"), want)

    def test_empty_result(self):
        bed = make_bed(seed=7)
        bed.warm_up("X", 10, seed=7)
        bounds = {"X": (500, 501), "Y": (1, 1000)}
        got = run_query(bed, bounds)
        assert np.array_equal(got, bed.owner.expected_range_result(
            "t", bounds))

    def test_full_domain_query(self):
        bed = make_bed(seed=8)
        bounds = {"X": (0, 1001), "Y": (0, 1001)}
        got = run_query(bed, bounds)
        assert got.size == 300

    def test_randomized_sweep(self):
        bed = make_bed(n=250, seed=9)
        rng = np.random.default_rng(9)
        for __ in range(20):
            bounds = {}
            for attr in ("X", "Y"):
                lo = int(rng.integers(0, 950))
                bounds[attr] = (lo, lo + int(rng.integers(2, 400)))
            want = bed.owner.expected_range_result("t", bounds)
            strategy = "md" if rng.integers(2) else "sd+"
            assert np.array_equal(run_query(bed, bounds, strategy), want)
        for attr in ("X", "Y"):
            bed.prkb[attr].pop.check_invariants(plain_lookup(bed, attr))


class TestMdCosts:
    def test_md_beats_sdplus_on_warm_high_dim(self):
        attrs = ("A", "B", "C", "D")
        bed = make_bed(n=1500, attrs=attrs, domain=(1, 100_000), seed=11,
                       max_partitions=60)
        for attr in attrs:
            bed.warm_up(attr, 60, seed=12)
        rng = np.random.default_rng(13)
        md_total = sdp_total = 0
        for __ in range(5):
            bounds = {}
            for attr in attrs:
                lo = int(rng.integers(0, 90_000))
                bounds[attr] = (lo, lo + 4_000)
            md = bed.run_md(bounds, strategy="md", update=False)
            sdp = bed.run_md(bounds, strategy="sd+", update=False)
            md_total += md.qpf_uses
            sdp_total += sdp.qpf_uses
        assert md_total < sdp_total

    def test_central_region_is_free(self):
        """A query whose interior covers warm partitions should accept the
        central region without testing its tuples."""
        bed = make_bed(n=1000, domain=(1, 100_000), seed=14)
        for attr in ("X", "Y"):
            bed.warm_up(attr, 80, seed=15)
        bounds = {"X": (10_000, 90_000), "Y": (10_000, 90_000)}
        measurement = bed.run_md(bounds, strategy="md", update=False)
        # ~64% of tuples match; QPF must touch far fewer than that.
        assert measurement.result_count > 500
        assert measurement.qpf_uses < measurement.result_count / 2


class TestDimensionOrdering:
    def _setup(self, dim_order):
        # A coarse chain (few warm-up queries) leaves large NS regions,
        # which is where the candidate-testing order matters: with a warm
        # chain the grid pruning alone removes nearly everything.
        bed = make_bed(n=3000, attrs=("A", "B"), domain=(1, 100_000),
                       seed=30)
        for attr in ("A", "B"):
            bed.warm_up(attr, 3, seed=31)
        processor = MultiDimensionProcessor(
            {a: bed.prkb[a] for a in ("A", "B")},
            update_policy="none", dim_order=dim_order)
        # A is broad (passes almost everything), B is very selective;
        # the query lists the broad dimension FIRST.
        bounds = {"A": (1_000, 99_000), "B": (50_000, 51_500)}
        query = [bed.dimension_range(a, b) for a, b in bounds.items()]
        return bed, processor, query, bounds

    def test_orders_agree_on_answers(self):
        results = {}
        for order in ("given", "selective-first"):
            bed, processor, query, bounds = self._setup(order)
            results[order] = np.sort(processor.select(query, update=False))
            want = bed.owner.expected_range_result("t", bounds)
            assert np.array_equal(results[order], want)

    def test_selective_first_saves_qpf(self):
        costs = {}
        for order in ("given", "selective-first"):
            bed, processor, query, __ = self._setup(order)
            before = bed.counter.qpf_uses
            processor.select(query, update=False)
            costs[order] = bed.counter.qpf_uses - before
        assert costs["selective-first"] < costs["given"]

    def test_unknown_order_rejected(self):
        bed = make_bed(seed=32)
        with pytest.raises(ValueError):
            MultiDimensionProcessor({"X": bed.prkb["X"]},
                                    dim_order="random")


class TestUpdatePolicies:
    def test_none_policy_keeps_chain(self):
        bed = make_bed(seed=16)
        bounds = {"X": (100, 500), "Y": (200, 800)}
        query = [bed.dimension_range(a, b) for a, b in bounds.items()]
        processor = MultiDimensionProcessor(
            {a: bed.prkb[a] for a in bounds}, update_policy="none")
        processor.select(query)
        assert bed.prkb["X"].num_partitions == 1
        assert bed.prkb["Y"].num_partitions == 1

    def test_complete_partition_policy_grows_chain(self):
        bed = make_bed(seed=17)
        bounds = {"X": (100, 500), "Y": (200, 800)}
        run_query(bed, bounds, "md", update=True)
        assert bed.prkb["X"].num_partitions > 1
        assert bed.prkb["Y"].num_partitions > 1
        for attr in ("X", "Y"):
            bed.prkb[attr].pop.check_invariants(plain_lookup(bed, attr))

    def test_unknown_policy_rejected(self):
        bed = make_bed(seed=18)
        with pytest.raises(ValueError):
            MultiDimensionProcessor({"X": bed.prkb["X"]},
                                    update_policy="bogus")


class TestMdErrors:
    def test_requires_indexes(self):
        with pytest.raises(ValueError):
            MultiDimensionProcessor({})

    def test_mixed_tables_rejected(self):
        bed_a = make_bed(seed=19)
        bed_b = make_bed(seed=20)
        with pytest.raises(ValueError):
            MultiDimensionProcessor({"X": bed_a.prkb["X"],
                                     "Y": bed_b.prkb["Y"]})

    def test_empty_query_returns_empty(self):
        bed = make_bed(seed=21)
        processor = MultiDimensionProcessor({"X": bed.prkb["X"]})
        assert processor.select([]).size == 0


class _Recording:
    """Keeps every QFilter outcome the grid classifies, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outcomes = []

    def _classify(self, index, trapdoor, filtered):
        self.outcomes.append(filtered)
        return super()._classify(index, trapdoor, filtered)


class _LockStep(_Recording, MultiDimensionProcessor):
    pass


class _SerialSearches(_Recording, MultiDimensionProcessor):
    """Reference: each predicate's QFilter driven alone through
    :func:`~repro.edbms.qpf.drive`, in query order; records each
    search's crossings."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.search_roundtrips = []

    def _snapshot(self, query):
        counter = self._qpf.counter
        lengths = []
        contexts = {}
        for position, dimension in enumerate(query):
            index = self._index_for(dimension.attribute)
            contexts[position] = []
            for trapdoor in dimension.trapdoors():
                before = counter.qpf_roundtrips
                [filtered] = drive(index.qpf, [
                    index._qfilter_gen(trapdoor, index.pop.freeze())])
                lengths.append(counter.qpf_roundtrips - before)
                contexts[position].append(
                    self._classify(index, trapdoor, filtered))
        self.search_roundtrips.append(lengths)
        return contexts


def _grid_indexes(backend, attrs, cold):
    """A seeded table's PRKB indexes over the trusted machine or the MPC
    Θ, every dimension but ``cold`` warmed; equal arguments build twins."""
    bed = make_bed(n=400, attrs=attrs, domain=(1, 10_000), seed=40)
    if backend == "tm":
        indexes, counter = bed.prkb, bed.counter
    else:
        counter = CostCounter()
        qpf = MPCQueryProcessingFunction(bed.owner.key, counter)
        shared = share_table(bed.owner.key, bed.plain)
        indexes = {attribute: PRKBIndex(shared, qpf, attribute,
                                        seed=500 + position)
                   for position, attribute in enumerate(attrs)}
    rng = np.random.default_rng(41)
    for attribute in attrs:
        if attribute == cold:
            continue
        processor = SingleDimensionProcessor(indexes[attribute])
        for threshold in rng.choice(np.arange(2, 10_000), 8,
                                    replace=False):
            processor.select(bed.owner.comparison_trapdoor(
                attribute, "<", int(threshold)))
    return bed, indexes, counter


class TestLockStepParity:
    """The 2d QFilter searches of one grid statement advance together,
    one crossing per round, and change nothing else: per statement the
    same QPF, winners, chain, sampling ordinals and QFilter outcomes as
    searching one predicate at a time."""

    @pytest.mark.parametrize("backend", ["tm", "mpc"])
    @pytest.mark.parametrize("attrs, policy", [
        (("X", "Y"), "complete-partition"),
        (("A", "B", "C"), "complete-partition"),
        (("A", "B", "C"), "none"),
    ])
    def test_matches_serial_searches(self, backend, attrs, policy):
        cold = attrs[-1]
        stacks = [_grid_indexes(backend, attrs, cold) for __ in range(2)]
        lock = _LockStep(stacks[0][1], update_policy=policy)
        serial = _SerialSearches(stacks[1][1], update_policy=policy)
        update = policy != "none"
        rng = np.random.default_rng(42)
        single_chain_statements = 0
        for __ in range(10):
            bounds = {}
            for attribute in attrs:
                low = int(rng.integers(0, 8_000))
                bounds[attribute] = (low, low + int(rng.integers(50, 3_000)))
            single_chain_statements += stacks[0][1][cold].num_partitions == 1
            runs = []
            for (bed, indexes, counter), processor in zip(stacks,
                                                          (lock, serial)):
                query = [bed.dimension_range(a, b) for a, b in bounds.items()]
                with counter.measure() as spent:
                    winners = processor.select(query, update=update)
                chains = {a: (ix.num_partitions, ix.ordinal)
                          for a, ix in indexes.items()}
                runs.append((spent, winners, chains))
            (got, got_winners, got_chains), (want, want_winners,
                                             want_chains) = runs
            assert got.qpf_uses == want.qpf_uses
            assert np.array_equal(got_winners, want_winners)
            assert got_chains == want_chains
            assert lock.outcomes == serial.outcomes
            lengths = serial.search_roundtrips[-1]
            assert got.qpf_roundtrips == (want.qpf_roundtrips
                                          - sum(lengths) + max(lengths))
            assert np.array_equal(
                np.sort(got_winners),
                stacks[0][0].owner.expected_range_result("t", bounds))
        assert single_chain_statements >= 1
        if not update:
            assert single_chain_statements == 10


class TestTwoDatabasesOneProcess:
    """Two databases, one thread each, grid statements at the same time:
    nothing the grid allocates is shared between them."""

    ROWS = 2_000
    DOMAIN = (1, 10_000)

    def _database(self, seed):
        from repro.edbms.engine import EncryptedDatabase

        rng = np.random.default_rng(seed)
        columns = {name: rng.integers(self.DOMAIN[0], self.DOMAIN[1] + 1,
                                      self.ROWS) for name in "XY"}
        db = EncryptedDatabase(seed=seed)
        db.create_table("t", {name: self.DOMAIN for name in "XY"}, columns)
        db.enable_prkb("t", ["X", "Y"])
        return db, columns

    def _boxes(self, seed):
        rng = np.random.default_rng(100 + seed)
        lows = rng.integers(self.DOMAIN[0], self.DOMAIN[1] // 2, (25, 2))
        widths = rng.integers(200, self.DOMAIN[1] // 2, (25, 2))
        return [(int(xl), int(xl + xw), int(yl), int(yl + yw))
                for (xl, yl), (xw, yw) in zip(lows, widths)]

    def _run(self, db, boxes, barrier=None):
        if barrier is not None:
            barrier.wait(timeout=30)
        return [db.query(f"SELECT * FROM t WHERE X > {xl} AND X < {xh} "
                         f"AND Y > {yl} AND Y < {yh}", strategy="md").uids
                for xl, xh, yl, yh in boxes]

    def test_concurrent_grids_match_numpy_and_their_serial_qpf(self):
        import sys
        import threading

        seeds = (1, 2)
        serial_qpf = {}
        for seed in seeds:
            db, __ = self._database(seed)
            self._run(db, self._boxes(seed))
            serial_qpf[seed] = db.counter.qpf_uses
            db.close()

        beds = {seed: self._database(seed) for seed in seeds}
        winners = {}
        barrier = threading.Barrier(len(seeds))

        def work(seed):
            winners[seed] = self._run(beds[seed][0], self._boxes(seed),
                                      barrier)

        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        for seed in seeds:
            db, columns = beds[seed]
            uids = np.arange(self.ROWS, dtype=np.uint64)
            for got, (xl, xh, yl, yh) in zip(winners[seed],
                                             self._boxes(seed)):
                mask = ((columns["X"] > xl) & (columns["X"] < xh)
                        & (columns["Y"] > yl) & (columns["Y"] < yh))
                assert np.array_equal(np.sort(got), uids[mask])
            assert db.counter.qpf_uses == serial_qpf[seed] > 0
            db.close()
