"""QPF shard pool: exact accounting parity and wall-cost semantics.

The pool's contract (API.md): sharding a payload across N worker trusted
machines never changes *what* is evaluated — per-tuple ``qpf_uses``, the
returned labels and therefore every winner set are bit-identical to a
lone ``TrustedMachine`` at any worker count — while the wall
(critical-path) counters record the longest shard instead of the sum.
"""

import numpy as np
import pytest

from repro.bench import Testbed
from repro.core import MultiDimensionProcessor
from repro.edbms.costs import CostCounter
from repro.edbms.qpf import QPFRequest, QPFShardPool, TrustedMachine
from repro.workloads import uniform_table

DOMAIN = (1, 100_000)

BOUNDS = [
    {"X": (5_000, 40_000), "Y": (10_000, 70_000)},
    {"X": (20_000, 90_000), "Y": (1_000, 30_000)},
    {"X": (45_000, 55_000), "Y": (45_000, 99_000)},
    {"X": (100, 99_000), "Y": (30_000, 60_000)},
    {"X": (60_000, 95_000), "Y": (5_000, 95_000)},
]


def _bed(workers=None, n=900):
    table = uniform_table("t", n, ["X", "Y"], domain=DOMAIN, seed=11)
    return Testbed(table, ["X", "Y"], seed=11, qpf_workers=workers,
                   qpf_min_shard_tuples=4)


def _run_workload(bed):
    """MD queries with live refinement; per-step winners and qpf_uses."""
    trace = []
    for bounds in BOUNDS:
        query = [bed.dimension_range(a, b) for a, b in bounds.items()]
        processor = MultiDimensionProcessor(
            {a: bed.prkb[a] for a in bounds})
        winners = np.sort(processor.select(query, update=True))
        trace.append((winners, bed.counter.qpf_uses))
    return trace


class TestQpfUsesParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_thread_pool_matches_serial_exactly(self, workers):
        serial = _bed()
        pooled = _bed(workers=workers)
        try:
            for ((serial_winners, serial_uses),
                 (pool_winners, pool_uses)) in zip(_run_workload(serial),
                                                   _run_workload(pooled)):
                assert np.array_equal(serial_winners, pool_winners)
                assert serial_uses == pool_uses
        finally:
            pooled.close()


class TestWallCounters:
    def test_without_pool_wall_equals_serial(self):
        bed = _bed()
        _run_workload(bed)
        counter = bed.counter
        assert counter.qpf_uses > 0
        assert counter.parallel_wall_qpf_uses == counter.qpf_uses
        assert counter.parallel_wall_roundtrips == counter.qpf_roundtrips

    def test_with_pool_wall_bounded_by_serial(self):
        bed = _bed(workers=4)
        try:
            _run_workload(bed)
        finally:
            bed.close()
        counter = bed.counter
        assert counter.qpf_uses > 0
        assert 0 < counter.parallel_wall_qpf_uses <= counter.qpf_uses
        assert 0 < counter.parallel_wall_roundtrips
        # Work counters never shrink under sharding.
        assert counter.parallel_wall_roundtrips <= counter.qpf_roundtrips


class TestPoolPrimitives:
    def _ingredients(self, n=600):
        table = uniform_table("t", n, ["X"], domain=DOMAIN, seed=23)
        bed = Testbed(table, ["X"], seed=23)
        trapdoor = bed.owner.comparison_trapdoor("X", "<", 40_000)
        return bed, trapdoor

    def test_evaluate_batch_labels_and_uses(self):
        bed, trapdoor = self._ingredients()
        uids = bed.table.uids
        lone_counter = CostCounter()
        lone = TrustedMachine(bed.owner.key, lone_counter)
        want = lone.evaluate_batch(trapdoor, bed.table, uids)
        pool_counter = CostCounter()
        pool = QPFShardPool(bed.owner.key, pool_counter, num_workers=3,
                            min_shard_tuples=4)
        try:
            got = pool.evaluate_batch(trapdoor, bed.table, uids)
        finally:
            pool.close()
        assert np.array_equal(want, got)
        assert pool_counter.qpf_uses == lone_counter.qpf_uses == uids.size
        # Sharded into 3 chunks: the critical path is the longest chunk.
        assert pool_counter.parallel_wall_qpf_uses < pool_counter.qpf_uses
        assert pool_counter.parallel_wall_roundtrips == 1

    def test_evaluate_many_preserves_request_order(self):
        bed, trapdoor = self._ingredients()
        other = bed.owner.comparison_trapdoor("X", ">", 70_000)
        rng = np.random.default_rng(7)
        requests = []
        for size in (1, 17, 200, 3, 64):
            uids = rng.choice(bed.table.uids, size=size, replace=False)
            requests.append(QPFRequest(
                trapdoor if size % 2 else other, bed.table, uids))
        lone = TrustedMachine(bed.owner.key, CostCounter())
        want = lone.evaluate_many(requests)
        pool = QPFShardPool(bed.owner.key, CostCounter(), num_workers=4,
                            min_shard_tuples=4)
        try:
            got = pool.evaluate_many(requests)
        finally:
            pool.close()
        assert len(want) == len(got)
        for want_labels, got_labels in zip(want, got):
            assert np.array_equal(want_labels, got_labels)

    def test_empty_payload(self):
        bed, trapdoor = self._ingredients(n=50)
        pool = QPFShardPool(bed.owner.key, CostCounter(), num_workers=2)
        try:
            labels = pool.evaluate_batch(
                trapdoor, bed.table, np.zeros(0, dtype=np.uint64))
        finally:
            pool.close()
        assert labels.size == 0
