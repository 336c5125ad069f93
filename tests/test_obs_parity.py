"""The acceptance probe: tracing must not perturb or miss a single QPF use.

Two identical 120-query PRKB runs — one with no tracer (proved to
allocate zero spans), one traced — must agree bit-for-bit on the global
``qpf_uses`` counter, and the traced run's leaf-phase costs must *tile*
that counter exactly: every use attributed once, none twice.  The same
probe in all five modes of ``benchmarks/bench_parity_probe.py`` must
also answer every query exactly as a numpy oracle over the plaintext.
"""

import numpy as np
import pytest

import repro.obs.tracing as tracing
from repro.bench import Testbed
from repro.edbms.qpf import QPFRequest
from repro.obs import Tracer
from repro.workloads import distinct_comparison_thresholds, uniform_table

from conftest import load_parity_bench

pytestmark = pytest.mark.obs

#: The probe's deterministic global cost (seeds pinned below).
EXPECTED_QPF = load_parity_bench().EXPECTED_QPF
#: Every QPF-side tally of the probe, as charged site by site before the
#: trusted machine batched its accounting into one charge per crossing.
EXPECTED_CROSSING_FIELDS = {
    "qpf_uses": EXPECTED_QPF, "qpf_roundtrips": 934,
    "tuples_retrieved": EXPECTED_QPF,
    "parallel_wall_qpf_uses": EXPECTED_QPF, "parallel_wall_roundtrips": 934,
    "predicate_cache_hits": 814, "predicate_cache_misses": 120,
    "column_cache_hits": 933, "column_cache_misses": 1,
    "column_cache_evictions": 0,
}
#: Span names that carry exclusive qpf cost; containers carry attrs only.
LEAF_PHASES = {"prkb.qfilter.sample", "prkb.qfilter.search",
               "prkb.qscan", "prkb.update", "prkb.cached"}


def _probe_bed(tracer=None):
    table = uniform_table("t", 2000, ["X"], domain=(1, 300_000), seed=0)
    bed = Testbed(table, ["X"], seed=7)
    if tracer is not None:
        bed.counter.tracer = tracer
    return bed


def _drive_probe(bed):
    thresholds = distinct_comparison_thresholds((1, 300_000), 120, seed=1)
    for threshold in thresholds:
        trapdoor = bed.owner.comparison_trapdoor("X", "<", int(threshold))
        bed.prkb["X"].select(trapdoor)
    return bed


def _run_probe(tracer=None):
    return _drive_probe(_probe_bed(tracer))


class TestDisabled:
    def test_no_tracer_allocates_no_spans_and_matches_seed(self, monkeypatch):
        # Any Span construction on the disabled path is a bug, not just
        # overhead — fail loudly instead of measuring.
        def forbid(self, *args, **kwargs):
            raise AssertionError("Span allocated with tracing disabled")
        monkeypatch.setattr(tracing.Span, "__init__", forbid)
        bed = _run_probe(tracer=None)
        assert bed.counter.qpf_uses == EXPECTED_QPF


#: A payload holding an unknown uid, in each shape Θ accepts.
_UNKNOWN_UID_PAYLOADS = pytest.mark.parametrize("payload", [
    lambda unknown: unknown,                        # scalar Θ
    lambda unknown: np.asarray([unknown], dtype=np.uint64),
    lambda unknown: np.asarray([0, unknown], dtype=np.uint64),
], ids=["scalar", "one-tuple", "vector"])


def _assert_workers_drained(pooled):
    for worker in pooled._trusted_machine._workers:
        assert not any(worker.counter.as_dict().values())


class TestCrossingAccounting:
    """One ``charge`` per crossing must add up to the per-site totals."""

    def test_probe_fields_unchanged(self):
        spent = _run_probe().counter.as_dict()
        assert {name: spent[name] for name in EXPECTED_CROSSING_FIELDS} \
            == EXPECTED_CROSSING_FIELDS

    def test_measure_scope_sees_the_same_deltas(self):
        bed = _probe_bed()
        with bed.counter.measure() as scoped:
            _drive_probe(bed)
        assert scoped.as_dict() == bed.counter.as_dict()
        assert scoped.qpf_uses == EXPECTED_QPF

    @staticmethod
    def _warm_bed(workers=None):
        """A 50-row bed (lone machine, or a pool that fans out from 8
        tuples) with the column warm everywhere, plus its trapdoor."""
        table = uniform_table("t", 50, ["X"], domain=(1, 1000), seed=0)
        bed = Testbed(table, ["X"], seed=7, qpf_workers=workers,
                      qpf_min_shard_tuples=4)
        trapdoor = bed.owner.comparison_trapdoor("X", "<", 500)
        bed.qpf.batch(trapdoor, bed.table, bed.table.uids)  # warm column
        return bed, trapdoor

    @staticmethod
    def _raising_call(bed, trapdoor, uids):
        """The call's own ``measure()`` tally; it must raise KeyError."""
        with bed.counter.measure() as spent:
            with pytest.raises(KeyError, match="unknown uid 10000"):
                if isinstance(uids, int):
                    bed.qpf(trapdoor, bed.table, uids)
                else:
                    bed.qpf.batch(trapdoor, bed.table, uids)
        return spent.as_dict()

    @_UNKNOWN_UID_PAYLOADS
    def test_unknown_uid_still_charges_its_crossing(self, payload):
        bed, trapdoor = self._warm_bed()
        uids = payload(10_000)
        tuples = int(np.size(uids))
        spent = self._raising_call(bed, trapdoor, uids)
        assert {name: value for name, value in spent.items() if value} == {
            "qpf_uses": tuples, "tuples_retrieved": tuples,
            "qpf_roundtrips": 1, "parallel_wall_roundtrips": 1,
            "parallel_wall_qpf_uses": tuples,
            "predicate_cache_hits": 1, "column_cache_hits": 1}

    @_UNKNOWN_UID_PAYLOADS
    def test_pool_charges_a_raising_crossing_like_the_lone_machine(
            self, payload):
        lone, trapdoor = self._warm_bed()
        pooled, pool_trapdoor = self._warm_bed(workers=2)
        try:
            uids = payload(10_000)
            want = self._raising_call(lone, trapdoor, uids)
            assert self._raising_call(pooled, pool_trapdoor, uids) == want
            # The failed call's cost is not left for whoever calls next.
            ten = pooled.table.uids[:10]
            for bed, door in ((lone, trapdoor), (pooled, pool_trapdoor)):
                with bed.counter.measure() as spent:
                    bed.qpf.batch(door, bed.table, ten)
                assert spent.qpf_uses == spent.tuples_retrieved == 10
        finally:
            pooled.close()

    @pytest.mark.parametrize("good_tuples", [2, 19],
                             ids=["one-worker", "fanned-out"])
    def test_pool_batch_many_raise_matches_the_lone_machine(
            self, good_tuples):
        lone, trapdoor = self._warm_bed()
        pooled, pool_trapdoor = self._warm_bed(workers=2)
        try:
            spent = []
            for bed, door in ((lone, trapdoor), (pooled, pool_trapdoor)):
                requests = [
                    QPFRequest(door, bed.table, bed.table.uids[:good_tuples]),
                    QPFRequest(door, bed.table,
                               np.asarray([10_000], dtype=np.uint64))]
                with bed.counter.measure() as tally:
                    with pytest.raises(KeyError, match="unknown uid 10000"):
                        bed.qpf.batch_many(requests)
                spent.append(tally)
            assert spent[1].qpf_uses == spent[0].qpf_uses == good_tuples + 1
            _assert_workers_drained(pooled)
        finally:
            pooled.close()

    @pytest.mark.parametrize("bad_position", [0, -1],
                             ids=["first-chunk", "last-chunk"])
    def test_fanned_out_raise_is_charged_and_drains_every_worker(
            self, bad_position):
        lone, trapdoor = self._warm_bed()
        pooled, pool_trapdoor = self._warm_bed(workers=2)
        try:
            uids = pooled.table.uids[:20].copy()
            uids[bad_position] = 10_000
            want = self._raising_call(lone, trapdoor, uids)
            got = self._raising_call(pooled, pool_trapdoor, uids)
            assert got["qpf_uses"] == want["qpf_uses"] == 20
            assert got["tuples_retrieved"] == 20
            # Both 10-tuple chunks crossed, side by side.
            assert got["qpf_roundtrips"] == 2
            assert got["parallel_wall_qpf_uses"] == 10
            assert got["parallel_wall_roundtrips"] == 1
            _assert_workers_drained(pooled)
            with pooled.counter.measure() as spent:
                pooled.qpf.batch(pool_trapdoor, pooled.table,
                                 pooled.table.uids[:10])
            assert spent.qpf_uses == 10 and spent.qpf_roundtrips == 2
        finally:
            pooled.close()


class TestEnabled:
    @pytest.fixture(scope="class")
    def traced_probe(self):
        tracer = Tracer(capacity=8192)
        bed = _run_probe(tracer=tracer)
        return tracer, bed

    def test_counter_identical_to_disabled_run(self, traced_probe):
        __, bed = traced_probe
        assert bed.counter.qpf_uses == EXPECTED_QPF

    def test_leaf_phase_costs_tile_the_counter(self, traced_probe):
        tracer, bed = traced_probe
        spans = tracer.spans()
        leaf_sum = sum(s.cost.get("qpf_uses", 0) for s in spans)
        assert leaf_sum == bed.counter.qpf_uses == EXPECTED_QPF
        # Exclusivity: only leaf phases carry cost.
        for span in spans:
            if span.cost.get("qpf_uses", 0):
                assert span.name in LEAF_PHASES, span.name

    def test_each_query_tiles_its_own_total(self, traced_probe):
        tracer, __ = traced_probe
        roots = tracer.spans(name="prkb.select")
        assert len(roots) == 120
        for root in roots:
            children = tracer.spans(trace_id=root.trace_id)
            child_sum = sum(s.cost.get("qpf_uses", 0) for s in children
                            if s.name in LEAF_PHASES)
            assert child_sum == root.attrs["qpf_uses_total"]

    def test_prkb_growth_unperturbed(self, traced_probe):
        __, bed = traced_probe
        assert bed.prkb["X"].pop.num_partitions == 118


class TestEveryModeAnswersTheOracle:
    def test_five_modes_exact_in_count_and_answers(self):
        bench = load_parity_bench()
        results, mismatches = bench._measure()
        assert set(results) == {"serial", "traced", "shard_thread",
                                "engine_serial", "engine_batched",
                                "expected"}
        assert bench._check(results, mismatches) == []

    def test_a_wrong_set_at_the_right_cost_fails_the_check(self):
        bench = load_parity_bench()
        __, plain, answers = bench._run_testbed()
        check = bench._answer_mismatches
        assert check("serial", plain, answers, ordered=False) == []
        # The same sets, descending: fine where only sets are compared,
        # a contract breach for an engine mode.
        descending = [answer[::-1] for answer in answers]
        assert check("serial", plain, descending, ordered=False) == []
        assert len(check("engine_serial", plain, descending, ordered=True)) \
            == sum(answer.size > 1 for answer in answers)
        # One winner lost, at no QPF difference.
        answers[3] = answers[3][1:]
        assert len(check("serial", plain, answers, ordered=False)) == 1
