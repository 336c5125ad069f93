"""Span trees across the execution stack: batching, shard pool, durability.

Tracer correctness under the *interleaved* paths — execute_many drives
many PRKB pipelines in lock step, the shard pool runs QPF on worker
threads — where naive counter-delta attribution would double-count or
attach spans to the wrong query.
"""

import numpy as np
import pytest

from repro.edbms.engine import EncryptedDatabase

pytestmark = pytest.mark.obs

DOMAIN = (1, 10_000)
LEAF_PHASES = {"prkb.qfilter.sample", "prkb.qfilter.search",
               "prkb.qscan", "prkb.update", "prkb.cached"}


def _column(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(DOMAIN[0], DOMAIN[1] + 1, n)


def _database(**kwargs):
    db = EncryptedDatabase(seed=0, **kwargs)
    db.create_table("t", {"X": DOMAIN}, {"X": _column()})
    db.enable_prkb("t", ["X"])
    return db


class TestExecuteManyTree:
    @pytest.fixture()
    def batch_run(self):
        db = _database()
        tracer, __ = db.enable_observability()
        statements = [
            "SELECT * FROM t WHERE X < 2000",
            "SELECT * FROM t WHERE X < 5000",
            "SELECT * FROM t WHERE X < 2000",  # duplicate -> alias
            "SELECT * FROM t WHERE X < 8000",
        ]
        before = db.counter.qpf_uses
        answers = db.execute_many(statements)
        spent = db.counter.qpf_uses - before
        return db, tracer, answers, spent

    def test_window_and_flush_spans(self, batch_run):
        __, tracer, *_ = batch_run
        assert len(tracer.spans(name="execute_many.window")) == 1
        flushes = tracer.spans(name="qpf.flush")
        assert flushes
        assert all(f.attrs["requests"] >= 1 for f in flushes)

    def test_one_root_per_distinct_query(self, batch_run):
        __, tracer, answers, __ = batch_run
        roots = tracer.spans(name="batch.query")
        aliases = tracer.spans(name="batch.alias")
        assert len(roots) == 3 and len(aliases) == 1
        # Every answer carries the trace id of the span that produced it.
        assert {a.query_id for a in answers} == \
            {s.trace_id for s in roots + aliases}

    def test_per_query_costs_tile_the_batch_total(self, batch_run):
        __, tracer, answers, spent = batch_run
        roots = tracer.spans(name="batch.query")
        for root in roots:
            leaves = [s for s in tracer.spans(trace_id=root.trace_id)
                      if s.name in LEAF_PHASES]
            assert sum(s.cost.get("qpf_uses", 0) for s in leaves) \
                == root.attrs["qpf_uses_total"]
        assert sum(r.attrs["qpf_uses_total"] for r in roots) == spent

    def test_alias_points_at_its_twin(self, batch_run):
        __, tracer, answers, __ = batch_run
        alias = tracer.spans(name="batch.alias")[0]
        assert alias.trace_id == answers[2].query_id
        assert alias.attrs["source"] == answers[0].query_id
        assert answers[2].qpf_uses == 0
        assert np.array_equal(answers[2].uids, answers[0].uids)


class TestShardPoolSpans:
    def test_worker_spans_attach_to_the_dispatching_query(self):
        db = _database(qpf_workers=2, qpf_min_shard_tuples=1)
        try:
            tracer, __ = db.enable_observability()
            answer = db.query("SELECT * FROM t WHERE X < 5000")
            shards = tracer.spans(name="qpf.shard")
            assert len(shards) >= 2
            for shard in shards:
                assert shard.trace_id == answer.query_id
                assert shard.parent_id is not None
                # Shards time the fan-out but never carry qpf cost — the
                # logical phase meter owns attribution.
                assert not shard.cost
            # The pool really fanned out: not all shards on one thread.
            assert len({s.thread for s in shards}) >= 2
        finally:
            db.close()

    def test_shard_tracing_does_not_change_qpf(self):
        plain = _database(qpf_workers=2, qpf_min_shard_tuples=1)
        traced = _database(qpf_workers=2, qpf_min_shard_tuples=1)
        try:
            traced.enable_observability()
            sql = "SELECT * FROM t WHERE X < 5000"
            a, b = plain.query(sql), traced.query(sql)
            assert a.qpf_uses == b.qpf_uses
            assert np.array_equal(a.uids, b.uids)
        finally:
            plain.close()
            traced.close()


class TestDurabilitySpans:
    def test_wal_checkpoint_and_recovery_phases(self, tmp_path):
        db = EncryptedDatabase.open(tmp_path / "db", seed=0)
        tracer, __ = db.enable_observability()
        db.create_table("t", {"X": DOMAIN}, {"X": _column()})
        db.enable_prkb("t", ["X"])
        db.query("SELECT * FROM t WHERE X < 2000")

        fsyncs = tracer.spans(name="wal.fsync")
        assert fsyncs
        assert all(s.cost.get("wal_fsyncs") == 1 for s in fsyncs)

        db.checkpoint()
        assert tracer.spans(name="checkpoint.table")
        assert tracer.spans(name="checkpoint.index")
        db.close()

        # ``open()`` recovers before returning, so to trace recovery we
        # wire the durable directory by hand and enable the tracer first.
        from repro.edbms.durability import DurabilityManager

        reopened = EncryptedDatabase(seed=0)
        reopened._attach_durability(
            DurabilityManager(tmp_path / "db", counter=reopened.counter))
        try:
            tracer2, __ = reopened.enable_observability()
            reopened.recover()
            roots = tracer2.spans(name="recovery")
            assert len(roots) == 1
            phases = {s.name
                      for s in tracer2.spans(trace_id=roots[0].trace_id)}
            assert {"recovery.tables", "recovery.indexes",
                    "recovery.orphans", "recovery.checkpoint"} <= phases
        finally:
            reopened.close()
