"""Tests for the span tracer: nesting, threading, retention, export."""

import threading

import pytest

from repro.obs import Span, Tracer

pytestmark = pytest.mark.obs


class TestNesting:
    def test_with_block_nests_and_finishes(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert tracer.current() is None
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert all(s.end is not None for s in spans)

    def test_sibling_roots_get_fresh_traces(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_explicit_none_parent_forces_root(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            detached = tracer.begin("detached", parent=None)
            tracer.finish(detached)
        assert detached.parent_id is None
        assert detached.trace_id != outer.trace_id

    def test_decorator(self):
        tracer = Tracer()

        @tracer.traced("work")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert [s.name for s in tracer.spans()] == ["work"]

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("s")
        tracer.finish(span)
        end = span.end
        tracer.finish(span)
        assert span.end == end
        assert len(tracer) == 1


class TestCosts:
    def test_record_accumulates(self):
        span = Span("s", 1, None, 1, 0.0, 0)
        span.record(qpf_uses=3).record(qpf_uses=2, wal_fsyncs=1)
        assert span.cost == {"qpf_uses": 5, "wal_fsyncs": 1}

    def test_finish_costs_merge(self):
        tracer = Tracer()
        span = tracer.begin("s")
        tracer.finish(span, qpf_uses=7)
        assert span.cost["qpf_uses"] == 7


class TestRingBuffer:
    def test_capacity_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.reset()
        assert len(tracer) == 0


class TestCrossThread:
    def test_explicit_parent_attaches_worker_span(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            parent = tracer.current()

            def worker():
                # Worker threads have an empty stack...
                assert tracer.current() is None
                span = tracer.begin("shard", parent=parent, shard=1)
                tracer.finish(span)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        shard = tracer.spans(name="shard")[0]
        assert shard.parent_id == root.span_id
        assert shard.trace_id == root.trace_id
        assert shard.thread != root.thread


class TestRetrievalAndExport:
    def _populated(self):
        tracer = Tracer()
        with tracer.span("query", sql="SELECT 1") as root:
            with tracer.span("phase") as phase:
                phase.record(qpf_uses=4)
        return tracer, root

    def test_filtering(self):
        tracer, root = self._populated()
        assert len(tracer.spans(trace_id=root.trace_id)) == 2
        assert len(tracer.spans(name="phase")) == 1
        assert tracer.spans(trace_id=root.trace_id + 999) == []

    def test_trace_tree(self):
        tracer, root = self._populated()
        forest = tracer.trace_tree(root.trace_id)
        assert len(forest) == 1
        assert forest[0]["name"] == "query"
        children = forest[0]["children"]
        assert [c["name"] for c in children] == ["phase"]
        assert children[0]["cost"] == {"qpf_uses": 4}

    def test_export_json(self):
        tracer, _ = self._populated()
        doc = tracer.export_json()
        assert {d["name"] for d in doc} == {"query", "phase"}
        assert all(d["duration"] >= 0 for d in doc)

    def test_export_chrome(self):
        tracer, root = self._populated()
        doc = tracer.export_chrome()
        events = doc["traceEvents"]
        assert {e["name"] for e in events} == {"query", "phase"}
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        phase = next(e for e in events if e["name"] == "phase")
        assert phase["args"]["qpf_uses"] == 4
        assert phase["args"]["trace_id"] == root.trace_id
