"""Tests for the metrics registry and its exporters."""

import json
import math
import re

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    render_json,
    render_prometheus,
)

pytestmark = pytest.mark.obs


class TestBuckets:
    def test_log_buckets_shape(self):
        buckets = log_buckets(1.0, 2.0, 5)
        assert buckets == (1.0, 2.0, 4.0, 8.0, 16.0)

    def test_default_latency_buckets_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == \
            sorted(DEFAULT_LATENCY_BUCKETS)

    def test_invalid_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h_bad", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("h_bad2", buckets=(2.0, 1.0))


class TestHistogram:
    def test_value_exactly_on_bound_lands_in_that_bucket(self):
        # Prometheus `le` semantics: bucket counts observations <= bound.
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(2.0)
        series = h.series()[0][1]
        assert series.counts == [0, 1, 0, 0]

    def test_below_first_and_above_last(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)   # first bucket
        h.observe(99.0)  # +Inf overflow slot
        series = h.series()[0][1]
        assert series.counts == [1, 0, 1]

    def test_cumulative_and_sum(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        series = h.series()[0][1]
        assert series.cumulative() == [(1.0, 1), (2.0, 2), (4.0, 3),
                                       (math.inf, 4)]
        assert series.sum == pytest.approx(105.0)
        assert series.count == 4

    def test_negative_observation_lands_in_first_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(-5.0)
        assert h.series()[0][1].counts[0] == 1


class TestFamilies:
    def test_counter_monotone(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value() == pytest.approx(3.5)
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_inc(self):
        g = Gauge("g")
        g.set(5)
        g.inc(-2)
        assert g.value() == pytest.approx(3)

    def test_callback_gauge(self):
        box = {"v": 7}
        g = Gauge("g", callback=lambda: box["v"])
        assert g.value() == 7
        box["v"] = 8
        assert g.value() == 8
        with pytest.raises(ValueError):
            g.set(1)
        with pytest.raises(ValueError):
            g.inc()

    def test_labeled_series_are_distinct(self):
        c = Counter("c", labelnames=("mode",))
        c.inc(mode="serial")
        c.inc(2, mode="batch")
        assert c.value(mode="serial") == 1
        assert c.value(mode="batch") == 2

    def test_unknown_label_rejected(self):
        c = Counter("c", labelnames=("mode",))
        with pytest.raises(ValueError):
            c.inc(wrong="x")

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("9starts_with_digit")
        with pytest.raises(ValueError):
            Counter("has space")


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help")
        second = registry.counter("c")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("m", labelnames=("b",))

    def test_get_and_collect(self):
        registry = MetricsRegistry()
        registry.gauge("g")
        assert registry.get("g") is not None
        assert registry.get("missing") is None
        assert [f.name for f in registry.collect()] == ["g"]


#: One Prometheus exposition line: name{labels} value.
_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? '
    r'(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$')


class TestPrometheusExport:
    def _registry(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_requests_total", "requests served",
                             labelnames=("mode",))
        c.inc(3, mode="serial")
        registry.gauge("repro_up", "always one").set(1)
        h = registry.histogram("repro_latency_seconds", "latency",
                               buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        return registry

    def test_every_sample_line_is_valid(self):
        text = render_prometheus(self._registry())
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert _SAMPLE_LINE.match(line), line

    def test_histogram_has_bucket_sum_count(self):
        text = render_prometheus(self._registry())
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_latency_seconds_count 2" in text

    def test_help_and_type_lines(self):
        text = render_prometheus(self._registry())
        assert "# HELP repro_requests_total requests served" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_up gauge" in text
        assert "# TYPE repro_latency_seconds histogram" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        c = registry.counter("c", 'tricky "help"\nwith newline',
                             labelnames=("q",))
        c.inc(q='a"b\\c\nd')
        text = render_prometheus(registry)
        assert '# HELP c tricky "help"\\nwith newline' in text
        assert 'c{q="a\\"b\\\\c\\nd"} 1' in text
        # Escaped output stays one physical line per sample.
        sample_lines = [l for l in text.splitlines()
                        if l and not l.startswith("#")]
        assert len(sample_lines) == 1


class TestJsonExport:
    def test_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        h = registry.histogram("h", buckets=(1.0,))
        h.observe(0.5)
        doc = json.loads(json.dumps(render_json(registry)))
        assert doc["c"]["kind"] == "counter"
        assert doc["c"]["series"][0]["value"] == 2
        hist = doc["h"]["series"][0]
        assert hist["count"] == 1
        # +Inf renders as a string so the document stays strict JSON.
        assert hist["buckets"][-1] == ["+Inf", 1]
