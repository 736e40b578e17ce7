"""Unit tests for the metrics registry."""

import json

import pytest

from repro.obs.metrics import (
    COUNT_BUCKETS,
    FRACTION_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_int_preserving(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert isinstance(c.value, int)

    def test_float_promotion(self):
        reg = MetricsRegistry()
        c = reg.counter("t")
        c.inc(0.5)
        c.inc(2)
        assert c.value == pytest.approx(2.5)

    def test_create_or_get(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(10)
        g.set(3)
        assert g.value == 3


class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        h = Histogram("h", (1, 10, 100))
        for v in (0, 1, 5, 10, 50, 100, 101, 5000):
            h.observe(v)
        d = h.as_dict()
        # bisect_left: values equal to a bound land in that bound's slot,
        # so slot 0 holds {0, 1}, slot 1 {5, 10}, slot 2 {50, 100}, and the
        # overflow slot {101, 5000}.
        assert d["counts"] == [2, 2, 2, 2]
        assert d["count"] == 8
        assert d["sum"] == 5267
        assert d["buckets"] == [1.0, 10.0, 100.0]

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", (5, 1))
        with pytest.raises(ValueError):
            Histogram("dup", (1, 1, 2))

    def test_default_bucket_sets_are_valid(self):
        Histogram("counts", COUNT_BUCKETS)
        Histogram("fracs", FRACTION_BUCKETS)


class TestRegistrySnapshotMerge:
    def test_snapshot_is_json_ready_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a").inc(1)
        reg.gauge("g").set(7)
        reg.histogram("h", (1, 2)).observe(1)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must not raise

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
