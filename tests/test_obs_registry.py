"""Unit tests for the metrics registry: instrument semantics + disabled mode."""

import math

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_spaced_buckets,
    set_registry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_to_dict(self):
        counter = Counter("c")
        counter.inc(3)
        assert counter.to_dict() == {"type": "counter", "value": 3}


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.set(4)
        assert gauge.value == 4
        assert gauge.to_dict()["value"] == 4


class TestLogSpacedBuckets:
    def test_shape_and_spacing(self):
        bounds = log_spaced_buckets(low=1e-3, decades=3, per_decade=1)
        assert bounds == pytest.approx([1e-3, 1e-2, 1e-1, 1.0])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            log_spaced_buckets(low=0.0)
        with pytest.raises(ValueError):
            log_spaced_buckets(decades=0)


class TestHistogram:
    def test_bucketing_is_by_upper_bound(self):
        histogram = Histogram("h", bounds=[1.0, 10.0, 100.0])
        for value in (0.5, 1.0, 5.0, 50.0, 500.0):
            histogram.observe(value)
        # <=1, <=10, <=100, overflow
        assert histogram.bucket_counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(556.5)
        assert histogram.min == 0.5
        assert histogram.max == 500.0
        assert histogram.mean == pytest.approx(556.5 / 5)

    def test_empty_histogram_stats(self):
        histogram = Histogram("h", bounds=[1.0])
        assert math.isnan(histogram.mean)
        snap = histogram.to_dict()
        assert snap["min"] is None and snap["max"] is None

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=[1.0, 1.0])

    def test_default_bounds_are_log_spaced(self):
        histogram = Histogram("h")
        assert histogram.bounds == log_spaced_buckets()


class TestMetricsRegistry:
    def test_instruments_are_memoized_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_collision_across_kinds_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_is_json_shaped_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(2)
        registry.gauge("a.level").set(7)
        registry.histogram("c.h", bounds=[1.0]).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a.level", "b.count", "c.h"]
        assert snapshot["b.count"] == {"type": "counter", "value": 2}
        assert snapshot["c.h"]["bucket_counts"] == [1, 0]

    def test_reset_drops_state(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == {}
        assert registry.counter("a").value == 0


class TestMergeSnapshot:
    """Cross-process folding: worker registries merge into the parent's."""

    def test_counters_add(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("sim.rounds").inc(5)
        worker.counter("sim.rounds").inc(3)
        worker.counter("sim.knockouts").inc(2)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("sim.rounds").value == 8
        assert parent.counter("sim.knockouts").value == 2

    def test_gauges_take_incoming_value(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.gauge("depth").set(1.0)
        worker.gauge("depth").set(4.0)
        parent.merge_snapshot(worker.snapshot())
        assert parent.gauge("depth").value == 4.0

    def test_histograms_merge_bucketwise(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        for value in (0.5, 1.5):
            parent.histogram("h", bounds=[1.0, 2.0]).observe(value)
        for value in (0.1, 5.0):
            worker.histogram("h", bounds=[1.0, 2.0]).observe(value)
        parent.merge_snapshot(worker.snapshot())
        merged = parent.histogram("h")
        assert merged.count == 4
        assert merged.bucket_counts == [2, 1, 1]
        assert merged.sum == pytest.approx(7.1)
        assert merged.min == pytest.approx(0.1)
        assert merged.max == pytest.approx(5.0)

    def test_histogram_merge_into_empty_parent(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        worker.histogram("h").observe(0.25)
        parent.merge_snapshot(worker.snapshot())
        assert parent.histogram("h").count == 1
        assert parent.histogram("h").min == pytest.approx(0.25)

    def test_histogram_bounds_mismatch_rejected(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.histogram("h", bounds=[1.0])
        worker.histogram("h", bounds=[2.0]).observe(1.0)
        with pytest.raises(ValueError, match="bounds differ"):
            parent.merge_snapshot(worker.snapshot())

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown type"):
            MetricsRegistry().merge_snapshot({"x": {"type": "mystery"}})

    def test_missing_type_rejected(self):
        with pytest.raises(ValueError, match="unknown type"):
            MetricsRegistry().merge_snapshot({"x": {"value": 1}})

    def test_empty_snapshot_is_a_no_op(self):
        parent = MetricsRegistry()
        parent.counter("kept").inc(4)
        before = parent.snapshot()
        parent.merge_snapshot({})
        assert parent.snapshot() == before

    def test_unknown_metric_names_auto_create(self):
        # A worker may have recorded instruments the parent never touched
        # (e.g. the parent skipped the instrumented code path entirely) —
        # merging must create them rather than drop or reject them.
        parent, worker = MetricsRegistry(), MetricsRegistry()
        worker.counter("only.in.worker").inc(7)
        worker.gauge("worker.gauge").set(2.5)
        worker.histogram("worker.hist", bounds=[1.0]).observe(0.5)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("only.in.worker").value == 7
        assert parent.gauge("worker.gauge").value == 2.5
        assert parent.histogram("worker.hist").count == 1

    def test_partial_failure_rejects_without_corrupting_merged_prefix(self):
        # Bounds mismatch raises mid-merge; the error must be loud (the
        # session's totals would silently undercount otherwise).
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.histogram("h", bounds=[1.0])
        worker.histogram("h", bounds=[2.0, 3.0]).observe(0.1)
        with pytest.raises(ValueError, match="bounds differ"):
            parent.merge_snapshot(worker.snapshot())
        # The parent's own histogram is untouched by the failed merge.
        assert parent.histogram("h").count == 0

    def test_merge_is_associative_with_serial_recording(self):
        # Splitting observations across two "workers" and merging must
        # equal recording everything in one registry.
        serial, parent = MetricsRegistry(), MetricsRegistry()
        workers = [MetricsRegistry(), MetricsRegistry()]
        observations = [0.01, 0.2, 3.0, 0.5, 0.07, 11.0]
        for index, value in enumerate(observations):
            serial.counter("n").inc()
            serial.histogram("h").observe(value)
            workers[index % 2].counter("n").inc()
            workers[index % 2].histogram("h").observe(value)
        for worker in workers:
            parent.merge_snapshot(worker.snapshot())
        assert parent.snapshot() == serial.snapshot()


class TestGlobalRegistry:
    def test_default_global_is_disabled(self):
        assert get_registry().enabled is False

    def test_set_registry_swaps_and_restores(self):
        mine = MetricsRegistry(enabled=True)
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            assert set_registry(previous) is mine
        assert get_registry() is previous
