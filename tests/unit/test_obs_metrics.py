"""Unit tests for the metrics registry and the perf counters it pulls."""

from repro.core.perf import PerfCounters
from repro.obs import Gauge, Histogram, MetricsRegistry


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert int(gauge) == 4


class TestHistogram:
    def test_summary_percentiles(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["sum"] == 5050
        assert summary["p50"] == 50.5
        assert abs(summary["p95"] - 95.05) < 1e-6
        assert summary["max"] == 100

    def test_empty_summary_is_zeroes(self):
        summary = Histogram("h").summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_sample_cap_drops_oldest_half(self, monkeypatch):
        monkeypatch.setattr(Histogram, "MAX_SAMPLES", 10)
        histogram = Histogram("h")
        for value in range(20):
            histogram.observe(value)
        assert histogram.count == 20  # count and sum stay exact
        assert len(histogram._samples) <= 10
        assert min(histogram._samples) >= 5  # old half evicted


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_flattens_histograms(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(7)
        registry.histogram("lat").observe(2.0)
        snapshot = registry.snapshot()
        assert snapshot["hits"] == 3
        assert snapshot["depth"] == 7
        assert snapshot["lat.count"] == 1
        assert snapshot["lat.p50"] == 2.0

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("perf.index_lookups").inc(4)
        registry.gauge("queue.depth").set(2)
        registry.histogram("sim.sojourn").observe(1.5)
        text = registry.to_prometheus()
        assert "# TYPE repro_perf_index_lookups counter" in text
        assert "repro_perf_index_lookups 4" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert 'repro_sim_sojourn{quantile="0.95"} 1.5' in text
        assert "repro_sim_sojourn_count 1" in text
        assert text.endswith("\n")


class TestPerfFacade:
    def test_perf_counters_back_onto_a_registry(self):
        registry = MetricsRegistry()
        perf = PerfCounters()
        registry.add_source(lambda: {"perf": perf.snapshot()})
        perf.index_lookups += 2
        perf.graph_events += 1
        # Pulled at export time, not pushed on the hot path.
        assert registry.snapshot()["perf.index_lookups"] == 2
        assert "repro_perf_graph_events 1" in registry.to_prometheus()
        snapshot = perf.snapshot()
        assert snapshot["index_lookups"] == 2
        assert snapshot["graph_events"] == 1
        assert isinstance(snapshot["index_lookups"], int)

    def test_snapshot_layout_unchanged(self):
        snapshot = PerfCounters().snapshot()
        for key in (
            "index_lookups",
            "edge_updates",
            "graph_events",
            "graph_rebuilds",
            "topo_shifts",
            "topo_recomputes",
            "cycle_fast_path",
            "cycle_dfs",
            "certified_prefixes",
            "certify_ms",
        ):
            assert key in snapshot

    def test_extra_entries_merge_into_snapshot(self):
        perf = PerfCounters()
        perf.extra["conflict_cache_hits"] = 9
        assert perf.snapshot()["conflict_cache_hits"] == 9


class TestWindowedCounter:
    def test_eviction_keeps_only_the_horizon(self):
        from repro.obs import WindowedCounter

        counter = WindowedCounter("c", width=1.0, windows=3)
        for tick in range(10):
            counter.inc(float(tick))
        assert counter.total(9.0) == 3  # windows 7, 8, 9
        assert counter.lifetime == 10


class TestWindowedHistogram:
    def test_summary_reflects_only_retained_windows(self):
        from repro.obs import WindowedHistogram

        histogram = WindowedHistogram("h", width=1.0, windows=2)
        histogram.observe(0.0, 100.0)  # will roll off
        histogram.observe(5.0, 1.0)
        histogram.observe(5.5, 2.0)
        summary = histogram.summary(5.5)
        assert summary["count"] == 2
        assert summary["max"] == 2.0
        assert histogram.lifetime_count == 3

    def test_reservoir_is_bounded_and_deterministic(self, monkeypatch):
        from repro.obs import WindowedHistogram

        monkeypatch.setattr(WindowedHistogram, "CAP_PER_WINDOW", 8)
        histogram = WindowedHistogram("h", width=10.0, windows=1)
        for index in range(10_000):
            histogram.observe(0.5, float(index))
        reservoir = next(iter(histogram._ring.values()))
        assert len(reservoir.samples) <= 8
        assert reservoir.count == 10_000
        # deterministic: a second identical stream yields the same sample
        clone = WindowedHistogram("h", width=10.0, windows=1)
        for index in range(10_000):
            clone.observe(0.5, float(index))
        assert next(iter(clone._ring.values())).samples == reservoir.samples
