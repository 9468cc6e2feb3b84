"""Unit tests for run metrics and statistics helpers."""

import pytest

from repro.sim.metrics import RunMetrics, percentile, summarize


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_median_of_odd_sample(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0


class TestSummarize:
    def test_empty_sample(self):
        assert summarize([]) == {"mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}

    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["mean"] == 2.0
        assert summary["p50"] == 2.0
        assert summary["max"] == 3.0


class TestRunMetrics:
    def test_latencies_from_spans(self):
        metrics = RunMetrics("pred")
        metrics.process_spans = {"P1": (0.0, 4.0), "P2": (1.0, 3.0)}
        assert sorted(metrics.latencies) == [2.0, 4.0]

    def test_throughput(self):
        metrics = RunMetrics("pred", makespan=10.0, processes_committed=5)
        assert metrics.throughput == 0.5

    def test_throughput_zero_makespan(self):
        assert RunMetrics("pred").throughput == 0.0

    def test_row_shape(self):
        metrics = RunMetrics("serial", makespan=2.0, processes_committed=1)
        metrics.process_spans = {"P1": (0.0, 2.0)}
        row = metrics.row()
        assert row["scheduler"] == "serial"
        assert row["makespan"] == 2.0
        assert row["latency_mean"] == 2.0
        assert row["committed"] == 1


class TestOverloadMetrics:
    def make(self):
        metrics = RunMetrics("pred", makespan=10.0, processes_committed=4)
        metrics.processes_offered = 10
        metrics.processes_rejected = 3
        metrics.processes_shed = 2
        metrics.starvation_boosts = 1
        metrics.livelock_escalations = 1
        metrics.queue_depth_series = [(0.0, 0), (1.0, 3), (2.0, 1)]
        return metrics

    def test_goodput_aliases_throughput(self):
        metrics = self.make()
        assert metrics.goodput == metrics.throughput == 0.4

    def test_shed_and_reject_rates(self):
        metrics = self.make()
        assert metrics.shed_rate == 0.2
        assert metrics.reject_rate == 0.3
        assert RunMetrics("pred").shed_rate == 0.0
        assert RunMetrics("pred").reject_rate == 0.0

    def test_peak_queue_depth(self):
        assert self.make().peak_queue_depth == 3
        assert RunMetrics("pred").peak_queue_depth == 0
