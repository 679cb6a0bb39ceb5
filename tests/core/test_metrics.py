"""Measurement helpers."""

import time

import pytest

from repro.core.metrics import Timer, fps_estimate, human_bytes, percentile, size_report


class TestHumanBytes:
    def test_units(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(5 * 1024**3) == "5 GB"
        assert human_bytes(26 * 1024**4) == "26 TB"

    def test_paper_numbers(self):
        """The paper's own arithmetic renders recognizably."""
        assert "GB" in human_bytes(100_000_000 * 48)   # 100 M particles
        assert "TB" in human_bytes(326_700 * 80e6)     # 12-cell run


class TestSizeReport:
    def test_fields(self):
        r = size_report(1000, 40, label="x")
        assert r["reduction_factor"] == pytest.approx(25.0)
        assert r["label"] == "x"

    def test_zero_reduced_safe(self):
        r = size_report(100, 0)
        assert r["reduction_factor"] == 100.0


class TestTiming:
    def test_fps_estimate(self):
        fps = fps_estimate(lambda: time.sleep(0.01), repeats=2)
        assert 10 < fps < 110

    def test_timer(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.seconds >= 0.009


class TestPercentile:
    """Nearest rank: ``sorted[min(int(q * n), n - 1)]``, 0.0 when empty --
    the one formula behind the service's STATS and the fleet report."""

    def test_empty(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert percentile([], q) == 0.0

    def test_one_sample(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert percentile([0.25], q) == 0.25

    def test_hundred_samples(self):
        values = [i / 100 for i in range(100)]
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 0.5) == 0.5
        assert percentile(values, 0.505) == 0.5
        assert percentile(values, 0.99) == 0.99
        assert percentile(values, 1.0) == 0.99
        assert type(percentile(values, 0.5)) is float

    def test_fleet_report_summary(self):
        from repro.remote.loadgen import FleetReport

        values = [i / 100 for i in range(100)]
        report = FleetReport(latencies=values[::-1])
        summary = report.summary()
        assert (summary["p50_s"], summary["p99_s"]) == (0.5, 0.99)
        assert FleetReport().summary()["p99_s"] == 0.0
