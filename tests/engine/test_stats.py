"""Unit tests for the statistics containers."""

import pytest

from repro.engine.stats import CounterSet, LatencyAccumulator


class TestCounterSet:
    def test_missing_counter_reads_zero(self):
        stats = CounterSet()
        assert stats["nothing"] == 0

    def test_inc_and_read(self):
        stats = CounterSet()
        stats.inc("hits")
        stats.inc("hits", 4)
        assert stats["hits"] == 5

    def test_negative_increment(self):
        stats = CounterSet()
        stats.inc("x", 3)
        stats.inc("x", -1)
        assert stats["x"] == 2

    def test_setitem(self):
        stats = CounterSet()
        stats["y"] = 10
        assert stats["y"] == 10

    def test_contains_and_iter(self):
        stats = CounterSet()
        stats.inc("a")
        stats.inc("b")
        assert "a" in stats
        assert "c" not in stats
        assert sorted(stats) == ["a", "b"]

    def test_as_dict_is_snapshot(self):
        stats = CounterSet()
        stats.inc("a")
        snapshot = stats.as_dict()
        stats.inc("a")
        assert snapshot == {"a": 1}
        assert stats["a"] == 2


class TestLatencyAccumulator:
    def test_empty_mean_is_zero(self):
        acc = LatencyAccumulator()
        assert acc.mean == 0.0
        assert acc.count == 0

    def test_record_and_mean(self):
        acc = LatencyAccumulator()
        for value in (10, 20, 30):
            acc.record(value)
        assert acc.count == 3
        assert acc.mean == pytest.approx(20.0)
        assert acc.max == 30

    def test_negative_latency_rejected(self):
        acc = LatencyAccumulator()
        with pytest.raises(ValueError):
            acc.record(-1)

    def test_min_tracking(self):
        acc = LatencyAccumulator()
        for value in (30, 10, 20):
            acc.record(value)
        assert acc.min == 10
        acc.record(5)
        assert acc.min == 5

    def test_min_of_empty_is_zero(self):
        assert LatencyAccumulator().min == 0

    def test_zero_sample_sets_min(self):
        acc = LatencyAccumulator()
        acc.record(7)
        acc.record(0)
        assert acc.min == 0
