"""Unit tests for reuse-distance computation."""

import numpy as np
import pytest

from repro.metrics.reuse_distance import (
    COLD,
    fraction_within,
    per_pid_distances,
    reuse_cdf,
    reuse_distances,
)


def keys(*vpns, pid=1):
    return [(pid, v) for v in vpns]


class TestReuseDistances:
    def test_first_access_is_cold(self):
        distances = reuse_distances(keys(1, 2, 3))
        assert distances.tolist() == [COLD, COLD, COLD]

    def test_immediate_reuse_distance_zero(self):
        distances = reuse_distances(keys(1, 1))
        assert distances.tolist() == [COLD, 0]

    def test_unique_keys_between(self):
        # a b c a: two distinct keys (b, c) between the two a's.
        distances = reuse_distances(keys(1, 2, 3, 1))
        assert distances[3] == 2

    def test_repeated_key_counts_once(self):
        # a b b b a: only one distinct key between the a's.
        distances = reuse_distances(keys(1, 2, 2, 2, 1))
        assert distances[4] == 1

    def test_classic_stack_distance_example(self):
        # Sequence: a b c b a -> distances: -, -, -, 1 (c), 2 (b, c)
        distances = reuse_distances(keys(1, 2, 3, 2, 1))
        assert distances.tolist() == [COLD, COLD, COLD, 1, 2]

    def test_pid_distinguishes_keys(self):
        stream = [(1, 5), (2, 5), (1, 5)]
        distances = reuse_distances(stream)
        # (2,5) is a different translation: distance for the second (1,5)
        # counts it as one distinct key in between.
        assert distances.tolist() == [COLD, COLD, 1]

    def test_empty_stream(self):
        assert len(reuse_distances([])) == 0

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(3)
        stream = [(1, int(v)) for v in rng.integers(0, 30, 300)]
        fast = reuse_distances(stream)
        last = {}
        for i, key in enumerate(stream):
            if key in last:
                expected = len(set(stream[last[key] + 1 : i]))
                assert fast[i] == expected, i
            else:
                assert fast[i] == COLD
            last[key] = i


class TestCDF:
    def test_cdf_monotone(self):
        rng = np.random.default_rng(1)
        stream = [(1, int(v)) for v in rng.integers(0, 200, 2000)]
        cdf = reuse_cdf(reuse_distances(stream))
        fracs = [f for _, f in cdf]
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)

    def test_cdf_empty(self):
        assert all(f == 0.0 for _, f in reuse_cdf(reuse_distances([])))

    def test_custom_points(self):
        stream = keys(1, 1, 2, 2)
        cdf = reuse_cdf(reuse_distances(stream), points=[0, 10])
        assert cdf[0] == (0, 1.0)


class TestFractionWithin:
    def test_all_within_large_capacity(self):
        stream = keys(1, 2, 1, 2)
        assert fraction_within(reuse_distances(stream), 4096) == 1.0

    def test_none_when_no_reuses(self):
        assert fraction_within(reuse_distances(keys(1, 2, 3)), 10) == 0.0

    def test_partial(self):
        # distances: 0 (1->1) and 3 (2 ... 2 across {1,3,4}).
        stream = keys(2, 1, 1, 3, 4, 2)
        distances = reuse_distances(stream)
        assert fraction_within(distances, 1) == pytest.approx(0.5)

    def test_distance_equal_to_capacity_is_missed(self):
        # A B A: the reuse of A has distance 1, and a 1-entry LRU has
        # already evicted A for B.
        distances = reuse_distances(keys(1, 2, 1))
        assert distances.tolist() == [COLD, COLD, 1]
        assert fraction_within(distances, 1) == 0.0

    @pytest.mark.parametrize("capacity", [1, 2, 3, 8])
    def test_boundary(self, capacity):
        # One reuse at distance capacity - 1, one at distance capacity.
        near = keys(0, *range(1, capacity), 0)
        far = keys(100, *range(101, 101 + capacity), 100)
        distances = reuse_distances(near + far)
        assert sorted(distances[distances >= 0].tolist()) == [capacity - 1, capacity]
        assert fraction_within(distances, capacity) == pytest.approx(0.5)


class TestPerPid:
    def test_split_by_pid_keeps_interleaved_distances(self):
        # pid 1 reuses page 0 with pid 2's pages in between.
        stream = [(1, 0), (2, 10), (2, 11), (1, 0)]
        by_pid = per_pid_distances(stream)
        assert by_pid[1].tolist() == [COLD, 2]
        assert by_pid[2].tolist() == [COLD, COLD]
