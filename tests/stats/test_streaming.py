"""Tests for repro.stats.streaming (Welford accumulators, Chan merge)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StatisticsError
from repro.stats.streaming import (
    MomentColumns,
    SlidingWindowMoments,
    StreamingMoments,
)
from repro.stats.vectorized import batch_pairwise_tests

values_strategy = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
              allow_infinity=False),
    min_size=2, max_size=60)


class TestMomentColumns:
    def test_observe_matches_numpy_columns(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(50.0, 4.0, size=(60, 5))
        cols = MomentColumns(5)
        cols.observe(rows[:17])
        cols.observe(rows[17:])
        np.testing.assert_allclose(cols.mean, rows.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(cols.variance(), rows.var(axis=0, ddof=1),
                                   rtol=1e-12)

    def test_single_row_and_shape_checks(self):
        cols = MomentColumns(3)
        cols.observe(np.asarray([1.0, 2.0, 3.0]))  # 1-D row promoted
        assert cols.count == 1
        with pytest.raises(StatisticsError):
            cols.observe(np.zeros((2, 4)))
        with pytest.raises(StatisticsError):
            MomentColumns(0)

    def test_first_batch_adopted_bit_exactly(self):
        rows = np.asarray([[1.0, 10.0], [3.0, 14.0], [8.0, 30.0]])
        cols = MomentColumns(2)
        cols.observe(rows)
        mean = rows.mean(axis=0)
        centered = rows - mean
        m2 = np.einsum("ij,ij->j", centered, centered)
        assert np.array_equal(cols.mean, mean)
        assert np.array_equal(cols.m2, m2)

    def test_merge_column_mismatch(self):
        cols = MomentColumns(2)
        with pytest.raises(StatisticsError):
            cols.merge(MomentColumns(3))

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(3.0, 2.0, size=(2, 40, 3))
        left = MomentColumns(3)
        left.observe(a)
        right = MomentColumns(3)
        right.observe(b)
        left.merge(right)
        both = np.concatenate([a, b])
        assert left.count == both.shape[0]
        np.testing.assert_allclose(left.mean, both.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(left.variance(), both.var(axis=0, ddof=1),
                                   rtol=1e-12)

    def test_merge_with_empty_is_identity(self):
        def state(cols):
            return (cols.count, cols.mean.tolist(), cols.m2.tolist())

        cols = MomentColumns(2)
        cols.observe(np.asarray([[1.0, 4.0], [2.0, 5.0], [3.0, 9.0]]))
        before = state(cols)
        cols.merge(MomentColumns(2))
        assert state(cols) == before
        empty = MomentColumns(2)
        empty.merge(cols)
        assert state(empty) == before

    def test_variance_needs_two(self):
        cols = MomentColumns(1)
        cols.observe(np.asarray([1.0]))
        with pytest.raises(StatisticsError):
            cols.variance()

    @given(values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_property_matches_numpy(self, data):
        arr = np.asarray(data, dtype=np.float64)
        cols = MomentColumns(1)
        cols.observe(arr[:, None])
        assert cols.mean[0] == pytest.approx(arr.mean(), rel=1e-9, abs=1e-6)
        assert cols.variance()[0] == pytest.approx(arr.var(ddof=1),
                                                   rel=1e-9, abs=1e-6)

    def test_catastrophic_cancellation_regime(self):
        # 1e12-scale means with unit-scale deviations: a naive
        # sum-of-squares accumulator loses every significant digit of the
        # variance here (sum(x^2) ~ 1e24; float64 carries ~16 digits).
        # Welford + Chan keep full precision.  Offsets are multiples of
        # 2^-10 so ``1e12 + offset`` is exactly representable and the
        # small-scale variance is exact ground truth.
        # Any float64 two-pass method (numpy's included) carries a ~1e-5
        # relative error against exact truth here, from rounding the
        # 1e12-scale mean itself; the accumulator must stay in that class
        # rather than join the naive accumulator's total collapse.
        rng = np.random.default_rng(10)
        offsets = np.round(rng.normal(0.0, 1.0, size=500) * 1024) / 1024
        values = 1e12 + offsets
        truth = offsets.var(ddof=1)

        cols = MomentColumns(1)
        cols.observe(values[:250, None])
        other = MomentColumns(1)
        other.observe(values[250:, None])
        cols.merge(other)
        variance = cols.variance()[0]
        assert variance == pytest.approx(truth, rel=1e-4)
        assert variance == pytest.approx(values.var(ddof=1), rel=1e-4)

        # The accumulator this module exists to replace: variance from
        # running (sum, sum of squares) loses *every* digit in the same
        # regime — here it rounds all the way to zero.
        count = values.size
        naive = ((values ** 2).sum() - count * values.mean() ** 2) / (count - 1)
        assert abs(naive / truth - 1.0) > 1e-1


class TestStreamingMoments:
    def _filled(self, rng, categories=3, columns=4, samples=30):
        moments = StreamingMoments(columns)
        data = {}
        for category in range(categories):
            rows = rng.normal(100.0 * (category + 1), 7.0,
                              size=(samples, columns))
            data[category] = rows
            moments.observe(category, rows)
        return moments, data

    def test_counts_and_categories(self):
        moments, data = self._filled(np.random.default_rng(12))
        assert moments.categories == [0, 1, 2]
        assert all(moments.count(c) == 30 for c in range(3))
        assert moments.count(99) == 0

    def test_merge_partition_invariance(self):
        # Any shard partition agrees with single-stream accumulation to
        # roundoff; identical partitions agree bitwise.
        rng = np.random.default_rng(13)
        rows = rng.normal(1000.0, 20.0, size=(100, 4))
        whole = StreamingMoments(4)
        whole.observe(0, rows)
        for cut in (1, 13, 50, 99):
            left = StreamingMoments(4)
            left.observe(0, rows[:cut])
            right = StreamingMoments(4)
            right.observe(0, rows[cut:])
            left.merge(right)
            assert left.count(0) == 100
            np.testing.assert_allclose(
                left.state()["cat0/mean"], whole.state()["cat0/mean"],
                rtol=1e-12)
            np.testing.assert_allclose(
                left.state()["cat0/m2"], whole.state()["cat0/m2"],
                rtol=1e-9)

    def test_same_partition_merge_is_bitwise_deterministic(self):
        rng = np.random.default_rng(14)
        shards = [rng.normal(5.0, 1.0, size=(10, 3)) for _ in range(4)]
        runs = []
        for _ in range(2):
            merged = StreamingMoments(3)
            for shard_rows in shards:
                shard = StreamingMoments(3)
                shard.observe(0, shard_rows)
                merged.merge(shard)
            runs.append(merged.state())
        for key in runs[0]:
            assert np.array_equal(runs[0][key], runs[1][key]), key

    def test_state_round_trip_bit_exact(self):
        moments, _ = self._filled(np.random.default_rng(15))
        state = moments.state()
        clone = StreamingMoments.from_state(state)
        assert clone.columns == moments.columns
        clone_state = clone.state()
        assert set(clone_state) == set(state)
        for key in state:
            assert np.array_equal(clone_state[key], state[key]), key

    def test_from_state_validation(self):
        with pytest.raises(StatisticsError):
            StreamingMoments.from_state({})
        with pytest.raises(StatisticsError):
            StreamingMoments.from_state(
                {"cat0/count": np.asarray([3])}, columns=2)
        bad = {"cat0/count": np.asarray([-1]),
               "cat0/mean": np.zeros(2), "cat0/m2": np.zeros(2)}
        with pytest.raises(StatisticsError):
            StreamingMoments.from_state(bad)

    def test_sufficient_stats_feed_pairwise_tests(self):
        rng = np.random.default_rng(16)
        moments, data = self._filled(rng)
        events = ("e0", "e1", "e2", "e3")
        stats = moments.to_sufficient_stats(events)
        arrays = batch_pairwise_tests(stats, method="welch")
        # Against numpy-on-raw-samples ground truth for pair (0, 1).
        for column in range(4):
            a = data[0][:, column]
            b = data[1][:, column]
            va, vb = a.var(ddof=1), b.var(ddof=1)
            t = (a.mean() - b.mean()) / np.sqrt(va / a.size + vb / b.size)
            assert arrays.statistic[0, column] == pytest.approx(t, rel=1e-9)

    def test_sufficient_stats_needs_two_observations(self):
        moments = StreamingMoments(2)
        moments.observe(0, np.zeros((1, 2)))
        with pytest.raises(StatisticsError):
            moments.to_sufficient_stats(("a", "b"))
        with pytest.raises(StatisticsError):
            StreamingMoments(2).to_sufficient_stats(("a", "b"))

    def test_sufficient_stats_label_count_checked(self):
        moments, _ = self._filled(np.random.default_rng(17))
        with pytest.raises(StatisticsError):
            moments.to_sufficient_stats(("only", "three", "labels"))

    def test_memory_is_flat_in_sample_count(self):
        small = StreamingMoments(6)
        big = StreamingMoments(6)
        rng = np.random.default_rng(18)
        small.observe(0, rng.normal(size=(10, 6)))
        big.observe(0, rng.normal(size=(5000, 6)))
        assert big.memory_bytes() == small.memory_bytes()


class TestSlidingWindowMoments:
    def test_eviction_keeps_last_capacity_rows(self):
        window = SlidingWindowMoments(capacity=5, columns=2)
        rows = np.arange(16, dtype=np.float64).reshape(8, 2)
        window.observe(rows[:3])
        window.observe(rows[3:])
        assert window.count == 5
        assert window.total_seen == 8
        np.testing.assert_array_equal(window.window(), rows[-5:])
        np.testing.assert_allclose(window.mean(), rows[-5:].mean(axis=0))
        np.testing.assert_allclose(window.variance(),
                                   rows[-5:].var(axis=0, ddof=1))

    def test_oversized_batch_overwrites_window(self):
        window = SlidingWindowMoments(capacity=3, columns=1)
        window.observe(np.arange(10, dtype=np.float64)[:, None])
        np.testing.assert_array_equal(window.window().ravel(),
                                      [7.0, 8.0, 9.0])

    def test_drift_z_scores(self):
        baseline = MomentColumns(2)
        rng = np.random.default_rng(19)
        baseline.observe(rng.normal(100.0, 4.0, size=(500, 2)))
        window = SlidingWindowMoments(capacity=25, columns=2)
        window.observe(rng.normal([100.0, 140.0], 4.0, size=(25, 2)))
        z = window.drift_z_scores(baseline)
        assert abs(z[0]) < 5.0       # undrifted column stays near zero
        assert z[1] > 10.0           # 10-sigma mean shift is unmissable

    def test_validation(self):
        with pytest.raises(StatisticsError):
            SlidingWindowMoments(capacity=1, columns=2)
        window = SlidingWindowMoments(capacity=4, columns=2)
        with pytest.raises(StatisticsError):
            window.mean()
        with pytest.raises(StatisticsError):
            window.observe(np.zeros((2, 3)))
        with pytest.raises(StatisticsError):
            window.drift_z_scores(MomentColumns(3))
