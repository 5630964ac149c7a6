"""Tests for repro.stats.streaming (Welford accumulators, Chan merge).

The Chan merge is exercised where it runs: ``observe_round`` folds each
round's batch moments into the accumulated state, so a stream split into
rounds is a sequence of merges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StatisticsError
from repro.stats.streaming import SlidingWindowMoments, StreamingMoments
from repro.stats.vectorized import batch_pairwise_tests

values_strategy = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
              allow_infinity=False),
    min_size=2, max_size=60)


def _reference_fold(state, rows):
    """One category's Welford/Chan fold of a ``(B, E)`` batch, verbatim."""
    b_count = rows.shape[0]
    b_mean = rows.mean(axis=0)
    centered = rows - b_mean
    b_m2 = np.einsum("ij,ij->j", centered, centered)
    if state is None:
        return b_count, b_mean, b_m2
    count, mean, m2 = state
    total = count + b_count
    delta = b_mean - mean
    return (total, mean + delta * (b_count / total),
            m2 + b_m2 + delta * delta * (count * b_count / total))


def _split_fold(rows, cuts, columns):
    """Fold ``rows`` of category 0 round by round, split at ``cuts``."""
    moments = StreamingMoments(columns)
    bounds = [0, *cuts, rows.shape[0]]
    for lo, hi in zip(bounds, bounds[1:]):
        moments.observe_round({0: rows[lo:hi]})
    return moments


def _column_state(moments, category=0):
    return (moments.count(category),
            moments.state()[f"cat{category}/mean"].tolist(),
            moments.state()[f"cat{category}/m2"].tolist())


class TestMomentColumns:
    """One category's row of event columns inside :class:`StreamingMoments`."""

    def test_observe_matches_numpy_columns(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(50.0, 4.0, size=(60, 5))
        cols = StreamingMoments(5)
        cols.observe(0, rows[:17])
        cols.observe(0, rows[17:])
        np.testing.assert_allclose(cols.mean[0], rows.mean(axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(cols.variance()[0],
                                   rows.var(axis=0, ddof=1), rtol=1e-12)

    def test_single_row_and_shape_checks(self):
        cols = StreamingMoments(3)
        cols.observe(0, np.asarray([1.0, 2.0, 3.0]))  # 1-D row promoted
        assert cols.count(0) == 1
        with pytest.raises(StatisticsError):
            cols.observe(0, np.zeros((2, 4)))
        with pytest.raises(StatisticsError):
            StreamingMoments(0)

    def test_first_batch_adopted_bit_exactly(self):
        rows = np.asarray([[1.0, 10.0], [3.0, 14.0], [8.0, 30.0]])
        cols = StreamingMoments(2)
        cols.observe(0, rows)
        mean = rows.mean(axis=0)
        centered = rows - mean
        m2 = np.einsum("ij,ij->j", centered, centered)
        assert np.array_equal(cols.mean[0], mean)
        assert np.array_equal(cols.m2[0], m2)

    def test_merge_column_mismatch(self):
        # A round with one batch of the wrong width is rejected whole,
        # before any lane is touched.
        cols = StreamingMoments(2)
        cols.observe(0, np.ones((2, 2)))
        before = _column_state(cols)
        with pytest.raises(StatisticsError):
            cols.observe_round({0: np.ones((2, 2)), 1: np.ones((2, 3))})
        assert _column_state(cols) == before
        assert cols.categories == [0]

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(3.0, 2.0, size=(2, 40, 3))
        both = np.concatenate([a, b])
        merged = _split_fold(both, [40], 3)
        assert merged.count(0) == both.shape[0]
        np.testing.assert_allclose(merged.mean[0], both.mean(axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(merged.variance()[0],
                                   both.var(axis=0, ddof=1), rtol=1e-12)

    def test_merge_with_empty_is_identity(self):
        rows = np.asarray([[1.0, 4.0], [2.0, 5.0], [3.0, 9.0]])
        cols = StreamingMoments(2)
        cols.observe(0, rows)
        before = _column_state(cols)
        cols.observe_round({0: np.zeros((0, 2))})  # category seen, no rows
        assert _column_state(cols) == before
        cols.observe_round({})
        assert _column_state(cols) == before
        # An empty lane adopts its first batch bit for bit.
        empty = StreamingMoments(2)
        empty.observe_round({0: np.zeros((0, 2))})
        empty.observe_round({0: rows})
        assert _column_state(empty) == before

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False, allow_infinity=False),
                    min_size=3, max_size=60),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_split_stream_matches_numpy(self, data, draw):
        arr = np.asarray(data, dtype=np.float64)
        cut = draw.draw(st.integers(min_value=1, max_value=arr.size - 1))
        merged = _split_fold(arr[:, None], [cut], 1)
        assert merged.count(0) == arr.size
        assert merged.mean[0, 0] == pytest.approx(arr.mean(), rel=1e-9,
                                                  abs=1e-6)
        assert merged.variance()[0, 0] == pytest.approx(
            arr.var(ddof=1), rel=1e-9, abs=1e-6)

    def test_variance_needs_two(self):
        cols = StreamingMoments(1)
        cols.observe(0, np.asarray([1.0]))
        with pytest.raises(StatisticsError):
            cols.variance()

    @given(values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_property_matches_numpy(self, data):
        arr = np.asarray(data, dtype=np.float64)
        cols = StreamingMoments(1)
        cols.observe(0, arr[:, None])
        assert cols.mean[0, 0] == pytest.approx(arr.mean(), rel=1e-9,
                                                abs=1e-6)
        assert cols.variance()[0, 0] == pytest.approx(arr.var(ddof=1),
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

        cols = _split_fold(values[:, None], [250], 1)
        variance = cols.variance()[0, 0]
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
        # Any round partition agrees with single-batch accumulation to
        # roundoff; identical partitions agree bitwise.
        rng = np.random.default_rng(13)
        rows = rng.normal(1000.0, 20.0, size=(100, 4))
        whole = StreamingMoments(4)
        whole.observe(0, rows)
        for cut in (1, 13, 50, 99):
            left = _split_fold(rows, [cut], 4)
            assert left.count(0) == 100
            np.testing.assert_allclose(
                left.state()["cat0/mean"], whole.state()["cat0/mean"],
                rtol=1e-12)
            np.testing.assert_allclose(
                left.state()["cat0/m2"], whole.state()["cat0/m2"],
                rtol=1e-9)

    def test_same_partition_merge_is_bitwise_deterministic(self):
        rng = np.random.default_rng(14)
        rows = rng.normal(5.0, 1.0, size=(40, 3))
        runs = [_split_fold(rows, [10, 20, 30], 3).state() for _ in range(2)]
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

    @pytest.mark.parametrize("lengths", [(5, 5, 5, 5), (1, 7, 7, 30)])
    def test_stacked_fold_matches_per_category_reference(self, lengths):
        # One observe_round per round must leave every category exactly
        # where the one-category-at-a-time Welford/Chan fold leaves it.
        rng = np.random.default_rng(20)
        stacked = StreamingMoments(3)
        reference = {}
        for round_index in range(6):
            batches = {c: rng.normal(1e5 + 50.0 * c, 30.0, size=(n, 3))
                       for c, n in enumerate(lengths)}
            if round_index == 0:
                del batches[3]  # a category that first appears later
            stacked.observe_round(batches)
            for category in sorted(batches):
                reference[category] = _reference_fold(
                    reference.get(category), batches[category])
        state = stacked.state()
        assert stacked.categories == sorted(reference)
        for category, (count, mean, m2) in reference.items():
            assert int(state[f"cat{category}/count"][0]) == count
            assert np.array_equal(state[f"cat{category}/mean"], mean)
            assert np.array_equal(state[f"cat{category}/m2"], m2)

    def test_old_checkpoint_layout_restores(self):
        # ``cat<k>/count|mean|m2`` arrays as earlier releases wrote them,
        # one (count, mean, m2) row per category, including a category
        # registered without samples.
        arrays = {
            "cat3/count": np.asarray([4], dtype=np.int64),
            "cat3/mean": np.asarray([1.5, 2.5]),
            "cat3/m2": np.asarray([3.0, 4.0]),
            "cat1/count": np.asarray([0], dtype=np.int64),
            "cat1/mean": np.zeros(2),
            "cat1/m2": np.zeros(2),
            "meta/ticks": np.asarray([7], dtype=np.int64),
        }
        moments = StreamingMoments.from_state(arrays)
        assert moments.categories == [1, 3]
        assert moments.count(3) == 4 and moments.count(1) == 0
        assert np.array_equal(moments.mean, [[0.0, 0.0], [1.5, 2.5]])
        state = moments.state()
        assert set(state) == {k for k in arrays if k.startswith("cat")}
        for key, value in state.items():
            assert np.array_equal(value, arrays[key]), key
        # The empty category adopts its first batch bit for bit.
        rows = np.asarray([[1.0, 2.0], [4.0, 8.0]])
        moments.observe(1, rows)
        assert np.array_equal(moments.mean[0], rows.mean(axis=0))

    def test_state_arrays_are_read_only_snapshots(self):
        moments, _ = self._filled(np.random.default_rng(21))
        before = moments.mean
        with pytest.raises(ValueError):
            before[0, 0] = 1.0
        moments.observe(0, np.ones((2, 4)))
        assert not np.array_equal(before, moments.mean)

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
        window.observe(0, rows[:3])
        window.observe(0, rows[3:])
        assert window.count(0) == 5
        assert window.total_seen(0) == 8
        np.testing.assert_array_equal(window.window(0), rows[-5:])
        np.testing.assert_allclose(window.mean()[0], rows[-5:].mean(axis=0))

    def test_oversized_batch_overwrites_window(self):
        window = SlidingWindowMoments(capacity=3, columns=1)
        window.observe(0, np.arange(10, dtype=np.float64)[:, None])
        np.testing.assert_array_equal(window.window(0).ravel(),
                                      [7.0, 8.0, 9.0])

    def test_drift_z_scores(self):
        baseline = StreamingMoments(2)
        rng = np.random.default_rng(19)
        baseline.observe(0, rng.normal(100.0, 4.0, size=(500, 2)))
        window = SlidingWindowMoments(capacity=25, columns=2)
        window.observe(0, rng.normal([100.0, 140.0], 4.0, size=(25, 2)))
        usable, z = window.drift_z_scores(baseline)
        assert usable.tolist() == [True]
        assert abs(z[0, 0]) < 5.0    # undrifted column stays near zero
        assert z[0, 1] > 10.0        # 10-sigma mean shift is unmissable

    def test_validation(self):
        with pytest.raises(StatisticsError):
            SlidingWindowMoments(capacity=1, columns=2)
        window = SlidingWindowMoments(capacity=4, columns=2)
        with pytest.raises(StatisticsError):
            window.window(0)
        with pytest.raises(StatisticsError):
            window.observe(0, np.zeros((2, 3)))
        with pytest.raises(StatisticsError):
            window.drift_z_scores(StreamingMoments(3))
