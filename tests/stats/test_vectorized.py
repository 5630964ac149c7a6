"""Tests for repro.stats.vectorized (batched t-tests on the fast path)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StatisticsError
from repro.hpc import EventDistributions
from repro.stats import (
    SufficientStats,
    batch_pairwise_tests,
    cohens_d,
    regularized_incomplete_beta,
    regularized_incomplete_beta_array,
    student_t_test,
    two_sided_p_values,
    welch_t_test,
)
from repro.stats.distributions import StudentT
from repro.stats.special import (
    _CF_EPSILON,
    _CF_FPMIN,
    _LANCZOS_COEFFS,
    _LANCZOS_G,
    _MAX_CF_ITERATIONS,
)
from repro.stats.vectorized import _beta_continued_fraction_array
from repro.uarch import ALL_EVENTS, HpcEvent

TOL = 1e-12


# ----------------------------------------------------------------------
# Frozen references: the one-call-per-operation continued fraction and
# p-value path, kept verbatim so the fused kernels can be held to them
# bit for bit.
# ----------------------------------------------------------------------

def _reference_log_gamma(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.float64)
    reflect = x < 0.5
    if reflect.any():
        xr = x[reflect]
        out[reflect] = (np.log(np.pi / np.abs(np.sin(np.pi * xr)))
                        - _reference_log_gamma(1.0 - xr))
    direct = ~reflect
    if direct.any():
        xd = x[direct] - 1.0
        series = np.full(xd.shape, _LANCZOS_COEFFS[0])
        for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
            series += coeff / (xd + i)
        t = xd + _LANCZOS_G + 0.5
        out[direct] = (0.5 * np.log(2.0 * np.pi) + (xd + 0.5) * np.log(t)
                       - t + np.log(series))
    return out


def _reference_continued_fraction(a, b, x):
    a = a.ravel().copy()
    b = b.ravel().copy()
    x = x.ravel().copy()
    out = np.empty(x.shape, dtype=np.float64)
    lanes = np.arange(x.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _CF_FPMIN, _CF_FPMIN, d)
    d = 1.0 / d
    h = d.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for m in range(1, _MAX_CF_ITERATIONS + 1):
            m2 = 2 * m
            am2 = a + m2
            aa = m * (b - m) * x / ((qam + m2) * am2)
            d = 1.0 + aa * d
            d = np.where(np.abs(d) < _CF_FPMIN, _CF_FPMIN, d)
            c = 1.0 + aa / c
            c = np.where(np.abs(c) < _CF_FPMIN, _CF_FPMIN, c)
            d = 1.0 / d
            h = h * (d * c)
            aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
            d = 1.0 + aa * d
            d = np.where(np.abs(d) < _CF_FPMIN, _CF_FPMIN, d)
            c = 1.0 + aa / c
            c = np.where(np.abs(c) < _CF_FPMIN, _CF_FPMIN, c)
            d = 1.0 / d
            delta = d * c
            h = h * delta
            converged = np.abs(delta - 1.0) < _CF_EPSILON
            if converged.any():
                out[lanes[converged]] = h[converged]
                if converged.all():
                    return out
                keep = ~converged
                lanes = lanes[keep]
                a, b, x = a[keep], b[keep], x[keep]
                qab, qap, qam = qab[keep], qap[keep], qam[keep]
                c, d, h = c[keep], d[keep], h[keep]
    raise StatisticsError("did not converge")


def _reference_incomplete_beta(a, b, x):
    a, b, x = np.broadcast_arrays(np.asarray(a, dtype=np.float64),
                                  np.asarray(b, dtype=np.float64),
                                  np.asarray(x, dtype=np.float64))
    out = np.empty(x.shape, dtype=np.float64)
    flat_a, flat_b, flat_x = a.ravel(), b.ravel(), x.ravel()
    flat_out = out.ravel()
    at_zero = flat_x == 0.0
    at_one = flat_x == 1.0
    flat_out[at_zero] = 0.0
    flat_out[at_one] = 1.0
    interior = ~(at_zero | at_one)
    if interior.any():
        ai, bi, xi = flat_a[interior], flat_b[interior], flat_x[interior]
        log_b = (_reference_log_gamma(ai) + _reference_log_gamma(bi)
                 - _reference_log_gamma(ai + bi))
        front = np.exp(ai * np.log(xi) + bi * np.log(1.0 - xi) - log_b)
        direct = xi < (ai + 1.0) / (ai + bi + 2.0)
        cf_a = np.where(direct, ai, bi)
        cf_b = np.where(direct, bi, ai)
        cf_x = np.where(direct, xi, 1.0 - xi)
        tail = (front * _reference_continued_fraction(cf_a, cf_b, cf_x)
                / cf_a)
        flat_out[interior] = np.where(direct, tail, 1.0 - tail)
    return flat_out.reshape(x.shape)


def _reference_two_sided_p_values(t, df):
    t = np.asarray(t, dtype=np.float64)
    df = np.asarray(df, dtype=np.float64)
    p = np.ones(np.broadcast(t, df).shape, dtype=np.float64)
    nonzero = (t != 0.0) & np.isfinite(t)
    if nonzero.any():
        tz = np.broadcast_to(t, p.shape)[nonzero]
        dz = np.broadcast_to(df, p.shape)[nonzero]
        z = dz / (dz + tz * tz)
        p[nonzero] = np.minimum(
            1.0, _reference_incomplete_beta(dz / 2.0, 0.5, z))
    p[np.broadcast_to(np.isinf(t), p.shape)] = 0.0
    return p


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    # array_equal treats 0.0 == -0.0; signs must agree too.
    assert np.array_equal(np.signbit(got), np.signbit(want))


shape_strategy = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)
unit_strategy = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
lane_count = st.integers(min_value=1, max_value=40)


class TestFrozenReferenceBitIdentity:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_continued_fraction(self, data):
        n = data.draw(lane_count)
        a = np.asarray(data.draw(st.lists(shape_strategy, min_size=n,
                                          max_size=n)))
        b = np.asarray(data.draw(st.lists(shape_strategy, min_size=n,
                                          max_size=n)))
        x = np.asarray(data.draw(st.lists(
            st.floats(min_value=1e-12, max_value=1.0 - 1e-12), min_size=n,
            max_size=n)))
        # Orient like the incomplete beta does, so every lane converges.
        flip = x >= (a + 1.0) / (a + b + 2.0)
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        x = np.where(flip, 1.0 - x, x)
        _assert_bitwise(_beta_continued_fraction_array(a, b, x),
                        _reference_continued_fraction(a, b, x))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_incomplete_beta(self, data):
        n = data.draw(lane_count)
        a, b, x = (np.asarray(data.draw(st.lists(strategy, min_size=n,
                                                 max_size=n)))
                   for strategy in (shape_strategy, shape_strategy,
                                    unit_strategy))
        _assert_bitwise(regularized_incomplete_beta_array(a, b, x),
                        _reference_incomplete_beta(a, b, x))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_two_sided_p_values(self, data):
        n = data.draw(st.integers(min_value=0, max_value=40))
        t = np.asarray(data.draw(st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=n,
            max_size=n)), dtype=np.float64)
        df = np.asarray(data.draw(st.lists(
            st.floats(min_value=1e-2, max_value=1e7), min_size=n,
            max_size=n)), dtype=np.float64)
        _assert_bitwise(two_sided_p_values(t, df),
                        _reference_two_sided_p_values(t, df))

    def test_lanes_converge_at_different_iterations(self):
        # Small x converges in a few steps, x near the split point with
        # large shapes needs dozens: one call retires lanes in many blocks.
        a = np.array([0.5, 3.0, 40.0, 400.0, 5000.0, 2.0, 9000.0])
        b = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 7.0, 8000.0])
        x = np.array([1e-6, 0.2, 0.9, 0.99, 0.9995, 0.1, 0.52])
        flip = x >= (a + 1.0) / (a + b + 2.0)
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        x = np.where(flip, 1.0 - x, x)
        _assert_bitwise(_beta_continued_fraction_array(a, b, x),
                        _reference_continued_fraction(a, b, x))

    def test_fpmin_clamped_lanes(self):
        # qab * x / qap == 1 makes the first d exactly zero, so it is
        # clamped to FPMIN before the recurrence starts (lanes 0-1); in
        # lanes 3-4, 1 + aa*d is exactly zero at the first even step, so
        # the clamp fires inside the recurrence, beside an ordinary lane.
        a = np.array([1.0, 3.0, 2.0, 0.25, 0.25])
        b = np.array([1.0, 1.0, 0.5, 3.75, 6.75])
        x = np.array([1.0, 1.0, 0.25, 0.45, 0.28125])
        _assert_bitwise(_beta_continued_fraction_array(a, b, x),
                        _reference_continued_fraction(a, b, x))

    def test_endpoint_and_infinite_lanes(self):
        t = np.array([1e-200, 1e200, np.inf, -np.inf, 0.0, -3.0, np.nan])
        df = np.array([50.0, 5.0, 4.0, 9.0, 12.0, 1e-3, 7.0])
        with np.errstate(over="ignore"):  # t * t of 1e200
            z = df / (df + t * t)
            assert z[0] == 1.0 and z[1] == 0.0
            _assert_bitwise(two_sided_p_values(t, df),
                            _reference_two_sided_p_values(t, df))

    def test_zero_and_one_lane_inputs(self):
        empty = np.empty(0)
        _assert_bitwise(two_sided_p_values(empty, empty),
                        _reference_two_sided_p_values(empty, empty))
        assert _beta_continued_fraction_array(empty, empty, empty).size == 0
        one = np.array([2.25])
        _assert_bitwise(two_sided_p_values(one, np.array([7.0])),
                        _reference_two_sided_p_values(one, np.array([7.0])))
        _assert_bitwise(
            _beta_continued_fraction_array(one, np.array([0.5]),
                                           np.array([0.1])),
            _reference_continued_fraction(one, np.array([0.5]),
                                          np.array([0.1])))

    def test_every_tick_of_a_long_ten_category_stream(self):
        from repro.core.streaming import StreamingEvaluator

        rng = np.random.default_rng(2024)
        events = tuple(ALL_EVENTS[:3])
        evaluator = StreamingEvaluator(events=events)
        offsets = rng.normal(0.0, 0.05, size=(10, 3))
        for _ in range(2000):
            for category in range(10):
                evaluator.observe_rows(category, rng.normal(
                    100.0 + offsets[category], 1.0, size=(2, 3)))
            tick = evaluator.tick()
            arrays = batch_pairwise_tests(
                evaluator.moments.to_sufficient_stats(events))
            _assert_bitwise(tick.p_value, arrays.p_value)
            _assert_bitwise(two_sided_p_values(arrays.statistic, arrays.df),
                            _reference_two_sided_p_values(arrays.statistic,
                                                          arrays.df))


def _random_distributions(rng, categories=6, events=4, samples=40,
                          scale=1000.0):
    data = {}
    event_list = list(ALL_EVENTS[:events])
    for cat in range(categories):
        offset = rng.uniform(-2.0, 2.0)
        data[cat] = {
            event: scale + offset + rng.normal(0.0, 3.0, size=samples)
            for event in event_list
        }
    return EventDistributions(data)


class TestIncompleteBetaArray:
    def test_matches_scalar_across_grid(self):
        a_values = [0.5, 1.0, 3.5, 17.0, 250.0]
        x_values = [0.0, 1e-9, 0.1, 0.4999, 0.5, 0.73, 1.0 - 1e-9, 1.0]
        a, x = np.meshgrid(a_values, x_values, indexing="ij")
        b = np.full_like(a, 0.5)
        result = regularized_incomplete_beta_array(a, b, x)
        for (i, j), value in np.ndenumerate(result):
            expected = regularized_incomplete_beta(a[i, j], b[i, j], x[i, j])
            assert value == pytest.approx(expected, abs=TOL)

    def test_rejects_bad_arguments(self):
        with pytest.raises(StatisticsError):
            regularized_incomplete_beta_array(
                np.array([-1.0]), np.array([0.5]), np.array([0.5]))
        with pytest.raises(StatisticsError):
            regularized_incomplete_beta_array(
                np.array([1.0]), np.array([0.5]), np.array([1.5]))

    def test_two_sided_p_matches_student_t(self):
        t = np.array([0.0, 0.3, -2.5, 11.0, -44.0])
        df = np.array([3.0, 17.4, 98.0, 2.2, 600.0])
        p = two_sided_p_values(t, df)
        for ti, dfi, pi in zip(t, df, p):
            assert pi == pytest.approx(
                StudentT(dfi).two_sided_p_value(ti), abs=TOL)


class TestBatchAgainstScalar:
    @pytest.mark.parametrize("method", ["welch", "student"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_distributions_match_exactly(self, method, seed):
        rng = np.random.default_rng(seed)
        dists = _random_distributions(rng)
        stats = SufficientStats.from_distributions(dists)
        arrays = batch_pairwise_tests(stats, method=method)
        scalar = welch_t_test if method == "welch" else student_t_test
        pairs = list(itertools.combinations(dists.categories, 2))
        for ei, event in enumerate(stats.events):
            for pi, (cat_a, cat_b) in enumerate(pairs):
                a = dists.values(cat_a, event)
                b = dists.values(cat_b, event)
                expected = scalar(a, b)
                assert arrays.statistic[pi, ei] == pytest.approx(
                    expected.statistic, abs=TOL, rel=TOL)
                assert arrays.p_value[pi, ei] == pytest.approx(
                    expected.p_value, abs=TOL)
                assert arrays.df[pi, ei] == pytest.approx(
                    expected.df, abs=TOL, rel=TOL)
                assert arrays.effect_size[pi, ei] == pytest.approx(
                    cohens_d(a, b), abs=TOL, rel=TOL)

    @pytest.mark.parametrize("method", ["welch", "student"])
    def test_unequal_sample_sizes(self, method):
        rng = np.random.default_rng(7)
        dists = EventDistributions({
            0: {HpcEvent.CYCLES: rng.normal(10.0, 2.0, size=31)},
            1: {HpcEvent.CYCLES: rng.normal(10.5, 4.0, size=97)},
            2: {HpcEvent.CYCLES: rng.normal(12.0, 1.0, size=8)},
        })
        stats = SufficientStats.from_distributions(dists)
        arrays = batch_pairwise_tests(stats, method=method)
        scalar = welch_t_test if method == "welch" else student_t_test
        for pi, (cat_a, cat_b) in enumerate(
                itertools.combinations([0, 1, 2], 2)):
            expected = scalar(dists.values(cat_a, HpcEvent.CYCLES),
                              dists.values(cat_b, HpcEvent.CYCLES))
            assert arrays.statistic[pi, 0] == pytest.approx(
                expected.statistic, abs=TOL, rel=TOL)
            assert arrays.p_value[pi, 0] == pytest.approx(
                expected.p_value, abs=TOL)
            assert arrays.df[pi, 0] == pytest.approx(
                expected.df, abs=TOL, rel=TOL)

    @pytest.mark.parametrize("method", ["welch", "student"])
    def test_degenerate_constant_distributions(self, method):
        dists = EventDistributions({
            0: {HpcEvent.CYCLES: np.full(5, 100.0)},
            1: {HpcEvent.CYCLES: np.full(5, 100.0)},
            2: {HpcEvent.CYCLES: np.full(5, 250.0)},
        })
        stats = SufficientStats.from_distributions(dists)
        arrays = batch_pairwise_tests(stats, method=method)
        scalar = welch_t_test if method == "welch" else student_t_test
        for pi, (cat_a, cat_b) in enumerate(
                itertools.combinations([0, 1, 2], 2)):
            expected = scalar(dists.values(cat_a, HpcEvent.CYCLES),
                              dists.values(cat_b, HpcEvent.CYCLES))
            assert arrays.statistic[pi, 0] == expected.statistic
            assert arrays.p_value[pi, 0] == expected.p_value
            assert arrays.df[pi, 0] == expected.df
            assert arrays.effect_size[pi, 0] == cohens_d(
                dists.values(cat_a, HpcEvent.CYCLES),
                dists.values(cat_b, HpcEvent.CYCLES))

    def test_rejects_unknown_method(self):
        rng = np.random.default_rng(3)
        stats = SufficientStats.from_distributions(
            _random_distributions(rng, categories=2, events=1))
        with pytest.raises(StatisticsError):
            batch_pairwise_tests(stats, method="bogus")

    def test_rejects_single_category(self):
        stats = SufficientStats(
            categories=(0,), events=(HpcEvent.CYCLES,),
            n=np.array([4.0]), mean=np.zeros((1, 1)), var=np.ones((1, 1)))
        with pytest.raises(StatisticsError):
            batch_pairwise_tests(stats)

    def test_sufficient_stats_rejects_tiny_samples(self):
        dists = EventDistributions(
            {0: {HpcEvent.CYCLES: np.array([1.0])},
             1: {HpcEvent.CYCLES: np.array([2.0])}})
        with pytest.raises(StatisticsError):
            SufficientStats.from_distributions(dists)


class TestPairwiseIndices:
    def test_matches_combinations(self):
        from repro.stats.vectorized import pairwise_indices
        ia, ib = pairwise_indices(5)
        assert list(zip(ia.tolist(), ib.tolist())) == list(
            itertools.combinations(range(5), 2))

    def test_cached_and_read_only(self):
        from repro.stats.vectorized import pairwise_indices
        first = pairwise_indices(4)
        second = pairwise_indices(4)
        assert first[0] is second[0] and first[1] is second[1]
        with pytest.raises(ValueError):
            first[0][0] = 99

    def test_rejects_single_category(self):
        from repro.stats.vectorized import pairwise_indices
        with pytest.raises(StatisticsError):
            pairwise_indices(1)
