"""Tests for repro.core.sequential (group-sequential detection)."""

import itertools

import numpy as np
import pytest

from repro.core import default_checkpoints, sequential_detection
from repro.errors import EvaluationError
from repro.hpc import EventDistributions
from repro.stats.ttest import welch_t_test
from repro.uarch import HpcEvent

EVENT = HpcEvent.CACHE_MISSES


def streaming_distributions(gap, n=160, seed=0):
    rng = np.random.default_rng(seed)
    return EventDistributions({
        1: {EVENT: rng.normal(1000.0, 10.0, n)},
        2: {EVENT: rng.normal(1000.0 + gap, 10.0, n)},
    })


def six_category_distributions(seed, n=80):
    rng = np.random.default_rng(seed)
    events = list(HpcEvent)
    return EventDistributions({
        category: {event: rng.normal(1000.0 + rng.uniform(0.0, 8.0), 10.0, n)
                   for event in events}
        for category in range(6)})


def reference_detection(distributions, event, alpha=0.05):
    """The scalar per-prefix loops the streaming view replaced.

    Returns ``(detection_n, first_pair, curve)``: one ``welch_t_test`` per
    (checkpoint, pair) on the recorded prefixes, alpha split evenly over
    the doubling schedule for the detection and unsplit for the curve.
    """
    categories = distributions.categories
    available = min(distributions.sample_count(c) for c in categories)
    schedule = default_checkpoints(available)
    detection = (None, None)
    curve = []
    for checkpoint in schedule:
        rejections = 0
        for cat_a, cat_b in itertools.combinations(categories, 2):
            a = distributions.values(cat_a, event)[:checkpoint]
            b = distributions.values(cat_b, event)[:checkpoint]
            p = welch_t_test(a, b).p_value
            if p < alpha / len(schedule) and detection == (None, None):
                detection = (checkpoint, (cat_a, cat_b))
            rejections += p < alpha
        curve.append((checkpoint, rejections))
    return detection + (tuple(curve),)


class TestCheckpointSchedule:
    def test_doubling_schedule(self):
        assert default_checkpoints(100) == (5, 10, 20, 40, 80, 100)

    def test_exact_power_of_two_end(self):
        assert default_checkpoints(40) == (5, 10, 20, 40)

    def test_tiny_budget_degrades_to_single_checkpoint(self):
        assert default_checkpoints(3) == (3,)

    def test_rejects_budget_below_two(self):
        with pytest.raises(EvaluationError):
            default_checkpoints(1)


class TestMatchesScalarReference:
    @pytest.mark.parametrize("n", [50, 80, 160])
    def test_two_category_sweep(self, n):
        for gap in (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0):
            for seed in range(30):
                distributions = streaming_distributions(gap, n=n, seed=seed)
                result = sequential_detection(distributions)[EVENT]
                detection_n, first_pair, curve = reference_detection(
                    distributions, EVENT)
                assert result.detection_n == detection_n
                assert result.detected == (detection_n is not None)
                assert result.first_pair == first_pair
                assert result.curve == curve

    def test_six_category_event_sets(self):
        for seed in range(40):
            distributions = six_category_distributions(seed)
            results = sequential_detection(distributions)
            assert list(results) == distributions.events
            for event, result in results.items():
                detection_n, first_pair, curve = reference_detection(
                    distributions, event)
                assert result.detection_n == detection_n
                assert result.first_pair == first_pair
                assert result.curve == curve


class TestSequentialEvaluator:
    def test_strong_leak_detected_early(self):
        result = sequential_detection(
            streaming_distributions(gap=50.0))[EVENT]
        assert result.detected
        assert result.detection_n <= 10
        assert result.first_pair == (1, 2)
        assert "detected at n=" in result.format()

    def test_weak_leak_detected_late(self):
        strong = sequential_detection(
            streaming_distributions(gap=50.0))[EVENT]
        weak = sequential_detection(streaming_distributions(gap=5.0))[EVENT]
        assert weak.detected
        assert weak.detection_n > strong.detection_n

    def test_no_leak_not_detected(self):
        result = sequential_detection(
            streaming_distributions(gap=0.0), alpha=0.05)[EVENT]
        assert not result.detected
        assert result.detection_n is None
        assert "not detected" in result.format()

    def test_false_alarm_rate_respects_alpha(self):
        # 60 independent no-leak streams: expect about alpha*60 false alarms.
        alarms = 0
        for seed in range(60):
            result = sequential_detection(
                streaming_distributions(gap=0.0, n=80, seed=seed),
                alpha=0.05)[EVENT]
            alarms += result.detected
        assert alarms <= 8  # generous binomial bound for p<=0.05

    def test_checkpoints_clipped_to_available_data(self):
        # The schedule, and with it the curve, ends at the shortest
        # category's budget.
        distributions = EventDistributions({
            1: {EVENT: np.linspace(0.0, 1.0, 50)},
            2: {EVENT: np.linspace(5.0, 6.0, 30)},
        })
        result = sequential_detection(distributions)[EVENT]
        assert result.checkpoints == (5, 10, 20, 30)
        assert [n for n, _ in result.curve] == [5, 10, 20, 30]

    def test_unusable_checkpoints_rejected(self):
        # A one-sample budget leaves no testable checkpoint.
        with pytest.raises(EvaluationError):
            sequential_detection(streaming_distributions(gap=1.0, n=1))

    def test_run_all(self):
        results = sequential_detection(streaming_distributions(gap=30.0))
        assert set(results) == {EVENT}

    def test_rejects_bad_alpha(self):
        with pytest.raises(EvaluationError):
            sequential_detection(streaming_distributions(gap=1.0),
                                 alpha=1.5)

    def test_needs_two_categories(self):
        single = EventDistributions({1: {EVENT: np.arange(10.0)}})
        with pytest.raises(EvaluationError):
            sequential_detection(single)


class TestLatencyCurve:
    def test_monotone_power_growth(self):
        curve = sequential_detection(
            streaming_distributions(gap=6.0))[EVENT].curve
        budgets = [point[0] for point in curve]
        rejections = [point[1] for point in curve]
        assert budgets == [5, 10, 20, 40, 80, 160]
        assert rejections[-1] >= rejections[0]
        assert rejections[-1] == 1  # eventually detected

    def test_no_leak_flat_curve(self):
        curve = sequential_detection(
            streaming_distributions(gap=0.0, seed=4))[EVENT].curve
        assert sum(point[1] for point in curve) <= 1
