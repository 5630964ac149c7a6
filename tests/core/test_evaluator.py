"""Tests for repro.core.evaluator on synthetic distributions."""

import numpy as np
import pytest

from repro.core import Evaluator
from repro.errors import EvaluationError
from repro.hpc import EventDistributions
from repro.stats.mannwhitney import mann_whitney_u
from repro.stats.ttest import student_t_test, welch_t_test
from repro.uarch import HpcEvent


def make_distributions(shift=50.0, n=40, seed=0):
    """Three categories: 1 and 2 identical, 3 shifted on cache-misses."""
    rng = np.random.default_rng(seed)
    base = 1000.0

    def column(mean):
        return rng.normal(mean, 10.0, size=n)

    return EventDistributions({
        1: {HpcEvent.CACHE_MISSES: column(base),
            HpcEvent.BRANCHES: column(5000.0)},
        2: {HpcEvent.CACHE_MISSES: column(base),
            HpcEvent.BRANCHES: column(5000.0)},
        3: {HpcEvent.CACHE_MISSES: column(base + shift),
            HpcEvent.BRANCHES: column(5000.0)},
    })


class TestEvaluate:
    def test_detects_the_shifted_category(self):
        report = Evaluator().evaluate(make_distributions())
        assert report.alarm
        assert HpcEvent.CACHE_MISSES in report.leaking_events
        pair_12 = [r for r in report.for_event(HpcEvent.CACHE_MISSES)
                   if r.pair == (1, 2)][0]
        pair_13 = [r for r in report.for_event(HpcEvent.CACHE_MISSES)
                   if r.pair == (1, 3)][0]
        assert not pair_12.distinguishable
        assert pair_13.distinguishable
        assert abs(pair_13.ttest.statistic) > 10

    def test_no_alarm_on_identical_distributions(self):
        report = Evaluator().evaluate(make_distributions(shift=0.0))
        # With 9 tests at alpha=0.05 a false rejection is possible but this
        # seed yields none; the point is the shifted pairs are gone.
        cm = report.for_event(HpcEvent.CACHE_MISSES)
        assert sum(r.distinguishable for r in cm) <= 1

    def test_event_subset(self):
        report = Evaluator().evaluate(make_distributions(),
                                      events=[HpcEvent.BRANCHES])
        assert report.events == [HpcEvent.BRANCHES]
        assert len(report.results) == 3

    def test_unmeasured_event_rejected(self):
        with pytest.raises(EvaluationError):
            Evaluator().evaluate(make_distributions(),
                                 events=[HpcEvent.CYCLES])

    def test_needs_two_categories(self):
        dists = make_distributions().subset([1])
        with pytest.raises(EvaluationError):
            Evaluator().evaluate(dists)

    def test_pair_count(self):
        report = Evaluator().evaluate(make_distributions())
        # 3 categories -> 3 pairs, 2 events.
        assert len(report.results) == 6

    def test_effect_sizes_recorded(self):
        report = Evaluator().evaluate(make_distributions())
        pair_13 = [r for r in report.for_event(HpcEvent.CACHE_MISSES)
                   if r.pair == (1, 3)][0]
        assert abs(pair_13.effect_size) > 2.0

    def test_rank_test_option(self):
        report = Evaluator(rank_test=True).evaluate(make_distributions())
        for result in report.results:
            assert result.rank_test is not None
        pair_13 = [r for r in report.for_event(HpcEvent.CACHE_MISSES)
                   if r.pair == (1, 3)][0]
        assert pair_13.rank_test.rejects_null()

    @pytest.mark.parametrize("method", ["welch", "student"])
    def test_rank_test_results_match_direct_calls(self, method):
        distributions = make_distributions()
        plain = Evaluator(method=method).evaluate(distributions)
        ranked = Evaluator(method=method, rank_test=True).evaluate(
            distributions)
        scalar = welch_t_test if method == "welch" else student_t_test
        assert len(ranked.results) == len(plain.results)
        for result, base in zip(ranked.results, plain.results):
            a = distributions.values(result.category_a, result.event)
            b = distributions.values(result.category_b, result.event)
            assert result.rank_test == mann_whitney_u(a, b)
            reference = scalar(a, b)
            assert result.ttest.statistic == pytest.approx(
                reference.statistic, rel=1e-12, abs=1e-12)
            assert result.ttest.p_value == pytest.approx(
                reference.p_value, rel=1e-12, abs=1e-12)
            # The rank test rides along; the t-test verdicts are unchanged.
            assert result.ttest == base.ttest
            assert result.effect_size == base.effect_size
            assert result.distinguishable == base.distinguishable

    def test_student_method(self):
        report = Evaluator(method="student").evaluate(make_distributions())
        assert report.method == "student"
        assert all(r.ttest.method == "student" for r in report.results)

    def test_confidence_threshold_matters(self):
        borderline = make_distributions(shift=5.0, seed=3)
        strict = Evaluator(confidence=0.999).evaluate(borderline)
        lax = Evaluator(confidence=0.6).evaluate(borderline)
        strict_count = sum(r.distinguishable for r in strict.results)
        lax_count = sum(r.distinguishable for r in lax.results)
        assert strict_count <= lax_count

    def test_invalid_configuration_rejected(self):
        with pytest.raises(EvaluationError):
            Evaluator(confidence=1.5)
        with pytest.raises(EvaluationError):
            Evaluator(method="anova")
