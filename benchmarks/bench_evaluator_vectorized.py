"""Vectorized-evaluator speedup benchmark (acceptance gate).

Not a paper artifact: asserts the perf contract of the vectorized t-test
fast path — on the paper's full evaluation shape (10 categories x 8 events
x 500 measurements), ``Evaluator.evaluate`` with the broadcast kernels
must be at least 10x faster than a scalar per-pair loop (one
``welch_t_test``, ``cohens_d`` and ``PairwiseResult`` per pair and event),
while agreeing with it to 1e-12 on every statistic.

Timing uses best-of-N: the minimum over several repeats is the least
noisy estimator of the achievable runtime on a shared machine.
"""

import itertools
import time

import numpy as np

from repro.core.evaluator import Evaluator
from repro.core.leakage import PairwiseResult
from repro.hpc import EventDistributions
from repro.stats.effect_size import cohens_d
from repro.stats.ttest import welch_t_test
from repro.uarch import ALL_EVENTS

CATEGORIES = 10
SAMPLES = 500
REPEATS = 5
REQUIRED_SPEEDUP = 10.0
TOLERANCE = 1e-12


def _synthetic_distributions() -> EventDistributions:
    rng = np.random.default_rng(0)
    data = {}
    for category in range(CATEGORIES):
        per_event = {}
        for index, event in enumerate(ALL_EVENTS):
            location = 1_000.0 * (index + 1) + 5.0 * category
            per_event[event] = rng.normal(location, 25.0, size=SAMPLES)
        data[category] = per_event
    return EventDistributions(data)


def _scalar_results(distributions: EventDistributions,
                    confidence: float = 0.95):
    """Every pairwise result from scalar tests, in the evaluator's order."""
    results = []
    for event in distributions.events:
        for cat_a, cat_b in itertools.combinations(
                distributions.categories, 2):
            a = distributions.values(cat_a, event)
            b = distributions.values(cat_b, event)
            ttest = welch_t_test(a, b)
            results.append(PairwiseResult(
                event=event, category_a=cat_a, category_b=cat_b,
                ttest=ttest, effect_size=cohens_d(a, b), rank_test=None,
                distinguishable=ttest.rejects_null(confidence)))
    return results


def _best_of(callable_, repeats: int = REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_vectorized_speedup_on_paper_shape():
    distributions = _synthetic_distributions()
    evaluator = Evaluator()

    scalar_s, scalar = _best_of(lambda: _scalar_results(distributions))
    vector_s, vectorized = _best_of(
        lambda: evaluator.evaluate(distributions))

    assert len(scalar) == len(vectorized.results) == 45 * len(ALL_EVENTS)
    for lhs, rhs in zip(scalar, vectorized.results):
        assert lhs.pair == rhs.pair
        assert lhs.event == rhs.event
        assert abs(lhs.ttest.statistic - rhs.ttest.statistic) <= TOLERANCE
        assert abs(lhs.ttest.p_value - rhs.ttest.p_value) <= TOLERANCE
        assert abs(lhs.ttest.df - rhs.ttest.df) <= TOLERANCE
        assert abs(lhs.effect_size - rhs.effect_size) <= TOLERANCE

    speedup = scalar_s / vector_s
    print(f"\nscalar {scalar_s * 1e3:.2f} ms  vectorized {vector_s * 1e3:.2f} "
          f"ms  speedup {speedup:.1f}x")
    assert speedup >= REQUIRED_SPEEDUP, (
        f"vectorized evaluator only {speedup:.1f}x faster than scalar "
        f"(required {REQUIRED_SPEEDUP:.0f}x): "
        f"{scalar_s * 1e3:.2f} ms vs {vector_s * 1e3:.2f} ms"
    )
