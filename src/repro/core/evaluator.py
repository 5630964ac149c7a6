"""The paper's Evaluator: pairwise hypothesis tests over HPC distributions.

The Evaluator knows nothing about the model.  It receives per-category
distributions of each monitored hardware event (collected by a
:class:`repro.hpc.MeasurementSession`) and, for every pair of categories and
every event, runs a two-sample t-test at a configurable confidence level
(95% in the paper).  Any rejection means an adversary observing that event
can distinguish those two input categories — the Evaluator raises an alarm.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from ..errors import EvaluationError
from ..hpc.distributions import EventDistributions
from ..obs import runtime as obs
from ..stats.mannwhitney import mann_whitney_u
from ..stats.ttest import TTestResult
from ..stats.vectorized import SufficientStats, batch_pairwise_tests
from ..uarch.events import HpcEvent
from .leakage import LeakageReport, PairwiseResult


class Evaluator:
    """Black-box leakage evaluator.

    Args:
        confidence: Confidence level of the t-tests (paper: 0.95).
        method: ``"welch"`` (default) or ``"student"`` two-sample t-test.
        rank_test: Also run a Mann-Whitney U test per pair, recording a
            distribution-free corroboration of each verdict.
    """

    def __init__(self, confidence: float = 0.95, method: str = "welch",
                 rank_test: bool = False):
        if not 0.0 < confidence < 1.0:
            raise EvaluationError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        if method not in ("welch", "student"):
            raise EvaluationError(
                f"method must be 'welch' or 'student', got {method!r}"
            )
        self.confidence = confidence
        self.method = method
        self.rank_test = rank_test

    def results_from_stats(self, stats: SufficientStats,
                           events: Sequence[HpcEvent]
                           ) -> List[PairwiseResult]:
        """Pairwise results from ``(n, mean, var)`` sufficient statistics.

        The raw samples are never touched — this is the entry point shared
        by the batch path (which reduces retained sample arrays into
        ``stats`` first) and the :class:`~repro.core.streaming.
        StreamingEvaluator` (whose accumulators *are* the statistics).
        """
        arrays = batch_pairwise_tests(stats, method=self.method)
        alpha = 1.0 - self.confidence
        # Bulk-convert once; per-cell float()/int() coercion of numpy
        # scalars dominates construction time otherwise.
        statistic = arrays.statistic.tolist()
        p_value = arrays.p_value.tolist()
        df = arrays.df.tolist()
        mean_a = arrays.mean_a.tolist()
        mean_b = arrays.mean_b.tolist()
        effect = arrays.effect_size.tolist()
        n_a = [int(n) for n in arrays.n_a.tolist()]
        n_b = [int(n) for n in arrays.n_b.tolist()]
        pair_a = [stats.categories[i] for i in arrays.index_a.tolist()]
        pair_b = [stats.categories[i] for i in arrays.index_b.tolist()]
        # Both result types are plain frozen dataclasses (no __post_init__,
        # no __slots__); populating __dict__ directly skips the per-field
        # object.__setattr__ that dominates when building thousands of
        # results, without changing the constructed objects.
        method = self.method
        new = object.__new__
        results: List[PairwiseResult] = []
        for ei, event in enumerate(events):
            for pi in range(len(pair_a)):
                p = p_value[pi][ei]
                ttest = new(TTestResult)
                ttest.__dict__.update(
                    statistic=statistic[pi][ei],
                    p_value=p,
                    df=df[pi][ei],
                    mean_a=mean_a[pi][ei],
                    mean_b=mean_b[pi][ei],
                    n_a=n_a[pi],
                    n_b=n_b[pi],
                    method=method,
                )
                result = new(PairwiseResult)
                result.__dict__.update(
                    event=event,
                    category_a=pair_a[pi],
                    category_b=pair_b[pi],
                    ttest=ttest,
                    effect_size=effect[pi][ei],
                    rank_test=None,
                    distinguishable=p < alpha,
                )
                results.append(result)
        return results

    def evaluate(self, distributions: EventDistributions,
                 events: Optional[Sequence[HpcEvent]] = None
                 ) -> LeakageReport:
        """Run all pairwise tests and assemble the leakage report.

        Per-(category, event) sufficient statistics are reduced once and
        every pair is tested in broadcast arithmetic
        (:meth:`results_from_stats`); with ``rank_test`` each result also
        carries a Mann-Whitney U test of the pair's raw samples.

        Args:
            distributions: Per-category event distributions.
            events: Events to analyse (default: everything measured).

        Returns:
            A :class:`LeakageReport`; its :attr:`LeakageReport.alarm` is True
            when any pair of categories is distinguishable on any event.
        """
        categories = distributions.categories
        if len(categories) < 2:
            raise EvaluationError(
                "need at least two measured categories to compare"
            )
        events = list(events) if events is not None else distributions.events
        for event in events:
            if event not in distributions.events:
                raise EvaluationError(f"event {event} was not measured")
        with obs.span("evaluate.ttests", method=self.method,
                      confidence=self.confidence, events=len(events),
                      categories=len(categories)) as span:
            stats = SufficientStats.from_distributions(distributions, events)
            results = self.results_from_stats(stats, events)
            if self.rank_test:
                results = [replace(result, rank_test=mann_whitney_u(
                    distributions.values(result.category_a, result.event),
                    distributions.values(result.category_b, result.event)))
                    for result in results]
            obs.inc("ttest.pairs", len(results))
            distinguishable = sum(r.distinguishable for r in results)
            obs.inc("ttest.rejections", distinguishable)
            span.set_attribute("pairs", len(results))
            span.set_attribute("rejections", distinguishable)
            if obs.is_enabled():
                # Per-category alarm breakdown: each pairwise verdict is
                # attributed to both of its categories, so the merged
                # snapshot shows which monitored category leaks.  Counted
                # in one pass and emitted in sorted category order (label
                # order never depends on result order); skipped entirely
                # when telemetry is off to keep the hot path free.
                pairs: dict = {}
                rejections: dict = {}
                for result in results:
                    for category in (result.category_a, result.category_b):
                        pairs[category] = pairs.get(category, 0) + 1
                        if result.distinguishable:
                            rejections[category] = (
                                rejections.get(category, 0) + 1)
                for category in sorted(pairs):
                    obs.inc("ttest.category_pairs", pairs[category],
                            category=category)
                    obs.inc("ttest.category_rejections",
                            rejections.get(category, 0), category=category)
        return LeakageReport(
            results=results,
            confidence=self.confidence,
            method=self.method,
            categories=list(categories),
            events=list(events),
            distributions=distributions,
        )
