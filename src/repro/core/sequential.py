"""Sequential leakage detection: how fast can the Evaluator raise the alarm?

The paper's evaluator tests once, after collecting everything.  A runtime
monitor instead watches measurements arrive and wants to alarm as early as
possible without inflating its false-alarm rate.  This module implements a
group-sequential view of the streaming evaluator: it replays the recorded
stream and re-tests at a schedule of checkpoints with a Bonferroni-split
significance level (a simple, valid alpha-spending rule), reporting the
detection latency — the measurement budget at which the leak was first
confirmed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import EvaluationError
from ..hpc.distributions import EventDistributions
from ..uarch.events import HpcEvent
from .streaming import StreamingEvaluator, fold_round


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of a sequential detection run for one event.

    Attributes:
        event: The monitored event.
        detected: Whether the leak was confirmed at any checkpoint.
        detection_n: Per-category measurements consumed at the first
            detection (None when undetected).
        checkpoints: The schedule that was tested.
        alpha: Overall false-alarm budget (split across checkpoints).
        first_pair: The category pair that triggered detection.
        curve: ``(checkpoint, distinguishable pairs)`` per checkpoint, each
            pair tested at ``alpha`` with no spending.
    """

    event: HpcEvent
    detected: bool
    detection_n: Optional[int]
    checkpoints: Tuple[int, ...]
    alpha: float
    first_pair: Optional[Tuple[int, int]]
    curve: Tuple[Tuple[int, int], ...]

    def format(self) -> str:
        """One-line rendering."""
        if not self.detected:
            return (f"{self.event.value}: not detected within "
                    f"{self.checkpoints[-1]} measurements/category")
        return (f"{self.event.value}: detected at n={self.detection_n} "
                f"measurements/category (pair {self.first_pair})")


#: Alpha-spending schemes for unbounded streams (see :func:`spend_alpha`).
SPENDING_SCHEMES = ("geometric", "harmonic")


def spend_alpha(alpha: float, tick: int, scheme: str = "geometric") -> float:
    """Per-tick significance level of an unbounded alpha-spending schedule.

    :func:`sequential_detection` splits its budget evenly because its
    checkpoint schedule is finite and known up front.  A resident monitor
    (``repro serve``) re-tests on every tick *forever*, so its per-tick
    alphas must form a convergent series that sums to at most ``alpha``
    over infinitely many ticks:

    * ``"geometric"`` — ``alpha / 2**tick`` (front-loaded: early ticks get
      most of the budget, matching the operational preference for fast
      alarms on blatant leaks);
    * ``"harmonic"`` — ``alpha / (tick * (tick + 1))`` (decays slower, so
      late detections of subtle leaks retain more power).

    Either way a union bound caps the lifetime false-alarm probability of
    the spending alarm layer at ``alpha``, no matter how long the daemon
    runs.

    Args:
        alpha: Lifetime false-alarm budget (in (0, 1)).
        tick: 1-based evaluation tick.
        scheme: ``"geometric"`` or ``"harmonic"``.

    Returns:
        The significance level to test at on this tick.
    """
    if not 0.0 < alpha < 1.0:
        raise EvaluationError(f"alpha must be in (0, 1), got {alpha}")
    if tick < 1:
        raise EvaluationError(f"tick must be >= 1, got {tick}")
    if scheme == "geometric":
        # The negative exponent never overflows: beyond ~2^-1074 the
        # factor underflows to exactly 0.0, and p-values can never beat
        # a zero budget — the correct degenerate behaviour this deep
        # into the stream.  (``alpha / 2.0 ** tick`` would instead raise
        # OverflowError from tick 1024 on.)
        return alpha * (2.0 ** -tick)
    if scheme == "harmonic":
        return alpha / (tick * (tick + 1.0))
    raise EvaluationError(
        f"scheme must be one of {SPENDING_SCHEMES}, got {scheme!r}")


def default_checkpoints(max_n: int, first: int = 5) -> Tuple[int, ...]:
    """Doubling checkpoint schedule: ``first, 2*first, ... , max_n``.

    Budgets below ``first`` degrade to a single final checkpoint.
    """
    if max_n < 2:
        raise EvaluationError(f"need at least 2 measurements, got {max_n}")
    if max_n <= first:
        return (max_n,)
    schedule: List[int] = []
    n = first
    while n < max_n:
        schedule.append(n)
        n *= 2
    schedule.append(max_n)
    return tuple(schedule)


def sequential_detection(distributions: EventDistributions,
                         alpha: float = 0.05
                         ) -> Dict[HpcEvent, SequentialResult]:
    """Group-sequential detection for every event, read off one stream replay.

    Replays the measurement stream in recorded order through
    :func:`~repro.core.streaming.fold_round`, one round per checkpoint of
    :func:`default_checkpoints` over the per-category budget, and reads
    each tick's ``(pair, event)`` p-values twice: against ``alpha /
    len(schedule)`` (Bonferroni alpha spending, a valid false-alarm bound
    over the whole schedule) for the detection, whose first pair is the
    first rejecting pair in combination order; and against ``alpha``
    alone for the curve, which charts raw power vs. budget (the paper's
    implicit "use all test images" is its right edge).

    Args:
        distributions: Retained per-category distributions.
        alpha: Overall false-alarm probability budget per event.

    Returns:
        One :class:`SequentialResult` per event, in measured event order.
    """
    if not 0.0 < alpha < 1.0:
        raise EvaluationError(f"alpha must be in (0, 1), got {alpha}")
    categories = distributions.categories
    if len(categories) < 2:
        raise EvaluationError("need at least two categories")
    available = min(distributions.sample_count(c) for c in categories)
    schedule = default_checkpoints(available)
    events = tuple(distributions.events)
    evaluator = StreamingEvaluator(events=events)
    columns = {category: np.stack([distributions.values(category, event)
                                   for event in events], axis=1)
               for category in categories}
    p_values = []
    start = 0
    for checkpoint in schedule:
        tick, _ = fold_round(evaluator, {
            category: rows[start:checkpoint]
            for category, rows in columns.items()})
        p_values.append(tick.p_value)
        start = checkpoint
    p_value = np.stack(p_values)                              # (S, P, E)
    spent = p_value < alpha / len(schedule)
    rejections = np.count_nonzero(p_value < alpha, axis=1)    # (S, E)
    pairs = tick.pairs
    results: Dict[HpcEvent, SequentialResult] = {}
    for ei, event in enumerate(events):
        curve = tuple(zip(schedule, rejections[:, ei].tolist()))
        detection_n = first_pair = None
        hits = np.argwhere(spent[:, :, ei])
        if hits.size:
            at, pair = hits[0].tolist()
            detection_n, first_pair = schedule[at], pairs[pair]
        results[event] = SequentialResult(
            event=event, detected=hits.size > 0, detection_n=detection_n,
            checkpoints=schedule, alpha=alpha, first_pair=first_pair,
            curve=curve)
    return results
