"""Drift alarms: has a stream moved away from its own long-run behaviour?

The leakage evaluator answers "do these categories differ from *each
other*?".  A resident monitor also needs the complementary question — "has
this category's stream recently drifted from its *own* history?" — because
a deployment change (new model weights, co-tenant contention, a hardware
event remap) shifts counter distributions long before it flips a pairwise
verdict.  This module turns the trailing-window z-scores of
:class:`~repro.stats.streaming.SlidingWindowMoments` into an operational
alarm used by ``repro stream --drift-threshold`` and the ``repro serve``
daemon.

Every category keeps a trailing window of its last ``window`` measurement
rows, all in one ``(k, W, e)`` ring (O(k·W·e) memory).  After every
evaluation tick all window means are z-scored in one pass against the
categories' long-run Welford baselines — the same accumulators the leakage
verdicts run on — and any |z| at or above the threshold raises a
:class:`DriftAlarm`, recorded once per (category, event) cell like the
leakage path's first-detection bookkeeping.  A mask of the already-alarmed
cells keeps the per-tick Python work proportional to new alarms only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import EvaluationError
from ..obs import runtime as obs
from ..stats.streaming import SlidingWindowMoments, StreamingMoments
from ..uarch.events import HpcEvent

__all__ = ["DriftAlarm", "DriftMonitor"]


@dataclass(frozen=True)
class DriftAlarm:
    """First drift detection of one (category, event) cell.

    Attributes:
        category: The drifting category (model label).
        event: The drifting hardware event.
        z_score: Window-mean z-score against the long-run baseline at
            first detection (signed; the threshold tests ``|z|``).
        window: Rows inside the trailing window at detection.
        baseline_n: Long-run samples behind the baseline at detection.
        tick: Evaluation tick (1-based) of the first detection.
    """

    category: int
    event: HpcEvent
    z_score: float
    window: int
    baseline_n: int
    tick: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly row (stable key order)."""
        return {
            "category": self.category,
            "event": self.event.value,
            "z_score": self.z_score,
            "window": self.window,
            "baseline_n": self.baseline_n,
            "tick": self.tick,
        }

    def format(self, display: Optional[Mapping[int, int]] = None) -> str:
        """One-line rendering with optional display-label remapping."""
        category = display[self.category] if display else self.category
        return (f"{self.event.value}: category t{category} drifted "
                f"z={self.z_score:+.1f} at tick {self.tick} "
                f"(window {self.window}, baseline n={self.baseline_n})")


class DriftMonitor:
    """Trailing-window drift detector over per-category event streams.

    Feed it the same measurement rows the leakage evaluator consumes
    (:meth:`observe` / :meth:`observe_round`), then :meth:`check` against
    the evaluator's long-run accumulators after each tick.  Each
    (category, event) cell alarms at most once — the first tick where the
    trailing window mean sits ``threshold`` or more standard errors away
    from the long-run mean.

    Args:
        window: Trailing rows retained per category (>= 2).
        threshold: |z| at which a cell alarms (standard errors of the
            window mean under the baseline's variance).
    """

    def __init__(self, window: int = 32, threshold: float = 4.0):
        if window < 2:
            raise EvaluationError(f"window must be >= 2, got {window}")
        if threshold <= 0.0:
            raise EvaluationError(
                f"threshold must be > 0, got {threshold}")
        self.window = window
        self.threshold = float(threshold)
        self._windows: Optional[SlidingWindowMoments] = None
        self._alarms: Dict[Tuple[int, HpcEvent], DriftAlarm] = {}
        # Alarmed cells as a (categories, events) mask, rebuilt from
        # ``_alarms`` whenever the window categories or events change.
        self._alarmed_key: Optional[tuple] = None
        self._alarmed = np.zeros((0, 0), dtype=bool)

    @property
    def windows(self) -> Optional[SlidingWindowMoments]:
        """The trailing-window ring (None before any rows)."""
        return self._windows

    def observe(self, category: int, rows: np.ndarray) -> None:
        """Append one category's ``(B, E)`` measurement rows."""
        self.observe_round({int(category): rows})

    def observe_round(self, batches: Mapping[int, np.ndarray]) -> None:
        """Append one round of ``category -> (B, E)`` measurement rows."""
        if not batches:
            return
        if self._windows is None:
            columns = np.atleast_2d(next(iter(batches.values()))).shape[1]
            self._windows = SlidingWindowMoments(self.window, columns)
        self._windows.observe_round(batches)

    def _alarmed_cells(self, events: Tuple[HpcEvent, ...]) -> np.ndarray:
        key = (tuple(self._windows.categories), events)
        if key != self._alarmed_key:
            row = {category: i for i, category in enumerate(key[0])}
            column = {event: j for j, event in enumerate(events)}
            self._alarmed = np.zeros((len(row), len(events)), dtype=bool)
            for category, event in self._alarms:
                if category in row and event in column:
                    self._alarmed[row[category], column[event]] = True
            self._alarmed_key = key
        return self._alarmed

    def check(self, baseline: StreamingMoments,
              events: Sequence[HpcEvent], tick: int) -> List[DriftAlarm]:
        """Z-score every category's window against its long-run baseline.

        Categories the baseline has never observed are skipped; any other
        failure propagates.

        Args:
            baseline: The long-run accumulators (normally the streaming
                evaluator's own moments — the window is compared against
                everything the stream has ever seen, itself included).
            events: Column labels of the accumulator/window columns.
            tick: Current evaluation tick, stamped into new alarms.

        Returns:
            Alarms first raised by this check (all alarms ever raised
            remain available through :meth:`alarms`).
        """
        events = tuple(events)
        windows = self._windows
        if windows is None:
            return []
        usable, z_scores = windows.drift_z_scores(baseline)
        if not usable.any():
            return []
        if len(events) != baseline.columns:
            raise EvaluationError(
                f"expected {baseline.columns} event labels, "
                f"got {len(events)}")
        alarmed = self._alarmed_cells(events)
        # ``not |z| < threshold`` rather than ``|z| >= threshold``, so that
        # a NaN score alarms too.
        hits = ~(np.abs(z_scores) < self.threshold)
        hits &= usable[:, None]
        hits &= ~alarmed
        new: List[DriftAlarm] = []
        if hits.any():
            categories = windows.categories
            filled = windows.counts
            for row, column in zip(*np.nonzero(hits)):
                category = categories[row]
                alarm = DriftAlarm(
                    category=category, event=events[column],
                    z_score=float(z_scores[row, column]),
                    window=int(filled[row]),
                    baseline_n=baseline.count(category), tick=tick)
                self._alarms[(category, events[column])] = alarm
                alarmed[row, column] = True
                new.append(alarm)
            obs.inc("drift.alarms", len(new))
            for alarm in new:
                obs.observe("drift.z_score", abs(alarm.z_score),
                            event=alarm.event.value)
        return new

    @property
    def alarm(self) -> bool:
        """True once any cell has ever drifted past the threshold."""
        return bool(self._alarms)

    def alarms(self) -> List[DriftAlarm]:
        """All first-detection records, in (category, event) order."""
        return sorted(self._alarms.values(),
                      key=lambda a: (a.category, a.event.value))

    def alarm_rows(self) -> List[Dict[str, object]]:
        """JSON-friendly :meth:`alarms` rows (deterministic order)."""
        return [alarm.to_dict() for alarm in self.alarms()]

    def memory_bytes(self) -> int:
        """Bytes retained by the windows (flat in stream length)."""
        total = len(self._alarms) * 64 + self._alarmed.nbytes
        windows = self._windows
        if windows is not None:
            total += (len(windows.categories) * windows.capacity
                      * windows.columns * 8)
        return total

    # ------------------------------------------------------------------
    # Persistence (serve checkpoint format)
    # ------------------------------------------------------------------

    def state(self) -> Dict[str, np.ndarray]:
        """Npz-able monitor state: per-category windows + alarm table.

        Both halves must persist: the windows cannot be re-derived from
        the long-run accumulators, and the first-detection alarm table is
        what keeps already-alarmed cells from re-firing as new first
        detections after a checkpoint/resume.  Alarm events are stored by
        their string value (npz-friendly) and rebound to
        :class:`~repro.uarch.events.HpcEvent` on restore.
        """
        out: Dict[str, np.ndarray] = {}
        if self._windows is not None:
            for key, value in self._windows.state().items():
                out[f"drift/{key}"] = value
        if self._alarms:
            alarms = self.alarms()
            out["drift/alarms/category"] = np.asarray(
                [a.category for a in alarms], dtype=np.int64)
            out["drift/alarms/event"] = np.asarray(
                [a.event.value for a in alarms])
            out["drift/alarms/z_score"] = np.asarray(
                [a.z_score for a in alarms], dtype=np.float64)
            out["drift/alarms/window"] = np.asarray(
                [a.window for a in alarms], dtype=np.int64)
            out["drift/alarms/baseline_n"] = np.asarray(
                [a.baseline_n for a in alarms], dtype=np.int64)
            out["drift/alarms/tick"] = np.asarray(
                [a.tick for a in alarms], dtype=np.int64)
        return out

    @classmethod
    def from_state(cls, arrays: Mapping[str, np.ndarray],
                   window: int, threshold: float) -> "DriftMonitor":
        """Rebuild a monitor's windows from persisted :meth:`state`."""
        monitor = cls(window=window, threshold=threshold)
        windows = {key[len("drift/"):]: value
                   for key, value in arrays.items()
                   if key.startswith("drift/cat")}
        if windows:
            monitor._windows = SlidingWindowMoments.from_state(
                windows, capacity=window)
        if "drift/alarms/category" in arrays:
            columns = [np.asarray(arrays[f"drift/alarms/{name}"])
                       for name in ("category", "event", "z_score",
                                    "window", "baseline_n", "tick")]
            for category, event, z, win, baseline_n, tick in zip(*columns):
                alarm = DriftAlarm(
                    category=int(category), event=HpcEvent(str(event)),
                    z_score=float(z), window=int(win),
                    baseline_n=int(baseline_n), tick=int(tick))
                monitor._alarms[(alarm.category, alarm.event)] = alarm
        return monitor
