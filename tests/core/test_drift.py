"""Tests for the drift alarm (DriftMonitor) and alpha spending."""

import numpy as np
import pytest

from repro.core.drift import DriftAlarm, DriftMonitor
from repro.core.sequential import SPENDING_SCHEMES, spend_alpha
from repro.core.streaming import StreamingEvaluator
from repro.errors import EvaluationError
from repro.stats.streaming import StreamingMoments
from repro.uarch.events import ALL_EVENTS


def feed(monitor, baseline, category, rows):
    rows = np.asarray(rows, dtype=np.float64)
    monitor.observe(category, rows)
    baseline.observe(category, rows)


class TestDriftMonitor:
    def test_stable_stream_never_alarms(self):
        rng = np.random.default_rng(0)
        monitor = DriftMonitor(window=16, threshold=4.0)
        baseline = StreamingMoments(columns=2)
        for _ in range(30):
            feed(monitor, baseline, 0, rng.normal(100.0, 5.0, size=(4, 2)))
            monitor.check(baseline, ALL_EVENTS[:2], tick=1)
        assert not monitor.alarm
        assert monitor.alarms() == []

    def test_injected_shift_raises_alarm(self):
        rng = np.random.default_rng(1)
        monitor = DriftMonitor(window=16, threshold=4.0)
        baseline = StreamingMoments(columns=2)
        tick = 0
        for _ in range(40):
            tick += 1
            feed(monitor, baseline, 0, rng.normal(100.0, 5.0, size=(4, 2)))
            assert monitor.check(baseline, ALL_EVENTS[:2], tick) == []
        # Shift the mean by 10 sigma: the trailing window's mean moves,
        # the long-run baseline barely does.
        alarm_tick = None
        for _ in range(16):
            tick += 1
            feed(monitor, baseline, 0, rng.normal(150.0, 5.0, size=(4, 2)))
            if monitor.check(baseline, ALL_EVENTS[:2], tick):
                alarm_tick = tick
                break
        assert alarm_tick is not None
        assert monitor.alarm
        alarms = monitor.alarms()
        assert {a.event for a in alarms} <= set(ALL_EVENTS[:2])
        assert all(abs(a.z_score) >= 4.0 for a in alarms)
        assert all(a.tick == alarm_tick for a in alarms)

    def test_first_detection_is_recorded_once(self):
        rng = np.random.default_rng(2)
        monitor = DriftMonitor(window=8, threshold=3.0)
        baseline = StreamingMoments(columns=1)
        for _ in range(20):
            feed(monitor, baseline, 0, rng.normal(10.0, 1.0, size=(4, 1)))
        tick = 1
        first = []
        while not first:
            tick += 1
            feed(monitor, baseline, 0, rng.normal(30.0, 1.0, size=(4, 1)))
            first = monitor.check(baseline, ALL_EVENTS[:1], tick)
        # Keep drifting: the cell must not re-alarm.
        for _ in range(5):
            tick += 1
            feed(monitor, baseline, 0, rng.normal(30.0, 1.0, size=(4, 1)))
            assert monitor.check(baseline, ALL_EVENTS[:1], tick) == []
        assert monitor.alarms() == first

    def test_per_category_independence(self):
        rng = np.random.default_rng(3)
        monitor = DriftMonitor(window=8, threshold=4.0)
        baseline = StreamingMoments(columns=1)
        for _ in range(25):
            feed(monitor, baseline, 0, rng.normal(10.0, 1.0, size=(4, 1)))
            feed(monitor, baseline, 1, rng.normal(10.0, 1.0, size=(4, 1)))
        for tick in range(1, 10):
            feed(monitor, baseline, 0, rng.normal(10.0, 1.0, size=(4, 1)))
            feed(monitor, baseline, 1, rng.normal(40.0, 1.0, size=(4, 1)))
            monitor.check(baseline, ALL_EVENTS[:1], tick)
        categories = {a.category for a in monitor.alarms()}
        assert categories == {1}

    def test_alarm_rows_and_format(self):
        alarm = DriftAlarm(category=2, event=ALL_EVENTS[0], z_score=-5.5,
                           window=16, baseline_n=200, tick=7)
        row = alarm.to_dict()
        assert row["category"] == 2 and row["tick"] == 7
        text = alarm.format({2: 9})
        assert "t9" in text and "z=-5.5" in text

    def test_event_label_mismatch_is_an_error(self):
        monitor = DriftMonitor(window=4)
        baseline = StreamingMoments(columns=2)
        rows = np.ones((4, 2))
        feed(monitor, baseline, 0, rows + np.arange(4)[:, None])
        with pytest.raises(EvaluationError, match="event labels"):
            monitor.check(baseline, ALL_EVENTS[:1], tick=1)

    def test_validation(self):
        with pytest.raises(EvaluationError):
            DriftMonitor(window=1)
        with pytest.raises(EvaluationError):
            DriftMonitor(threshold=0.0)

    def test_memory_is_flat_in_stream_length(self):
        rng = np.random.default_rng(4)
        monitor = DriftMonitor(window=8, threshold=4.0)
        monitor.observe(0, rng.normal(size=(4, 3)))
        early = monitor.memory_bytes()
        for _ in range(100):
            monitor.observe(0, rng.normal(size=(4, 3)))
        assert monitor.memory_bytes() == early

    def test_state_round_trip(self):
        rng = np.random.default_rng(5)
        monitor = DriftMonitor(window=8, threshold=3.0)
        for category in (0, 1):
            monitor.observe(category, rng.normal(size=(12, 2)))
        restored = DriftMonitor.from_state(monitor.state(), window=8,
                                           threshold=3.0)
        baseline = StreamingMoments(columns=2)
        baseline.observe(0, rng.normal(size=(50, 2)))
        baseline.observe(1, rng.normal(size=(50, 2)))
        for category in (0, 1):
            want = monitor.windows.window(category)
            got = restored.windows.window(category)
            assert np.array_equal(want, got)


class _ReferenceWindow:
    """One category's trailing ring, written and reduced as it always was."""

    def __init__(self, capacity, columns):
        self.buffer = np.zeros((capacity, columns))
        self.next = 0
        self.filled = 0

    def observe(self, rows):
        capacity = self.buffer.shape[0]
        if rows.shape[0] >= capacity:
            self.buffer[:] = rows[-capacity:]
            self.next, self.filled = 0, capacity
            return
        first = min(rows.shape[0], capacity - self.next)
        self.buffer[self.next:self.next + first] = rows[:first]
        if rows.shape[0] > first:
            self.buffer[:rows.shape[0] - first] = rows[first:]
        self.next = (self.next + rows.shape[0]) % capacity
        self.filled = min(capacity, self.filled + rows.shape[0])

    def z_scores(self, count, mean, m2):
        scale = np.sqrt(m2 / (count - 1) / self.filled)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (self.buffer[:self.filled].mean(axis=0) - mean) / scale
        return np.where(scale == 0.0, 0.0, z)


class TestStackedDriftPass:
    def test_z_scores_and_alarms_match_per_category_reference(self):
        rng = np.random.default_rng(7)
        monitor = DriftMonitor(window=6, threshold=3.0)
        baseline = StreamingMoments(columns=2)
        reference = {c: _ReferenceWindow(6, 2) for c in range(4)}
        expected = {}
        for tick in range(1, 60):
            # Equal rounds, ragged rounds, oversized rounds and a late
            # category all pass through the one ring.
            sizes = {c: (4 if tick % 5 else 1 + c * 3) for c in range(4)}
            if tick < 10:
                del sizes[3]
            shift = 25.0 if tick > 40 else 0.0
            batches = {c: rng.normal(100.0 + shift * (c == 1), 5.0,
                                     size=(n, 2))
                       for c, n in sizes.items()}
            monitor.observe_round(batches)
            baseline.observe_round(batches)
            for c, rows in batches.items():
                reference[c].observe(rows)
            new = monitor.check(baseline, ALL_EVENTS[:2], tick)
            usable, z = monitor.windows.drift_z_scores(baseline)
            for row, c in enumerate(monitor.windows.categories):
                index = baseline.categories.index(c)
                want = reference[c].z_scores(baseline.counts[index],
                                             baseline.mean[index],
                                             baseline.m2[index])
                assert np.array_equal(z[row], want)
                if not usable[row]:
                    continue
                for column, value in enumerate(want):
                    key = (c, ALL_EVENTS[column])
                    if abs(value) >= 3.0 and key not in expected:
                        expected[key] = (tick, float(value))
            assert all(expected[(a.category, a.event)] == (tick, a.z_score)
                       for a in new)
        assert {(a.category, a.event): (a.tick, a.z_score)
                for a in monitor.alarms()} == expected
        assert (1, ALL_EVENTS[0]) in expected  # the planted shift alarms


class TestBaselineErrors:
    def test_unobserved_categories_are_skipped(self):
        rng = np.random.default_rng(8)
        monitor = DriftMonitor(window=4, threshold=2.0)
        baseline = StreamingMoments(columns=1)
        monitor.observe(0, rng.normal(size=(8, 1)))
        monitor.observe(5, rng.normal(50.0, 1.0, size=(8, 1)))
        baseline.observe(0, rng.normal(size=(40, 1)))
        assert monitor.check(baseline, ALL_EVENTS[:1], tick=1) == []
        baseline.observe(0, rng.normal(30.0, 1.0, size=(4, 1)))
        monitor.observe(0, rng.normal(30.0, 1.0, size=(4, 1)))
        alarms = monitor.check(baseline, ALL_EVENTS[:1], tick=2)
        assert [a.category for a in alarms] == [0]

    def test_other_baseline_errors_propagate(self):
        class BrokenBaseline(StreamingMoments):
            @property
            def counts(self):
                raise RuntimeError("corrupt accumulator")

        monitor = DriftMonitor(window=4)
        baseline = BrokenBaseline(columns=2)
        feed(monitor, baseline, 0, np.arange(8.0).reshape(4, 2))
        with pytest.raises(RuntimeError, match="corrupt accumulator"):
            monitor.check(baseline, ALL_EVENTS[:2], tick=1)
        with pytest.raises(AttributeError):
            monitor.check(None, ALL_EVENTS[:2], tick=1)


class TestOldCheckpoints:
    def test_drift_window_checkpoint_restores(self):
        # Per-category window arrays and the alarm table as earlier
        # releases wrote them (rows oldest-first).
        rows0 = np.arange(12.0).reshape(6, 2)
        rows1 = np.arange(6.0).reshape(3, 2) + 100.0
        arrays = {
            "drift/cat0/window/rows": rows0,
            "drift/cat0/window/capacity": np.asarray([6], dtype=np.int64),
            "drift/cat0/window/total_seen": np.asarray([40],
                                                       dtype=np.int64),
            "drift/cat1/window/rows": rows1,
            "drift/cat1/window/capacity": np.asarray([6], dtype=np.int64),
            "drift/cat1/window/total_seen": np.asarray([3], dtype=np.int64),
            "drift/alarms/category": np.asarray([1], dtype=np.int64),
            "drift/alarms/event": np.asarray([ALL_EVENTS[0].value]),
            "drift/alarms/z_score": np.asarray([7.5]),
            "drift/alarms/window": np.asarray([3], dtype=np.int64),
            "drift/alarms/baseline_n": np.asarray([90], dtype=np.int64),
            "drift/alarms/tick": np.asarray([4], dtype=np.int64),
            "cat0/count": np.asarray([90], dtype=np.int64),
        }
        monitor = DriftMonitor.from_state(arrays, window=6, threshold=4.0)
        windows = monitor.windows
        assert windows.categories == [0, 1]
        assert np.array_equal(windows.window(0), rows0)
        assert np.array_equal(windows.window(1), rows1)
        assert windows.total_seen(0) == 40 and windows.count(1) == 3
        assert [a.to_dict() for a in monitor.alarms()] == [{
            "category": 1, "event": ALL_EVENTS[0].value, "z_score": 7.5,
            "window": 3, "baseline_n": 90, "tick": 4}]
        state = monitor.state()
        for key, value in arrays.items():
            if key.startswith("drift/"):
                assert np.array_equal(state[key], value), key
        # The restored alarm does not re-fire.
        baseline = StreamingMoments(columns=2)
        baseline.observe(0, rows0)
        baseline.observe(1, np.tile([[0.0], [1.0]], (5, 2)))
        new = monitor.check(baseline, ALL_EVENTS[:2], tick=5)
        assert (1, ALL_EVENTS[0]) not in {(a.category, a.event)
                                          for a in new}

    @pytest.mark.parametrize("window", [3, 12])
    def test_window_stored_under_another_length_restores(self, window):
        monitor = DriftMonitor(window=6)
        rows = np.arange(20.0).reshape(10, 2)
        monitor.observe(0, rows)
        monitor.observe(1, rows[:4] + 100.0)
        restored = DriftMonitor.from_state(monitor.state(), window=window,
                                           threshold=4.0)
        windows = restored.windows
        assert windows.capacity == window
        for category, kept in ((0, rows[-6:]), (1, rows[:4] + 100.0)):
            assert np.array_equal(windows.window(category), kept[-window:])
            assert windows.total_seen(category) \
                == monitor.windows.total_seen(category)


class TestDriftThroughStreamingEvaluator:
    def test_check_against_evaluator_moments(self):
        # The operational wiring: the evaluator's own accumulators are
        # the drift baseline.
        rng = np.random.default_rng(6)
        events = ALL_EVENTS[:3]
        evaluator = StreamingEvaluator(events=events)
        monitor = DriftMonitor(window=8, threshold=4.0)
        for tick in range(1, 16):
            for category in (0, 1):
                shift = 60.0 if category == 1 and tick > 10 else 0.0
                rows = rng.normal(100.0 + shift, 5.0, size=(5, 3))
                evaluator.observe_rows(category, rows, events=events)
                monitor.observe(category, rows)
            evaluator.tick()
            monitor.check(evaluator.moments, evaluator.events,
                          evaluator.ticks)
        assert monitor.alarm
        assert {a.category for a in monitor.alarms()} == {1}


class TestSpendAlpha:
    def test_geometric_series_sums_below_alpha(self):
        total = sum(spend_alpha(0.05, t) for t in range(1, 200))
        assert total <= 0.05 + 1e-12

    def test_harmonic_series_sums_below_alpha(self):
        total = sum(spend_alpha(0.05, t, scheme="harmonic")
                    for t in range(1, 100000))
        assert total <= 0.05 + 1e-12

    def test_geometric_underflow_is_exactly_zero(self):
        assert spend_alpha(0.05, 5000) == 0.0

    def test_geometric_deep_ticks_never_overflow(self):
        # Regression: `alpha / 2.0**tick` raised OverflowError for ticks
        # 1024-1074, crashing the resident daemon's consumer at tick 1024
        # deterministically.  The negative-exponent form underflows
        # gracefully instead.
        values = [spend_alpha(0.05, t) for t in range(1020, 1080)]
        assert all(v >= 0.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert spend_alpha(0.05, 1024) > 0.0
        assert spend_alpha(0.05, 1100) == 0.0

    def test_schemes_are_monotone_decreasing(self):
        for scheme in SPENDING_SCHEMES:
            values = [spend_alpha(0.05, t, scheme=scheme)
                      for t in range(1, 50)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(EvaluationError):
            spend_alpha(0.0, 1)
        with pytest.raises(EvaluationError):
            spend_alpha(0.05, 0)
        with pytest.raises(EvaluationError):
            spend_alpha(0.05, 1, scheme="bogus")
