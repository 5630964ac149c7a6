"""Stream interruption: drift wiring, graceful stop, lossless resume."""

import os
import signal

from repro.core.drift import DriftMonitor
from repro.hpc import MeasurementSession, SimBackend
from repro.hpc.session import MeasurementCache
from repro.resilience import GracefulShutdown

from .test_session_stream import assert_reports_match


class TestStreamDrift:
    def test_drift_monitor_sees_every_row(self, tiny_trained_model,
                                          digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=31)
        session = MeasurementSession(backend, warmup=0, cache=None)
        drift = DriftMonitor(window=6, threshold=1000.0)  # never alarms
        evaluator = session.stream(digits_dataset, [0, 1], 10,
                                   batch_size=5, drift=drift)
        # Windows hold min(stream, window) rows per category.
        assert drift.windows.categories == [0, 1]
        for category in (0, 1):
            assert drift.windows.count(category) == 6
            assert drift.windows.total_seen(category) == 10
        assert not drift.alarm
        assert evaluator.ticks == 2

    def test_drift_baseline_is_evaluator_state(self, tiny_trained_model,
                                               digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=33)
        session = MeasurementSession(backend, warmup=0, cache=None)
        drift = DriftMonitor(window=4, threshold=1000.0)
        evaluator = session.stream(digits_dataset, [0, 1], 8,
                                   batch_size=4, drift=drift)
        # The monitor's window content must be the tail of what the
        # evaluator accumulated (same rows, same order, same values).
        window = drift.windows.window(0)
        assert window.shape == (4, len(evaluator.events))
        assert evaluator.samples_seen(0) == 8


class TestGracefulStop:
    def test_should_stop_ends_at_round_boundary(self, tiny_trained_model,
                                                digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=34)
        session = MeasurementSession(backend, warmup=0, cache=None)
        rounds = []

        def stop_after_two():
            return len(rounds) >= 2

        evaluator = session.stream(digits_dataset, [0, 1], 12, batch_size=3,
                                   on_tick=rounds.append,
                                   should_stop=stop_after_two)
        assert evaluator.ticks == 2
        assert evaluator.samples_seen(0) == 6  # two of four rounds ran

    def test_killed_then_resumed_loses_no_samples(self, tiny_trained_model,
                                                  digits_dataset, tmp_path):
        """The satellite's contract: SIGTERM mid-stream, resume, and the
        final verdicts are bit-identical to an uninterrupted run."""
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=35)

        whole_session = MeasurementSession(
            backend, warmup=0, cache=MeasurementCache(tmp_path / "whole"))
        whole = whole_session.stream(digits_dataset, [0, 1], 12,
                                     batch_size=3)

        cache = MeasurementCache(tmp_path / "resumed")
        session = MeasurementSession(backend, warmup=0, cache=cache)
        ticks = []

        with GracefulShutdown() as stop:
            def deliver_sigterm(tick):
                ticks.append(tick)
                if tick.tick == 2:
                    # A real signal, exactly what `kill <pid>` delivers.
                    os.kill(os.getpid(), signal.SIGTERM)

            interrupted = session.stream(digits_dataset, [0, 1], 12,
                                         batch_size=3,
                                         on_tick=deliver_sigterm,
                                         should_stop=stop)
        assert stop.requested
        assert interrupted.ticks == 2
        assert interrupted.samples_seen(0) == 6

        # Resume: rounds 1-2 come from the checkpoint, 3-4 are measured.
        resumed = session.stream(digits_dataset, [0, 1], 12, batch_size=3)
        assert resumed.samples_seen(0) == 12
        assert resumed.ticks == whole.ticks
        assert_reports_match(resumed.report(), whole.report(), rel=0.0)
        assert ([r.to_dict() for r in resumed.alarm_latency()]
                == [r.to_dict() for r in whole.alarm_latency()])

    def test_stop_before_first_round_measures_nothing(
            self, tiny_trained_model, digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=36)
        session = MeasurementSession(backend, warmup=0, cache=None)
        evaluator = session.stream(digits_dataset, [0, 1], 8, batch_size=4,
                                   should_stop=lambda: True)
        assert evaluator.ticks == 0
        assert evaluator.samples_seen(0) == 0
