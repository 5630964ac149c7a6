"""Tests for MeasurementSession.stream (measure-and-evaluate-as-you-go)."""

import numpy as np
import pytest

from repro.core.evaluator import Evaluator
from repro.errors import MeasurementError
from repro.hpc import MeasurementSession, SimBackend
from repro.hpc.session import MeasurementCache


def assert_reports_match(stream_report, batch_report, rel=1e-9):
    assert len(stream_report.results) == len(batch_report.results)
    for got, want in zip(stream_report.results, batch_report.results):
        assert (got.event, got.category_a, got.category_b) == \
            (want.event, want.category_a, want.category_b)
        denom = max(abs(want.ttest.statistic), 1.0)
        assert abs(got.ttest.statistic - want.ttest.statistic) <= rel * denom
        assert got.distinguishable == want.distinguishable


class TestStream:
    def test_matches_one_shot_collect(self, tiny_trained_model,
                                      digits_dataset):
        # Absolute noise keys make the streamed rounds measure the exact
        # same values as one collect() pass, so the reports agree to
        # accumulator roundoff.
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=21)
        session = MeasurementSession(backend, warmup=2, cache=None)
        distributions = session.collect(digits_dataset, [0, 1, 2], 10)
        batch_report = Evaluator().evaluate(distributions)

        evaluator = session.stream(digits_dataset, [0, 1, 2], 10,
                                   batch_size=4)
        assert evaluator.ticks == 3  # rounds of 4, 4, 2
        assert [evaluator.samples_seen(c) for c in (0, 1, 2)] == [10] * 3
        assert_reports_match(evaluator.report(), batch_report)

    def test_parallel_stream_matches_sequential(self, tiny_trained_model,
                                                digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=22)
        session = MeasurementSession(backend, warmup=1, cache=None)
        sequential = session.stream(digits_dataset, [0, 1], 8, batch_size=4)
        parallel = session.stream(digits_dataset, [0, 1], 8, batch_size=4,
                                  workers=2)
        assert_reports_match(parallel.report(), sequential.report(),
                             rel=0.0)
        assert parallel.ticks == sequential.ticks

    def test_on_tick_sees_every_round(self, tiny_trained_model,
                                      digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=23)
        session = MeasurementSession(backend, warmup=0, cache=None)
        ticks = []
        session.stream(digits_dataset, [0, 1], 9, batch_size=3,
                       on_tick=ticks.append)
        assert [t.tick for t in ticks] == [1, 2, 3]
        assert ticks[-1].samples == {0: 9, 1: 9}

    def test_resume_from_checkpoint_is_bit_exact(self, tiny_trained_model,
                                                 digits_dataset, tmp_path):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=24)

        # Ground truth: an uninterrupted stream with its own cache.
        whole_session = MeasurementSession(
            backend, warmup=1, cache=MeasurementCache(tmp_path / "whole"))
        whole = whole_session.stream(digits_dataset, [0, 1], 8, batch_size=2)

        # Interrupt after the second round's tick: round 1 is already
        # checkpointed, round 2's state is not yet written.
        class Boom(RuntimeError):
            pass

        def explode_on_second(tick):
            if tick.tick == 2:
                raise Boom()

        cache = MeasurementCache(tmp_path / "resumed")
        session = MeasurementSession(backend, warmup=1, cache=cache)
        with pytest.raises(Boom):
            session.stream(digits_dataset, [0, 1], 8, batch_size=2,
                           on_tick=explode_on_second)

        resumed_ticks = []
        resumed = session.stream(digits_dataset, [0, 1], 8, batch_size=2,
                                 on_tick=resumed_ticks.append)
        # Only the rounds after the checkpoint re-ran.
        assert [t.tick for t in resumed_ticks] == [2, 3, 4]
        for key, value in whole.state().items():
            assert np.array_equal(value, resumed.state()[key]), key
        assert resumed.alarm_latency() == whole.alarm_latency()

    def test_completed_stream_state_is_instant_resume(self, tiny_trained_model,
                                                      digits_dataset,
                                                      tmp_path):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=25)
        session = MeasurementSession(backend, warmup=0,
                                     cache=MeasurementCache(tmp_path))
        first = session.stream(digits_dataset, [0, 1], 6, batch_size=3)
        ticks = []
        again = session.stream(digits_dataset, [0, 1], 6, batch_size=3,
                               on_tick=ticks.append)
        assert ticks == []  # no rounds re-ran
        for key, value in first.state().items():
            assert np.array_equal(value, again.state()[key]), key

    def test_validations(self, tiny_trained_model, digits_dataset):
        backend = SimBackend(tiny_trained_model)
        session = MeasurementSession(backend, cache=None)
        with pytest.raises(MeasurementError):
            session.stream(digits_dataset, [0, 1], 1)
        with pytest.raises(MeasurementError):
            session.stream(digits_dataset, [0, 1], 4, batch_size=0)
        with pytest.raises(MeasurementError):
            session.stream(digits_dataset, [0, 1], 4, workers=0)
        with pytest.raises(MeasurementError):
            session.stream(digits_dataset, [0], 10_000)  # not enough data


class TestCollectOnBatch:
    def test_on_batch_feeds_every_category(self, tiny_trained_model,
                                           digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=26)
        session = MeasurementSession(backend, warmup=0, cache=None)
        fed = []
        distributions = session.collect(
            digits_dataset, [0, 1, 2], 5,
            on_batch=lambda category, readings: fed.append(
                (category, len(readings))))
        assert sorted(fed) == [(0, 5), (1, 5), (2, 5)]
        assert distributions.sample_count(0) == 5

    def test_on_batch_parallel_path(self, tiny_trained_model,
                                    digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=27)
        session = MeasurementSession(backend, warmup=0, cache=None)
        fed = {}
        session.collect(digits_dataset, [0, 1], 4, workers=2,
                        on_batch=lambda category, readings: fed.setdefault(
                            category, len(readings)))
        assert fed == {0: 4, 1: 4}
