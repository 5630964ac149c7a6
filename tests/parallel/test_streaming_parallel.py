"""Parallel streaming rounds: exact equality with ``workers=1``.

A streamed round with ``workers > 1`` measures through the same keyed
loop as an in-process round, ships that round's readings back, and the
parent folds them through the same ``fold_round``.  Every test here
compares with ``np.array_equal`` — no tolerance — under both
multiprocessing start methods.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.drift import DriftMonitor
from repro.errors import MeasurementError
from repro.hpc import MeasurementSession, SimBackend
from repro.hpc.session import MeasurementCache, measure_keyed
from repro.parallel import executor, measure_categories_parallel

START_METHODS = [
    method for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]

CATEGORIES = [0, 1, 2]
SAMPLES = 12
BATCH = 6


@pytest.fixture
def pinned_start_method(request, monkeypatch):
    """Run every pool of the test under ``request.param``'s start method.

    ``stream`` has no start-method option (the pool prefers ``fork``), so
    the test pins the context the executor resolves.
    """
    context = multiprocessing.get_context(request.param)
    monkeypatch.setattr(executor, "resolve_context",
                        lambda prefer="fork": context)
    return request.param


def run_stream(session, dataset, workers, **kwargs):
    ticks = []
    evaluator = session.stream(dataset, CATEGORIES, SAMPLES,
                               batch_size=BATCH, workers=workers,
                               on_tick=ticks.append, **kwargs)
    return evaluator, ticks


def assert_arrays_equal(got, want):
    assert set(got) == set(want)
    for key in want:
        assert np.array_equal(np.asarray(got[key]), np.asarray(want[key])), key


def assert_streams_equal(got, want):
    got_evaluator, got_ticks = got
    want_evaluator, want_ticks = want
    assert_arrays_equal(got_evaluator.state(), want_evaluator.state())
    assert len(got_ticks) == len(want_ticks)
    for got_tick, want_tick in zip(got_ticks, want_ticks):
        assert got_tick.tick == want_tick.tick
        assert got_tick.samples == want_tick.samples
        assert got_tick.pairs == want_tick.pairs
        assert np.array_equal(got_tick.statistic, want_tick.statistic)
        assert np.array_equal(got_tick.p_value, want_tick.p_value)
        assert got_tick.new_detections == want_tick.new_detections
    assert got_evaluator.alarm_latency() == want_evaluator.alarm_latency()


def assert_readings_equal(got, want):
    # Event order included: the evaluator binds its columns to it.
    assert [list(counts.as_dict().items()) for counts in got] == \
        [list(counts.as_dict().items()) for counts in want]


class KeyedOnlyBackend:
    """A keyed backend without ``measure_batch`` / ``measure_clean_batch``.

    Drives the per-sample loops of the keyed measurement rule and records
    every noise key it is asked for (in-process only).
    """

    supports_noise_keys = True

    def __init__(self, inner):
        self.inner = inner
        self.keys = []

    def measure(self, sample, noise_key=None):
        self.keys.append(noise_key)
        return self.inner.measure(sample, noise_key=noise_key)


class TestStreamingMeasurement:
    def test_state_is_bit_reproducible(self, tiny_trained_model,
                                       digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=5)
        session = MeasurementSession(backend, warmup=2, cache=None)
        first = run_stream(session, digits_dataset, workers=2)
        second = run_stream(session, digits_dataset, workers=2)
        assert_streams_equal(first, second)

    @pytest.mark.parametrize("pinned_start_method", START_METHODS,
                             indirect=True)
    def test_start_method_does_not_change_state(self, tiny_trained_model,
                                                digits_dataset,
                                                pinned_start_method):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=5)
        session = MeasurementSession(backend, warmup=2, cache=None)
        baseline = run_stream(session, digits_dataset, workers=1)
        parallel = run_stream(session, digits_dataset, workers=2)
        assert len(baseline[1]) == SAMPLES // BATCH
        assert_streams_equal(parallel, baseline)

    def test_matches_sequential_measurement(self, tiny_trained_model,
                                            digits_dataset):
        # One parallel round returns exactly the readings the in-process
        # session measures at the same absolute offset.
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=7)
        session = MeasurementSession(backend, warmup=1, cache=None)
        samples = {category: digits_dataset.category(category).images[6:12]
                   for category in CATEGORIES}
        parallel = measure_categories_parallel(
            backend, samples, warmup=1, workers=3, index_base=6)
        assert sorted(parallel) == CATEGORIES
        for category, images in samples.items():
            assert_readings_equal(
                parallel[category],
                session.measure_category(images, category=category,
                                         index_base=6))

    def test_worker_count_equivalence(self, tiny_trained_model,
                                      digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=9)
        session = MeasurementSession(backend, warmup=2, cache=None)
        baseline = run_stream(session, digits_dataset, workers=1)
        for workers in (3, 4):
            assert_streams_equal(
                run_stream(session, digits_dataset, workers=workers),
                baseline)

    def test_index_base_shifts_noise_keys(self, tiny_trained_model,
                                          digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=11)
        samples = {0: digits_dataset.category(0).images[:4]}
        base = measure_categories_parallel(backend, samples, workers=2)
        shifted = measure_categories_parallel(backend, samples, workers=2,
                                              index_base=4)
        # Different absolute indices draw different per-sample noise ...
        assert base[0] != shifted[0]
        # ... and the shifted round matches the in-process path at the
        # same offset bit-exactly.
        session = MeasurementSession(backend, warmup=0)
        assert_readings_equal(
            shifted[0],
            session.measure_category(samples[0], category=0, index_base=4))

    def test_rejects_empty_and_bad_workers(self, tiny_trained_model,
                                           digits_dataset):
        backend = SimBackend(tiny_trained_model)
        with pytest.raises(MeasurementError):
            measure_categories_parallel(backend, {0: []}, workers=2)
        with pytest.raises(MeasurementError):
            measure_categories_parallel(backend, {0: [None]}, workers=0)
        session = MeasurementSession(backend, cache=None)
        with pytest.raises(MeasurementError):
            session.stream(digits_dataset, [0, 1], 4, workers=0)


class TestParallelDrift:
    @pytest.mark.parametrize("pinned_start_method", START_METHODS,
                             indirect=True)
    def test_drift_matches_in_process(self, tiny_trained_model,
                                      digits_dataset, pinned_start_method):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=32)
        session = MeasurementSession(backend, warmup=2, cache=None)
        runs = {}
        for workers in (1, 2):
            # A low threshold so the comparison covers raised alarms.
            drift = DriftMonitor(window=4, threshold=0.5)
            runs[workers] = (run_stream(session, digits_dataset, workers,
                                        drift=drift), drift)
        (sequential, want), (parallel, got) = runs[1], runs[2]
        assert want.alarm, "the threshold must raise drift alarms"
        assert_streams_equal(parallel, sequential)
        assert_arrays_equal(got.state(), want.state())
        for category in CATEGORIES:
            assert np.array_equal(got.windows.window(category),
                                  want.windows.window(category))
            assert got.windows.total_seen(category) == SAMPLES
            assert (got.windows.total_seen(category)
                    == want.windows.total_seen(category))
        assert got.alarm_rows() == want.alarm_rows()


class TestParallelResume:
    def test_interrupted_parallel_stream_resumes_in_process(
            self, tiny_trained_model, digits_dataset, tmp_path):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=24)
        whole_session = MeasurementSession(
            backend, warmup=1, cache=MeasurementCache(tmp_path / "whole"))
        whole = whole_session.stream(digits_dataset, CATEGORIES, SAMPLES,
                                     batch_size=3)

        class Boom(RuntimeError):
            pass

        def explode_on_third(tick):
            if tick.tick == 3:
                raise Boom()

        cache = MeasurementCache(tmp_path / "resumed")
        session = MeasurementSession(backend, warmup=1, cache=cache)
        with pytest.raises(Boom):
            session.stream(digits_dataset, CATEGORIES, SAMPLES,
                           batch_size=3, workers=2,
                           on_tick=explode_on_third)

        resumed_ticks = []
        resumed = session.stream(digits_dataset, CATEGORIES, SAMPLES,
                                 batch_size=3, workers=1,
                                 on_tick=resumed_ticks.append)
        # Rounds 1-2 came from the workers=2 checkpoint.
        assert [t.tick for t in resumed_ticks] == [3, 4]
        assert_arrays_equal(resumed.state(), whole.state())
        assert resumed.alarm_latency() == whole.alarm_latency()


class TestKeyedLoop:
    def test_chunk_shorter_than_warmup(self, tiny_trained_model,
                                       digits_dataset):
        # warmup=5 over chunks of 2: the chunk owning index 0 warms up on
        # the category's first five samples, like the in-process path.
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=41)
        samples = {category: digits_dataset.category(category).images[:6]
                   for category in (0, 1)}
        session = MeasurementSession(backend, warmup=5, cache=None)
        parallel = measure_categories_parallel(backend, samples, warmup=5,
                                               workers=3)
        for category, images in samples.items():
            assert_readings_equal(
                parallel[category],
                session.measure_category(images, category=category))

    def test_per_sample_paths_follow_the_same_rule(self, tiny_trained_model,
                                                   digits_dataset):
        inner = SimBackend(tiny_trained_model, noise_scale=1.0, seed=42)
        images = digits_dataset.category(3).images[:6]
        whole = KeyedOnlyBackend(inner)
        readings = measure_keyed(whole, images, 3, warmup=5)
        # Warm-up keys (3, 0..4), then the measured keys (3, 0..5).
        assert whole.keys == [(3, i) for i in range(5)] + \
            [(3, i) for i in range(6)]

        chunked = KeyedOnlyBackend(inner)
        pieces = [measure_keyed(chunked, images, 3, warmup=5, start=start,
                                stop=start + 2)
                  for start in (0, 2, 4)]
        # Only the chunk owning index 0 warms up.
        assert chunked.keys == whole.keys
        assert_readings_equal(sum(pieces, []), readings)

        later = KeyedOnlyBackend(inner)
        shifted = measure_keyed(later, images[:2], 3, warmup=5,
                                index_base=6)
        assert later.keys == [(3, 6), (3, 7)]  # no re-warm-up past index 0
        assert_readings_equal(shifted, [inner.measure(images[i],
                                                      noise_key=(3, 6 + i)
                                                      ).counts
                                        for i in range(2)])
        assert_readings_equal(
            readings, MeasurementSession(inner, warmup=5).measure_category(
                images, category=3))
