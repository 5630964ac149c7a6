"""Tests for repro.parallel (multi-core measurement collection)."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.hpc import MeasurementSession, SimBackend
from repro.parallel import (
    ChunkSpec,
    measure_categories_parallel,
    plan_chunks,
    resolve_context,
)


class TestPlanChunks:
    def test_covers_every_index_once(self):
        chunks = plan_chunks({0: 10, 1: 7, 5: 3}, workers=4)
        seen = {}
        for spec in chunks:
            for index in range(spec.start, spec.stop):
                key = (spec.category, index)
                assert key not in seen
                seen[key] = True
        assert len(seen) == 20

    def test_single_worker_is_one_chunk_per_category(self):
        chunks = plan_chunks({3: 12, 1: 5}, workers=1)
        assert chunks == [ChunkSpec(1, 0, 5), ChunkSpec(3, 0, 12)]

    def test_more_workers_than_samples(self):
        chunks = plan_chunks({0: 2}, workers=8)
        assert chunks == [ChunkSpec(0, 0, 1), ChunkSpec(0, 1, 2)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(MeasurementError):
            plan_chunks({0: 4}, workers=0)
        with pytest.raises(MeasurementError):
            plan_chunks({0: 0}, workers=2)

    def test_names_every_empty_category_up_front(self):
        # The plan must fail atomically: no chunks for the valid
        # categories, and one error naming *all* offenders.
        with pytest.raises(MeasurementError) as excinfo:
            plan_chunks({0: 5, 1: 0, 2: 3, 7: 0, 4: -2}, workers=2)
        assert "1, 4, 7" in str(excinfo.value)


class TestResolveContext:
    def test_returns_a_usable_context(self):
        context = resolve_context()
        assert context.get_start_method() in ("fork", "spawn", "forkserver")

    def test_unknown_method_falls_back_to_spawn(self):
        context = resolve_context("no-such-start-method")
        assert context.get_start_method() == "spawn"


class TestParallelMeasurement:
    def test_bit_identical_across_worker_counts(self, tiny_trained_model,
                                                digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=5)
        samples = {category: digits_dataset.category(category).images[:5]
                   for category in (0, 1, 2)}
        single = measure_categories_parallel(backend, samples, workers=1)
        quad = measure_categories_parallel(backend, samples, workers=4)
        assert single == quad

    def test_matches_sequential_session(self, tiny_trained_model,
                                        digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=9)
        session = MeasurementSession(backend, warmup=1)
        sequential = session.collect(digits_dataset, [0, 1], 5)
        parallel = session.collect(digits_dataset, [0, 1], 5, workers=2)
        for category in sequential.categories:
            for event in sequential.events:
                assert np.array_equal(sequential.values(category, event),
                                      parallel.values(category, event))

    def test_rejects_stream_noise_scheme(self, tiny_trained_model,
                                         digits_dataset):
        class SequentialNoiseBackend(SimBackend):
            """Stands in for a backend that draws noise in call order."""

            supports_noise_keys = False

        backend = SequentialNoiseBackend(tiny_trained_model)
        samples = {0: digits_dataset.category(0).images[:3]}
        with pytest.raises(MeasurementError):
            measure_categories_parallel(backend, samples, workers=2)

    def test_rejects_bad_worker_count(self, tiny_trained_model,
                                      digits_dataset):
        backend = SimBackend(tiny_trained_model)
        samples = {0: digits_dataset.category(0).images[:3]}
        with pytest.raises(MeasurementError):
            measure_categories_parallel(backend, samples, workers=0)

    def test_session_rejects_bad_worker_count(self, tiny_trained_model,
                                              digits_dataset):
        session = MeasurementSession(SimBackend(tiny_trained_model))
        with pytest.raises(MeasurementError):
            session.collect(digits_dataset, [0, 1], 4, workers=0)
