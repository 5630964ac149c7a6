"""Tests for SimBackend.measure_batch — the engine-backed batch front end.

Policy and cold/warm sweeps live in
``tests/uarch/test_engine_invariance.py``; this module covers the
backend-level behaviours around the batch call itself: auto key
assignment, argument validation and the packed noise draw.
"""

import numpy as np
import pytest

from repro.errors import BackendError
from repro.hpc.sim_backend import DEFAULT_NOISE_FLOOR, SimBackend
from repro.uarch import HpcEvent


@pytest.fixture(scope="module")
def samples(digits_dataset):
    return [image for image in digits_dataset.category(1).images[:6]]


def assert_identical(want, got):
    assert len(want) == len(got)
    for a, b in zip(want, got):
        assert a.prediction == b.prediction
        assert all(a.counts[event] == b.counts[event] for event in a.counts)


class TestAutoKeys:
    def test_unkeyed_batch_matches_unkeyed_loop(self, tiny_trained_model,
                                                samples):
        # Unkeyed calls burn one auto index each; the
        # batch must consume the same indices in the same order.
        loop = SimBackend(tiny_trained_model)
        batch = SimBackend(tiny_trained_model)
        assert_identical([loop.measure(sample) for sample in samples],
                         batch.measure_batch(samples))
        # Auto index advanced equally: the next unkeyed call still agrees.
        assert_identical([loop.measure(samples[0])],
                         [batch.measure(samples[0])])


class TestNoiseScaleZero:
    def test_counts_are_exact(self, tiny_trained_model, samples):
        loop = SimBackend(tiny_trained_model, noise_scale=0.0)
        batch = SimBackend(tiny_trained_model, noise_scale=0.0)
        assert_identical([loop.measure(sample) for sample in samples],
                         batch.measure_batch(samples))


class TestValidation:
    def test_empty_batch(self, tiny_trained_model):
        assert SimBackend(tiny_trained_model).measure_batch([]) == []

    def test_key_count_must_match(self, tiny_trained_model, samples):
        backend = SimBackend(tiny_trained_model)
        with pytest.raises(BackendError):
            backend.measure_batch(samples[:3], noise_keys=[(0, 0)])


class TestRetrySessionRouting:
    def test_retry_session_still_takes_batched_path(self, tiny_trained_model,
                                                    samples):
        # The default pipeline configures retries=3; a retry policy on a
        # deterministic backend must not silently kick the session back
        # to the per-sample loop.
        from repro.hpc import MeasurementSession
        from repro.resilience import RetryPolicy

        backend = SimBackend(tiny_trained_model)
        session = MeasurementSession(backend, warmup=0,
                                     retry=RetryPolicy(max_attempts=3))
        calls = []
        original = backend.measure
        backend.measure = lambda *a, **k: calls.append(1) or original(*a, **k)
        counts = session.measure_category(samples, category=0)
        assert not calls, "retry session fell back to the per-sample loop"

        plain = MeasurementSession(SimBackend(tiny_trained_model), warmup=0)
        want = plain.measure_category(samples, category=0)
        for a, b in zip(want, counts):
            assert all(a[event] == b[event] for event in a)

    def test_failing_batch_falls_back_to_retried_loop(self, tiny_trained_model,
                                                      samples):
        from repro.hpc import MeasurementSession
        from repro.resilience import RetryPolicy

        class BrokenBatchBackend(SimBackend):
            def measure_batch(self, batch, noise_keys=None):
                raise BackendError("injected batch failure")

        session = MeasurementSession(BrokenBatchBackend(tiny_trained_model),
                                     warmup=0,
                                     retry=RetryPolicy(max_attempts=3))
        counts = session.measure_category(samples, category=0)
        plain = MeasurementSession(SimBackend(tiny_trained_model), warmup=0)
        want = plain.measure_category(samples, category=0)
        for a, b in zip(want, counts):
            assert all(a[event] == b[event] for event in a)

    def test_failing_batch_without_retry_raises(self, tiny_trained_model,
                                                samples):
        from repro.hpc import MeasurementSession

        class BrokenBatchBackend(SimBackend):
            def measure_batch(self, batch, noise_keys=None):
                raise BackendError("injected batch failure")

        session = MeasurementSession(BrokenBatchBackend(tiny_trained_model),
                                     warmup=0)
        with pytest.raises(BackendError):
            session.measure_category(samples, category=0)


def scalar_noisy(backend, counts, rng):
    """The per-event scalar noise loop the packed draw replaced."""
    noisy = {}
    for event in counts:
        value = float(counts[event])
        rel = backend.noise_profile.get(event, 0.002) * backend.noise_scale
        floor = DEFAULT_NOISE_FLOOR.get(event, 0.0) * backend.noise_scale
        jitter = rng.normal(0.0, rel * value) if rel else 0.0
        offset = abs(rng.normal(0.0, floor)) if floor else 0.0
        noisy[event] = max(0, int(round(value + jitter + offset)))
    return noisy


class TestPackedNoise:
    def test_packed_draw_equals_scalar_draws(self, tiny_trained_model,
                                             samples):
        # _noisy_packed must consume the generator bit stream exactly like
        # the per-event scalar loop, skipping zero-noise draws the same
        # way, so every measured value and every cache written before the
        # packed draw stays valid.
        clean = SimBackend(tiny_trained_model).measure_clean(
            samples[0]).counts
        for profile in (None, {HpcEvent.CYCLES: 0.0, HpcEvent.BRANCHES: 0.0}):
            backend = SimBackend(tiny_trained_model, noise_profile=profile)
            for key in [(3, 7), (0, 0), (-1, 12)]:
                want = scalar_noisy(backend, clean, backend._noise_rng(key))
                got = backend._noisy_packed(clean, backend._noise_rng(key))
                assert list(got) == list(want)
                assert all(got[event] == want[event] for event in want)
        # Keyed measurements of both front ends draw exactly that noise.
        key = (3, 7)
        want = backend.measure(samples[0], noise_key=key)
        got = backend.measure_batch([samples[0]], noise_keys=[key])[0]
        assert_identical([want], [got])
