"""Tests for repro.core.experiment (orchestration + caching)."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    BACKENDS,
    ExperimentConfig,
    build_model,
    cifar_experiment,
    mnist_experiment,
    prepare_model,
    resolve_backend_choice,
    run_experiment,
)
from repro.errors import ConfigError


def tiny_config(tmp_path, **overrides):
    defaults = dict(
        dataset="mnist",
        categories=(0, 1),
        samples_per_category=3,
        train_samples_per_class=6,
        epochs=1,
        cache_dir=str(tmp_path),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_dataset_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="imagenet")

    def test_needs_two_categories(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(categories=(1,))

    @pytest.mark.parametrize("kwargs", [
        {"confidence": 1.5}, {"confidence": 1.0}, {"confidence": 0.0},
        {"confidence": -0.2}, {"samples_per_category": 1},
        {"samples_per_category": 0},
        {"confidence": 1.5, "samples_per_category": 1}])
    def test_statistics_validation(self, kwargs):
        # Rejected at construction, not after training and measuring.
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_display_map_is_one_based(self):
        config = ExperimentConfig(categories=(4, 2, 9))
        assert config.display_map() == {2: 1, 4: 2, 9: 3}

    def test_model_key_stable_and_sensitive(self, tmp_path):
        a = tiny_config(tmp_path)
        b = tiny_config(tmp_path)
        assert a.model_key() == b.model_key()
        c = tiny_config(tmp_path, epochs=2)
        assert c.model_key() != a.model_key()

    def test_generators(self):
        assert mnist_experiment().generator().name == "synthetic-mnist"
        assert cifar_experiment().generator().name == "synthetic-cifar"

    def test_engine_validation(self):
        assert ExperimentConfig().engine == "compiled"
        assert ExperimentConfig(engine="layers").engine == "layers"
        with pytest.raises(ConfigError):
            ExperimentConfig(engine="turbo")

    def test_engine_does_not_change_model_key(self, tmp_path):
        # The engine never changes values, so cached models stay shared.
        assert (tiny_config(tmp_path, engine="layers").model_key()
                == tiny_config(tmp_path, engine="compiled").model_key())

    def test_backend_validation(self):
        assert ExperimentConfig().backend == "sim"
        for name in BACKENDS:
            assert ExperimentConfig(backend=name).backend == name
        with pytest.raises(ConfigError):
            ExperimentConfig(backend="oscilloscope")

    def test_retries_validation(self):
        assert ExperimentConfig(retries=1).retries == 1
        with pytest.raises(ConfigError):
            ExperimentConfig(retries=0)

    def test_retry_policy_derivation(self):
        policy = ExperimentConfig(retries=4, noise_seed=9).retry_policy()
        assert policy.max_attempts == 4
        assert policy.seed == 9
        assert ExperimentConfig(retries=1).retry_policy() is None


class TestBackendResolution:
    def test_explicit_backends_pass_through(self, tmp_path):
        assert resolve_backend_choice(tiny_config(tmp_path)) == "sim"
        assert resolve_backend_choice(
            tiny_config(tmp_path, backend="perf")) == "perf"

    def test_auto_prefers_perf_when_available(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.core.experiment.perf_available",
                            lambda *a, **k: True)
        config = tiny_config(tmp_path, backend="auto")
        assert resolve_backend_choice(config) == "perf"

    def test_auto_degrades_to_sim_with_warning(self, tmp_path, monkeypatch):
        from repro import obs
        monkeypatch.setattr("repro.core.experiment.perf_available",
                            lambda *a, **k: False)
        obs.configure(obs.TelemetryConfig(enabled=True, console=False))
        try:
            config = tiny_config(tmp_path, backend="auto")
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert resolve_backend_choice(config) == "sim"
            snapshot = obs.active().snapshot()
            assert snapshot.counter_value("backend.fallback",
                                          requested="auto", used="sim") == 1.0
        finally:
            obs.reset()

    def test_auto_end_to_end_runs_on_sim_fallback(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr("repro.core.experiment.perf_available",
                            lambda *a, **k: False)
        with pytest.warns(RuntimeWarning):
            result = run_experiment(tiny_config(tmp_path, backend="auto"))
        assert result.backend.name == "sim"
        assert result.distributions.sample_count(0) == 3


class TestBuildModel:
    def test_mnist_architecture(self):
        model = build_model("mnist")
        assert model.input_shape == (1, 28, 28)
        assert model.output_shape == (10,)

    def test_cifar_architecture(self):
        model = build_model("cifar10")
        assert model.input_shape == (3, 32, 32)
        assert model.output_shape == (10,)

    def test_unknown_dataset(self):
        with pytest.raises(ConfigError):
            build_model("svhn")


class TestPrepareModel:
    def test_trains_and_caches(self, tmp_path):
        config = tiny_config(tmp_path)
        model, accuracy = prepare_model(config)
        assert 0.0 <= accuracy <= 1.0
        cached = list(tmp_path.glob("model-*.npz"))
        assert len(cached) == 1
        # Second call loads the exact same weights.
        reloaded, _ = prepare_model(config)
        assert reloaded.weights_fingerprint() == model.weights_fingerprint()

    def test_no_cache_dir_disables_caching(self, tmp_path):
        config = tiny_config(tmp_path, cache_dir="")
        prepare_model(config)
        assert list(tmp_path.glob("model-*.npz")) == []

    def test_corrupt_cached_model_is_evicted_and_retrained(self, tmp_path):
        # A torn archive (interrupted run, hard container stop) must read
        # as a miss, not crash the pipeline or poison later runs.
        config = tiny_config(tmp_path)
        model, _ = prepare_model(config)
        cached = list(tmp_path.glob("model-*.npz"))
        assert len(cached) == 1
        payload = cached[0].read_bytes()
        cached[0].write_bytes(payload[:-3])  # truncate, like a torn write
        retrained, _ = prepare_model(config)
        assert retrained.weights_fingerprint() == model.weights_fingerprint()
        # The repaired entry loads cleanly on the next run.
        reloaded, _ = prepare_model(config)
        assert reloaded.weights_fingerprint() == model.weights_fingerprint()

    def test_save_model_leaves_no_temp_files(self, tmp_path):
        config = tiny_config(tmp_path)
        prepare_model(config)
        assert list(tmp_path.glob("*.tmp-*")) == []


class TestRunExperiment:
    def test_end_to_end_tiny(self, tmp_path):
        result = run_experiment(tiny_config(tmp_path))
        assert result.distributions.categories == [0, 1]
        assert result.distributions.sample_count(0) == 3
        assert len(result.report.results) == 8  # 1 pair x 8 events
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_measurements_cached_across_runs(self, tmp_path):
        config = tiny_config(tmp_path)
        first = run_experiment(config)
        second = run_experiment(config)
        for event in first.distributions.events:
            np.testing.assert_array_equal(
                first.distributions.values(0, event),
                second.distributions.values(0, event))

    def test_noise_seed_changes_measurements(self, tmp_path):
        base = run_experiment(tiny_config(tmp_path))
        other = run_experiment(tiny_config(tmp_path, noise_seed=99))
        differs = any(
            not np.array_equal(base.distributions.values(0, event),
                               other.distributions.values(0, event))
            for event in base.distributions.events)
        assert differs
