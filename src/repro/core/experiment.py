"""End-to-end experiment orchestration.

Reproduces the paper's pipeline in one call:

1. generate the (synthetic) dataset and train the CNN classifier;
2. measure per-category HPC distributions through a backend;
3. run the Evaluator's pairwise t-tests and build the leakage report.

Trained models and measured distributions are cached on disk (keyed by
content fingerprints), so the figure/table benches and the examples share
one training + measurement pass.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..datasets.synthetic_cifar import SyntheticObjects
from ..datasets.synthetic_mnist import SyntheticDigits
from ..errors import ConfigError
from ..hpc.backend import HpcBackend
from ..hpc.distributions import EventDistributions
from ..hpc.perf_backend import PerfBackend, perf_available
from ..hpc.session import MeasurementCache, MeasurementSession
from ..hpc.sim_backend import SimBackend
from ..resilience.retry import RetryPolicy
from ..nn.engine import ENGINES
from ..nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from ..nn.model import Sequential
from ..nn.optimizers import Adam
from ..nn.serialization import load_model, save_model
from ..nn.trainer import Trainer
from ..obs import runtime as obs
from ..obs.profiling import profile_stage
from ..obs.runtime import TelemetryConfig
from ..trace.recorder import TraceConfig
from ..uarch.cpu import CpuConfig
from .evaluator import Evaluator
from .leakage import LeakageReport

#: Supported dataset identifiers.
DATASETS = ("mnist", "cifar10")

#: Supported measurement-backend identifiers.  ``"auto"`` degrades
#: gracefully: real ``perf`` where the host can count hardware events,
#: the simulated backend (with a logged warning) everywhere else.
BACKENDS = ("sim", "perf", "auto")

#: Bumped whenever the synthetic generators change, invalidating caches.
GENERATOR_VERSION = 2


def default_cache_dir() -> Path:
    """Shared artifact cache (override with ``REPRO_CACHE_DIR``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def default_samples_per_category() -> int:
    """Measurements per category (override with ``REPRO_SAMPLES``)."""
    return int(os.environ.get("REPRO_SAMPLES", "100"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines one experiment run.

    Attributes:
        dataset: ``"mnist"`` or ``"cifar10"``.
        categories: Model labels the Evaluator monitors (the paper uses four
            categories, displayed 1-4).
        samples_per_category: Measured classifications per category.
        train_samples_per_class: Training-set size per class.
        epochs: Training epochs.
        learning_rate: Adam learning rate.
        data_seed: Dataset-generation seed (training pool).
        eval_seed: Dataset-generation seed of the measured pool (held out).
        model_seed: Weight-initialization seed.
        noise_scale: Measurement-noise multiplier of the simulated backend.
        noise_seed: Measurement-noise seed.
        backend: Measurement backend — ``"sim"`` (default), ``"perf"``
            (real hardware counters; raises where unavailable) or
            ``"auto"`` (perf when the host can count hardware events,
            otherwise sim with a logged warning and a
            ``backend.fallback`` telemetry counter).
        retries: Attempts per individual measurement (>= 1); transient
            acquisition failures are retried under a deterministic
            backoff before failing the run.  Retries never change
            measured values, so they are absent from cache keys.
        workers: Measurement worker processes (1 = in-process collection;
            the worker count never changes the measured distributions).
        engine: Execution backend of the full pipeline — ``"compiled"``
            (default) trains through the fused
            :class:`repro.nn.engine.TrainPlan` and measures through the
            frozen inference plan, ``"layers"`` runs the layer-by-layer
            reference path for both.  The engine never changes trained
            weights, measured values or verdicts, only speed.
        trace_config: Trace-generation knobs.
        cpu_config: Simulated microarchitecture.
        confidence: Evaluator confidence level.
        cache_dir: Artifact cache directory ('' disables caching).
        telemetry: Optional :class:`repro.obs.TelemetryConfig`; when set,
            :func:`run_experiment` installs it as the active telemetry
            runtime before the pipeline starts (None keeps whatever runtime
            is active — by default the env-derived one, disabled).
    """

    dataset: str = "mnist"
    categories: Tuple[int, ...] = (1, 2, 3, 4)
    samples_per_category: int = field(
        default_factory=default_samples_per_category)
    train_samples_per_class: int = 40
    epochs: int = 6
    learning_rate: float = 0.002
    data_seed: int = 11
    eval_seed: int = 23
    model_seed: int = 7
    noise_scale: float = 1.0
    noise_seed: int = 5
    backend: str = "sim"
    retries: int = 3
    workers: int = 1
    engine: str = "compiled"
    trace_config: TraceConfig = field(default_factory=TraceConfig)
    cpu_config: CpuConfig = field(default_factory=CpuConfig)
    confidence: float = 0.95
    cache_dir: str = field(default_factory=lambda: str(default_cache_dir()))
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ConfigError(
                f"dataset must be one of {DATASETS}, got {self.dataset!r}"
            )
        if len(self.categories) < 2:
            raise ConfigError("need at least two monitored categories")
        if self.samples_per_category < 2:
            raise ConfigError(
                f"samples_per_category must be >= 2 (a t-test needs two "
                f"observations per category), got {self.samples_per_category}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(
                f"confidence must be in (0, 1), got {self.confidence}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.engine not in ENGINES:
            raise ConfigError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.retries < 1:
            raise ConfigError(f"retries must be >= 1, got {self.retries}")

    # ------------------------------------------------------------------
    # Derived pieces
    # ------------------------------------------------------------------

    def generator(self):
        """The dataset generator for :attr:`dataset`."""
        return SyntheticDigits() if self.dataset == "mnist" else SyntheticObjects()

    def display_map(self) -> Dict[int, int]:
        """Model label -> paper display index (1-based)."""
        return {cat: i + 1 for i, cat in enumerate(sorted(self.categories))}

    def retry_policy(self) -> Optional[RetryPolicy]:
        """The measurement retry policy (None when retries are off)."""
        if self.retries <= 1:
            return None
        return RetryPolicy(max_attempts=self.retries, seed=self.noise_seed)

    def model_key(self) -> str:
        """Fingerprint of everything that affects the trained model."""
        digest = hashlib.sha256()
        digest.update("|".join([
            f"gen{GENERATOR_VERSION}",
            self.dataset, str(self.train_samples_per_class), str(self.epochs),
            str(self.learning_rate), str(self.data_seed), str(self.model_seed),
        ]).encode())
        return digest.hexdigest()[:16]


def build_model(dataset: str, seed: int = 7) -> Sequential:
    """The paper-style CNN for one of the two datasets (built, untrained).

    Both are small valid-convolution stacks ending in a dense classifier —
    the same family as the paper's TensorFlow models, scaled to the
    simulated cache hierarchy (see DESIGN.md).
    """
    if dataset == "mnist":
        model = Sequential([
            Conv2D(8, 3, name="conv1"), ReLU(name="relu1"),
            MaxPool2D(2, name="pool1"),
            Conv2D(16, 3, name="conv2"), ReLU(name="relu2"),
            MaxPool2D(2, name="pool2"),
            Flatten(name="flatten"), Dense(10, name="fc"),
        ], name="mnist-cnn")
        return model.build((1, 28, 28), seed=seed)
    if dataset == "cifar10":
        model = Sequential([
            Conv2D(10, 3, name="conv1"), ReLU(name="relu1"),
            MaxPool2D(2, name="pool1"),
            Conv2D(16, 3, name="conv2"), ReLU(name="relu2"),
            MaxPool2D(2, name="pool2"),
            Flatten(name="flatten"), Dense(10, name="fc"),
        ], name="cifar10-cnn")
        return model.build((3, 32, 32), seed=seed)
    raise ConfigError(f"unknown dataset {dataset!r}")


@dataclass
class ExperimentResult:
    """Everything a figure/table bench needs.

    Attributes:
        config: The configuration that produced this result.
        model: The trained classifier.
        test_accuracy: Held-out accuracy of the classifier.
        distributions: Measured per-category event distributions.
        report: The Evaluator's leakage report.
        backend: The backend used (exposed for follow-up measurements).
    """

    config: ExperimentConfig
    model: Sequential
    test_accuracy: float
    distributions: EventDistributions
    report: LeakageReport
    backend: HpcBackend


def prepare_model(config: ExperimentConfig,
                  verbose: bool = False) -> Tuple[Sequential, float]:
    """Train the classifier (or load it from the cache).

    Returns:
        ``(model, held_out_accuracy)``.
    """
    cache_dir = Path(config.cache_dir) if config.cache_dir else None
    model_path = (cache_dir / f"model-{config.model_key()}.npz"
                  if cache_dir else None)
    generator = config.generator()
    dataset = generator.generate(config.train_samples_per_class,
                                 seed=config.data_seed)
    train, holdout = dataset.split(0.85, seed=config.data_seed + 1)
    if model_path is not None and model_path.exists():
        try:
            model = load_model(model_path)
        except Exception:
            # A torn archive (interrupted run, hard container stop) must
            # never poison the cache: evict it and retrain, mirroring
            # MeasurementCache.get's corruption handling.
            obs.inc("cache.corrupt", kind="model")
            obs.inc("cache.miss", kind="model")
            model_path.unlink(missing_ok=True)
        else:
            obs.inc("cache.hit", kind="model")
            trainer = Trainer(model, engine=config.engine)
            return model, trainer.evaluate(holdout.images, holdout.labels)
    elif model_path is not None:
        obs.inc("cache.miss", kind="model")
    model = build_model(config.dataset, seed=config.model_seed)
    trainer = Trainer(model, optimizer=Adam(config.learning_rate),
                      batch_size=32, shuffle_seed=config.model_seed,
                      engine=config.engine)
    trainer.fit(train.images, train.labels, epochs=config.epochs,
                verbose=verbose)
    accuracy = trainer.evaluate(holdout.images, holdout.labels)
    if model_path is not None:
        save_model(model, model_path)
        obs.inc("cache.write", kind="model")
    return model, accuracy


def resolve_backend_choice(config: ExperimentConfig) -> str:
    """Concrete backend for ``config.backend`` (resolves ``"auto"``).

    ``"auto"`` prefers real hardware counters and degrades gracefully:
    when the host cannot count hardware events the simulated backend is
    used instead, with a logged warning and a ``backend.fallback``
    telemetry counter so the degradation is visible in reports.
    """
    if config.backend != "auto":
        return config.backend
    if perf_available(retry=config.retry_policy()):
        return "perf"
    warnings.warn(
        "backend='auto': perf cannot count hardware events on this host; "
        "falling back to the simulated backend",
        RuntimeWarning, stacklevel=2)
    obs.inc("backend.fallback", requested="auto", used="sim")
    return "sim"


def make_backend(config: ExperimentConfig, model: Sequential) -> HpcBackend:
    """The measurement backend for this configuration.

    Honors ``config.backend`` (``"sim"``, ``"perf"`` or ``"auto"``) and
    attaches the configured retry policy where the backend supports it.
    """
    choice = resolve_backend_choice(config)
    if choice == "perf":
        return PerfBackend(model, retry=config.retry_policy())
    return SimBackend(
        model,
        trace_config=config.trace_config,
        cpu_config=config.cpu_config,
        noise_scale=config.noise_scale,
        seed=config.noise_seed,
        engine=config.engine,
    )


def measure_distributions(config: ExperimentConfig, backend: HpcBackend
                          ) -> EventDistributions:
    """Collect the per-category distributions for this configuration."""
    generator = config.generator()
    # The Evaluator measures fresh inputs, never the training data.
    eval_pool = generator.generate(config.samples_per_category,
                                   seed=config.eval_seed,
                                   categories=list(config.categories))
    cache = (MeasurementCache(Path(config.cache_dir))
             if config.cache_dir else None)
    session = MeasurementSession(backend, warmup=0, cache=cache,
                                 retry=config.retry_policy())
    return session.collect(eval_pool, list(config.categories),
                           config.samples_per_category,
                           cache_tag=f"gen{GENERATOR_VERSION}-eval-seed={config.eval_seed}",
                           workers=config.workers)


def run_experiment(config: Optional[ExperimentConfig] = None,
                   verbose: bool = False) -> ExperimentResult:
    """Execute the full pipeline for one configuration.

    When ``config.telemetry`` is set it becomes the active
    :mod:`repro.obs` runtime for this (and any later) run, so the pipeline
    stages emit a span tree — ``experiment.run`` with ``experiment.train``,
    ``experiment.measure`` and ``experiment.evaluate`` children — plus the
    cache/measurement/t-test counters underneath.
    """
    config = config or ExperimentConfig()
    if config.telemetry is not None:
        obs.configure(config.telemetry)
    with obs.span("experiment.run", dataset=config.dataset) as root:
        with obs.span("experiment.train") as stage:
            with profile_stage("train", span=stage):
                model, accuracy = prepare_model(config, verbose=verbose)
        obs.set_gauge("model.test_accuracy", accuracy)
        backend = make_backend(config, model)
        with obs.span("experiment.measure") as stage:
            with profile_stage("measure", span=stage):
                distributions = measure_distributions(config, backend)
        evaluator = Evaluator(confidence=config.confidence)
        with obs.span("experiment.evaluate") as stage:
            with profile_stage("evaluate", span=stage):
                report = evaluator.evaluate(distributions)
        root.set_attribute("accuracy", round(accuracy, 4))
        root.set_attribute("alarm", report.alarm)
    return ExperimentResult(
        config=config,
        model=model,
        test_accuracy=accuracy,
        distributions=distributions,
        report=report,
        backend=backend,
    )


@dataclass(frozen=True)
class StreamExperimentResult:
    """Everything a streaming (measure-and-evaluate-as-you-go) run produces.

    Unlike :class:`ExperimentResult` there are no retained distributions —
    the evaluator's O(k·e) accumulator state is all that survives the
    stream.  ``evaluator.report()`` materializes a batch-compatible
    :class:`~repro.core.leakage.LeakageReport` on demand.
    """

    config: ExperimentConfig
    model: Sequential
    test_accuracy: float
    evaluator: "StreamingEvaluator"
    backend: HpcBackend
    drift: Optional["DriftMonitor"] = None


def stream_experiment(config: Optional[ExperimentConfig] = None,
                      batch_size: int = 25,
                      verbose: bool = False,
                      on_tick=None,
                      drift_threshold: Optional[float] = None,
                      drift_window: int = 32,
                      should_stop=None) -> StreamExperimentResult:
    """Execute the measure-and-evaluate-as-you-go pipeline.

    Trains (or loads) the model like :func:`run_experiment`, then streams
    measurement rounds of ``batch_size`` samples per category through a
    :class:`~repro.core.streaming.StreamingEvaluator` — verdicts update
    after every round, alarm latency is recorded per (pair, event), and no
    sample is ever retained.

    Args:
        config: Experiment configuration (default: MNIST paper setup).
        batch_size: Measurements per category per evaluation tick.
        verbose: Print training progress.
        on_tick: Optional callback receiving each
            :class:`~repro.core.streaming.StreamTick`.
        drift_threshold: When set, run a
            :class:`~repro.core.drift.DriftMonitor` alongside the leakage
            evaluator and alarm at this |z| (requires ``workers == 1``).
        drift_window: Trailing rows per category for drift monitoring.
        should_stop: Optional zero-argument probe polled at round
            boundaries — see :meth:`MeasurementSession.stream`.
    """
    config = config or ExperimentConfig()
    if config.telemetry is not None:
        obs.configure(config.telemetry)
    with obs.span("experiment.stream", dataset=config.dataset,
                  batch_size=batch_size) as root:
        with obs.span("experiment.train") as stage:
            with profile_stage("train", span=stage):
                model, accuracy = prepare_model(config, verbose=verbose)
        obs.set_gauge("model.test_accuracy", accuracy)
        backend = make_backend(config, model)
        generator = config.generator()
        eval_pool = generator.generate(config.samples_per_category,
                                       seed=config.eval_seed,
                                       categories=list(config.categories))
        cache = (MeasurementCache(Path(config.cache_dir))
                 if config.cache_dir else None)
        session = MeasurementSession(backend, warmup=0, cache=cache,
                                     retry=config.retry_policy())
        drift = None
        if drift_threshold is not None:
            from .drift import DriftMonitor
            drift = DriftMonitor(window=drift_window,
                                 threshold=drift_threshold)
        with obs.span("experiment.measure") as stage:
            with profile_stage("stream", span=stage):
                evaluator = session.stream(
                    eval_pool, list(config.categories),
                    config.samples_per_category,
                    batch_size=batch_size,
                    confidence=config.confidence,
                    cache_tag=(f"gen{GENERATOR_VERSION}"
                               f"-eval-seed={config.eval_seed}"),
                    workers=config.workers,
                    on_tick=on_tick,
                    drift=drift,
                    should_stop=should_stop)
        root.set_attribute("accuracy", round(accuracy, 4))
        root.set_attribute("alarm", evaluator.alarm)
        if drift is not None:
            root.set_attribute("drift_alarms", len(drift.alarms()))
    return StreamExperimentResult(
        config=config,
        model=model,
        test_accuracy=accuracy,
        evaluator=evaluator,
        backend=backend,
        drift=drift,
    )


def mnist_experiment(**overrides) -> ExperimentConfig:
    """The paper's MNIST case-study configuration."""
    return ExperimentConfig(dataset="mnist", **overrides)


def cifar_experiment(**overrides) -> ExperimentConfig:
    """The paper's CIFAR-10 case-study configuration."""
    return ExperimentConfig(dataset="cifar10", **overrides)
