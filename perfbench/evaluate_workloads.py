"""The two batch-evaluation workloads: cold MNIST verdicts, CIFAR audit.

``evaluate-mnist-cold`` runs the ROADMAP baseline (MNIST, categories 1-4,
40 samples per category, 6 epochs, sim backend, cache off) once per
repetition in a fresh interpreter, because every ``repro evaluate`` call
pays first-call costs.  The child is this file run as a script.

``audit-cifar`` trains the CIFAR victim into a private model cache during
set-up; each repetition then loads it, generates a fresh eval pool,
measures all 10 categories without a measurement cache and evaluates the
360 (pair, event) tests.

The workload seed sets ``eval_seed`` and ``noise_seed``; model seeds stay
at the paper config, so there is one victim model per dataset.  Both run
with ``workers=1``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import Outcome, Tracer, Window  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

MNIST = dict(dataset="mnist", categories=(1, 2, 3, 4),
             samples_per_category=40, epochs=6, backend="sim", workers=1,
             cache_dir="")
CIFAR = dict(dataset="cifar10", categories=tuple(range(10)),
             samples_per_category=20, epochs=6, backend="sim", workers=1)

#: Verdicts slower than this miss the goodput limit (seconds).
GOODPUT_LIMIT_S = {"evaluate-mnist-cold": 10.0, "audit-cifar": 20.0}
OP = "verdict (config to LeakageReport)"
#: Set-up repetitions of the CIFAR victim training.
CIFAR_SETUPS = 3
#: Per-verdict layers, in pipeline order.
LAYERS = ("datasets", "nn.train", "nn.load", "nn.infer", "trace", "uarch",
          "hpc", "core.evaluator")


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans (this process only).

    Counts ride on the spans: dataset samples, training samples, trace
    ops and memory accesses, replayed ops, measurements, retries and
    evaluated tests.
    """
    from repro.core import experiment
    from repro.core.evaluator import Evaluator
    from repro.datasets.synthetic_cifar import SyntheticObjects
    from repro.datasets.synthetic_mnist import SyntheticDigits
    from repro.hpc.session import MeasurementSession
    from repro.nn.trainer import Trainer
    from repro.resilience.retry import RetryPolicy
    from repro.trace.traced_model import TracedInference
    from repro.uarch.engine import MeasurementPlan

    def note(**counters):
        def add(span, args, kwargs, result):
            for key, count in counters.items():
                span.attrs[key] = count(args, kwargs, result)
        return add

    for cls in (SyntheticDigits, SyntheticObjects):
        cls.generate = tracer.wrap("datasets", cls.generate, note(
            samples=lambda a, k, r: len(r)))
    Trainer.fit = tracer.wrap("nn.train", Trainer.fit, note(
        samples=lambda a, k, r: len(a[1]) * k.get(
            "epochs", a[3] if len(a) > 3 else 5)))
    Trainer.evaluate = tracer.wrap("nn.infer", Trainer.evaluate)
    experiment.load_model = tracer.wrap("nn.load", experiment.load_model)
    TracedInference.trace_sample = tracer.wrap(
        "trace", TracedInference.trace_sample, note(
            ops=lambda a, k, r: len(r[1].ops),
            mem_accesses=lambda a, k, r: r[1].memory_accesses))
    MeasurementPlan.replay_batch = tracer.wrap(
        "uarch", MeasurementPlan.replay_batch, note(
            ops=lambda a, k, r: sum(len(t.ops) for t in a[1])))
    MeasurementSession.collect = tracer.wrap(
        "hpc", MeasurementSession.collect, note(
            measurements=lambda a, k, r: sum(
                r.sample_count(c) for c in r.categories)))
    Evaluator.evaluate = tracer.wrap("core.evaluator", Evaluator.evaluate,
                                     note(tests=lambda a, k, r:
                                          len(r.results)))
    original_call = RetryPolicy.call

    def counted_call(self, operation, *args, **kwargs):
        calls = [0]

        def attempt():
            calls[0] += 1
            return operation()
        try:
            return original_call(self, attempt, *args, **kwargs)
        finally:
            tracer.count("hpc.retries", max(0, calls[0] - 1))

    RetryPolicy.call = counted_call


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the evaluate workloads from recorded spans."""
    busy = harness.per_root(tracer, LAYERS)

    def count(name: str, key: str) -> float:
        return harness.per_root(
            tracer, [name], lambda span, _: span.attrs.get(key, 0))[name]

    def rate(name: str, key: str) -> float:
        work = sum(s.attrs.get(key, 0) for s in tracer.by_name(name))
        busy_s = sum(s.duration for s in tracer.by_name(name))
        return work / busy_s if busy_s else 0.0

    verdicts = tracer.by_name("verdict")
    self_times = tracer.self_times()
    return {
        "datasets.busy_s": busy["datasets"],
        "datasets.samples": count("datasets", "samples"),
        "nn.train.busy_s": busy["nn.train"],
        "nn.train.samples_per_s": rate("nn.train", "samples"),
        "nn.load.busy_s": busy["nn.load"],
        "nn.infer.busy_s": busy["nn.infer"],
        "trace.busy_s": busy["trace"],
        "trace.ops": count("trace", "ops"),
        "trace.mem_accesses": count("trace", "mem_accesses"),
        "uarch.busy_s": busy["uarch"],
        "uarch.ops_per_s": rate("uarch", "ops"),
        "hpc.self_s": busy["hpc"],
        "hpc.measurements": count("hpc", "measurements"),
        "hpc.retries": tracer.counters.get("hpc.retries", 0.0),
        "core.evaluator.busy_s": busy["core.evaluator"],
        "core.evaluator.tests": count("core.evaluator", "tests"),
        # Verdict time outside every layer span: glue and model build.
        "bench.unattributed_share": (
            sum(self_times[s.id] for s in verdicts)
            / max(1e-12, sum(s.duration for s in verdicts))),
        "bench.spans": float(len(tracer.spans)),
    }


def digest(distributions) -> str:
    """sha256 over every reading, in category and event order."""
    h = hashlib.sha256()
    for category in distributions.categories:
        for event in distributions.events:
            h.update(f"{category}:{event}".encode())
            h.update(distributions.values(category, event).tobytes())
    return h.hexdigest()


def verdict_checks(report) -> Dict[str, bool]:
    from repro.uarch.events import HpcEvent
    return {"alarm": bool(report.alarm),
            "cache_misses_rejects":
                report.rejection_count(HpcEvent.CACHE_MISSES) >= 1}


# ----------------------------------------------------------------------
# evaluate-mnist-cold
# ----------------------------------------------------------------------

def child_main(argv: List[str]) -> int:
    """One cold ``repro evaluate``; prints a JSON record on stdout."""
    spawned, seed, trace = float(argv[0]), int(argv[1]), argv[2] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.experiment import ExperimentConfig, run_experiment
    ready = time.monotonic()
    tracer = Tracer()
    if trace:
        instrument(tracer)
    started, cpu_started = time.perf_counter(), time.process_time()
    with tracer.span("verdict", round_id=0):
        config = ExperimentConfig(eval_seed=seed, noise_seed=seed, **MNIST)
        result = run_experiment(config)
    verdict_s = time.perf_counter() - started
    record = {
        "setup_s": ready - spawned,
        "verdict_s": verdict_s,
        "cpu_s": time.process_time() - cpu_started,
        "samples": sum(result.distributions.sample_count(c)
                       for c in result.distributions.categories),
        "digest": digest(result.distributions),
        "checks": verdict_checks(result.report),
        "rss_mb": harness.peak_rss_mb(),
    }
    if trace:
        record["layers"] = layer_metrics(tracer)
        record["spans"] = [span.to_dict() for span in tracer.spans]
    print(json.dumps(record))
    return 0


def spawn_child(seed: int, trace: bool) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         repr(time.monotonic()), str(seed), "1" if trace else "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=150)


def run_mnist_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    # One discarded child first: bytecode compilation and the OS file
    # cache are filled once per checkout, not paid by every user run.
    spawn_child(seed, False)
    records: List[dict] = []
    errors: List[str] = []

    def one(_: int) -> Window:
        proc = spawn_child(seed, trace)
        if proc.returncode != 0:
            errors.append(proc.stderr.strip()[-500:])
            harness.log(f"evaluate child failed: {proc.stderr[-2000:]}")
            return Window([], 0, 0.0)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        records.append(record)
        return Window([record["verdict_s"] * 1e3], record["samples"],
                      record["cpu_s"])

    windows = harness.timed_windows(seconds, one)
    checks = merge_checks([r["checks"] for r in records])
    checks["bit_identical_reps"] = len({r["digest"] for r in records}) == 1
    outcome = harness.window_outcome(
        windows, len(windows), GOODPUT_LIMIT_S["evaluate-mnist-cold"] * 1e3,
        setup_s=harness.median([r["setup_s"] for r in records]),
        rss_mb=max([r["rss_mb"] for r in records], default=0.0),
        checks=checks, details={"op": OP, "errors": errors})
    if trace:
        outcome.metrics.update(mean_layers([r["layers"] for r in records]))
        outcome.details["spans"] = [r["spans"] for r in records]
    return outcome


# ----------------------------------------------------------------------
# audit-cifar
# ----------------------------------------------------------------------

def run_audit_cifar(seed: int, seconds: float, trace: bool,
                    scratch: Path, started: float) -> Outcome:
    from repro.core.evaluator import Evaluator
    from repro.core.experiment import (ExperimentConfig, make_backend,
                                       measure_distributions, prepare_model)
    imports_s = time.perf_counter() - started
    tracer = Tracer()
    if trace:
        instrument(tracer)
    cache = scratch / "model-cache"
    config = ExperimentConfig(eval_seed=seed, noise_seed=seed,
                              cache_dir=str(cache), **CIFAR)
    # Measure with no measurement cache: every verdict's pool is fresh.
    measure_config = ExperimentConfig(eval_seed=seed, noise_seed=seed,
                                      cache_dir="", **CIFAR)
    setups: List[float] = []
    digests: List[str] = []
    per_verdict: List[Dict[str, bool]] = []

    def one(index: int) -> Window:
        began, cpu_began = time.perf_counter(), time.process_time()
        with tracer.span("verdict", round_id=index):
            model, _ = prepare_model(config)
            distributions = measure_distributions(
                measure_config, make_backend(measure_config, model))
            report = Evaluator(
                confidence=config.confidence).evaluate(distributions)
        verdict_s = time.perf_counter() - began
        cpu_s = time.process_time() - cpu_began
        digests.append(digest(distributions))
        per_verdict.append(verdict_checks(report))
        per_verdict[-1]["all_tests_run"] = len(report.results) == 360
        samples = sum(distributions.sample_count(c)
                      for c in distributions.categories)
        return Window([verdict_s * 1e3], samples, cpu_s)

    try:
        for index in range(CIFAR_SETUPS):
            shutil.rmtree(cache, ignore_errors=True)
            began = time.perf_counter()
            with tracer.span("setup", round_id=f"setup{index}"):
                prepare_model(config)
            setups.append(time.perf_counter() - began)
        windows = harness.timed_windows(seconds, one)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    checks = merge_checks(per_verdict)
    checks["bit_identical_reps"] = len(set(digests)) == 1
    outcome = harness.window_outcome(
        windows, len(windows), GOODPUT_LIMIT_S["audit-cifar"] * 1e3,
        setup_s=imports_s + harness.median(setups),
        rss_mb=harness.peak_rss_mb(), checks=checks,
        details={"op": OP, "setup_reps_s": setups})
    if trace:
        outcome.metrics.update(layer_metrics(tracer))
        outcome.details["spans"] = [s.to_dict() for s in tracer.spans]
    return outcome


# ----------------------------------------------------------------------
# Shared
# ----------------------------------------------------------------------

def merge_checks(per_rep: List[Dict[str, bool]]) -> Dict[str, bool]:
    merged: Dict[str, bool] = {"ran": bool(per_rep)}
    for checks in per_rep:
        for name, ok in checks.items():
            merged[name] = merged.get(name, True) and ok
    return merged


def mean_layers(layers: List[Dict[str, float]]) -> Dict[str, float]:
    if not layers:
        return {}
    return {name: sum(layer[name] for layer in layers) / len(layers)
            for name in layers[0]}


if __name__ == "__main__" and sys.argv[1:2] == ["--child"]:
    sys.exit(child_main(sys.argv[2:]))
