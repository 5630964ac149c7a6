"""One benchmark for the whole pipeline: batch verdicts and resident serve.

Usage (from the repository root)::

    python3 perfbench/run.py --workload evaluate-mnist-cold --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``evaluate-mnist-cold``, ``audit-cifar`` (see
``evaluate_workloads.py``) and ``serve-fleet``, ``serve-saturate`` (see
``serve_workloads.py``).  ``--trace 0`` measures and prints every
end-to-end metric; ``--trace 1`` wraps each layer's public entry points in
spans and prints every per-layer metric instead.  Both print one
``name value unit`` line per metric, then the run's correctness checks,
and end with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed check exits with status 1.

The full record (environment, checks, details) and, when traced, the
spans are written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before NumPy loads.  Every workload is single-core
# by design (workers=1); a BLAS pool on two shared cores spin-waits on its
# neighbours and measures the scheduler: a contended cold MNIST training
# ran 6-12x slower with the default pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("evaluate-mnist-cold", "audit-cifar", "serve-fleet",
             "serve-saturate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: Path):
    if name == "evaluate-mnist-cold":
        from evaluate_workloads import run_mnist_cold
        return run_mnist_cold(seed, seconds, trace)
    if name == "audit-cifar":
        from evaluate_workloads import run_audit_cifar
        return run_audit_cifar(seed, seconds, trace, scratch,
                               started=STARTED)
    from serve_workloads import run_serve
    return run_serve(name, seed, seconds, trace, started=STARTED)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(1, str(ROOT / "src"))
    import harness

    seed = args.seed % 2 ** 32
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"work-{args.workload}-{seed}"
    try:
        outcome = run_workload(args.workload, seed, args.seconds,
                               bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        catalogue = harness.PER_LAYER
        metrics = {name: 0.0 for name in catalogue}
        metrics.update({k: v for k, v in outcome.metrics.items()
                        if k in catalogue})
        metrics["bench.traced_latency_p50_ms"] = \
            outcome.metrics["latency_p50_ms"]
    else:
        catalogue = harness.END_TO_END
        metrics = {name: outcome.metrics[name] for name in catalogue}

    spans = outcome.details.pop("spans", None)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans))
    environment = harness.environment(ROOT)
    environment["reference_ms"] = harness.reference_ms()
    record = {"workload": args.workload, "seed": seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "checks": outcome.checks,
              "metrics": metrics, "all_metrics": outcome.metrics,
              "details": outcome.details}
    (out_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    for name, unit in catalogue.items():
        print(f"{name} {harness.finite(metrics[name]):.6g} {unit}")
    print("checks " + " ".join(f"{name}={'ok' if ok else 'FAILED'}"
                               for name, ok in outcome.checks.items()))
    print("details " + json.dumps(
        {k: v for k, v in outcome.details.items()
         if not isinstance(v, list) or len(v) <= 16}, default=str))
    print("environment " + json.dumps(environment, default=str))
    print(harness.result_line(outcome.correct, outcome.attempted,
                              outcome.failed, metrics, catalogue))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
