"""Load bench for the multi-tenant monitoring daemon (``repro serve``).

Synthetic producers drive every tenant at a configurable per-tenant round
rate while the daemon's consumers evaluate leakage and drift behind the
bounded admission queues.  The run measures sustained-load behaviour —
ingest latency percentiles, alarm lag, achieved vs target RPS, peak queue
memory — and writes the record to ``BENCH_serve.json``; CI's
``bench-smoke`` job uploads it as an artifact so the trajectory is
tracked per commit.

Asserted unconditionally:

* **no tenant failed**: ``daemon.failed`` is empty after the run (the
  message names any tenant whose consumer exhausted its restarts);
* **bounded queue memory**: the admission layer's peak buffered row
  bytes never exceed the configuration-time ceiling
  (``tenants * categories * capacity * batch * events * 8``);
* **verdict equivalence**: every tenant's post-run evaluator state —
  accumulator arrays *and* first-detection records — is bit-identical to
  an offline ``repro stream``-style replay of the same round sequence
  (``np.array_equal``, no tolerance);
* **alarms fire**: the synthetic leak is detected for every tenant, and
  the injected mean shift raises a drift alarm.

Environment knobs: ``REPRO_BENCH_SERVE_TENANTS`` (default 2),
``REPRO_BENCH_SERVE_ROUNDS`` (rounds per tenant, default 40),
``REPRO_BENCH_SERVE_BATCH`` (rows per category per round, default 25),
``REPRO_BENCH_SERVE_RPS`` (target rounds/s per tenant, default 25.0 —
0 disables pacing), ``REPRO_BENCH_SERVE_OUT`` (output path).
"""

import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.streaming import StreamingEvaluator
from repro.serve import (
    MonitorDaemon,
    ServeConfig,
    SyntheticTenantLoad,
    TenantSpec,
    run_load,
)
from repro.serve.load import percentile

TENANTS = int(os.environ.get("REPRO_BENCH_SERVE_TENANTS", "2"))
ROUNDS = int(os.environ.get("REPRO_BENCH_SERVE_ROUNDS", "40"))
BATCH = int(os.environ.get("REPRO_BENCH_SERVE_BATCH", "25"))
RPS = float(os.environ.get("REPRO_BENCH_SERVE_RPS", "25.0"))
OUT_PATH = Path(os.environ.get("REPRO_BENCH_SERVE_OUT", "BENCH_serve.json"))

SEED = 20260809
CATEGORIES = (0, 1, 2)
QUEUE_CAPACITY = 8
DRIFT_AFTER = max(2, (2 * ROUNDS) // 3)


def build_config():
    return ServeConfig(
        tenants=tuple(
            TenantSpec(f"tenant{i}", model=f"cnn-{i}",
                       categories=CATEGORIES)
            for i in range(TENANTS)),
        batch_size=BATCH,
        admission="block",
        queue_capacity=QUEUE_CAPACITY,
        drift_threshold=6.0,
        drift_window=32,
    )


def offline_replay(spec, config):
    """The `repro stream` twin of one tenant's daemon run."""
    load = SyntheticTenantLoad(spec, seed=SEED,
                               drift_after_round=DRIFT_AFTER)
    evaluator = StreamingEvaluator(confidence=config.confidence,
                                   method=config.method, events=spec.events)
    for index in range(ROUNDS):
        batches = load.round_batches(index, config.batch_size)
        for category in sorted(batches):
            evaluator.observe_rows(category, batches[category])
        if evaluator.ready:
            evaluator.tick()
    return evaluator


def test_serve_sustains_load_with_bounded_memory_and_exact_verdicts():
    config = build_config()

    async def main():
        daemon = MonitorDaemon(config)
        daemon.start()
        started = time.perf_counter()
        reports = await run_load(daemon, rounds=ROUNDS, rps=RPS, seed=SEED,
                                 drift_after_round=DRIFT_AFTER)
        elapsed = time.perf_counter() - started
        summary = await daemon.stop()
        return daemon, reports, summary, elapsed

    daemon, reports, summary, elapsed = asyncio.run(main())

    # Gate 0: every tenant survived the whole run.
    failures = "; ".join(f"{tenant}: {exc}" for tenant, exc
                         in sorted(daemon.failed.items()))
    assert not daemon.failed, f"tenants failed: {failures}"

    # Gate 1: queue memory stayed under the configured ceiling.
    peak = daemon.admission.peak_buffered_bytes
    ceiling = daemon.admission.capacity_bytes(BATCH)
    assert peak <= ceiling, (
        f"admission buffered {peak} bytes, ceiling is {ceiling}")

    # Gate 2: bit-exact verdict equivalence per tenant.
    per_tenant = []
    for spec in config.tenants:
        offline = offline_replay(spec, config)
        monitor = daemon.monitors[spec.tenant]
        got, want = monitor.evaluator.state(), offline.state()
        assert set(got) - {"serve/rounds"} == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), (spec.tenant, key)
        assert monitor.evaluator.alarm_latency_rows() \
            == offline.alarm_latency_rows()

        # Gate 3: the synthetic leak and injected drift are both caught.
        assert monitor.leakage_alarmed, f"{spec.tenant}: no leakage alarm"
        assert monitor.drift_alarmed, f"{spec.tenant}: no drift alarm"

        report = reports[spec.tenant]
        status = summary[spec.tenant]
        first_drift = min(
            (a.tick for a in monitor.drift.alarms()), default=None)
        per_tenant.append({
            "tenant": spec.tenant,
            "rounds": status["rounds"],
            "ticks": status["ticks"],
            "detections": status["detections"],
            "rounds_rejected": report.rounds_rejected,
            "ingest_latency_ms": {
                "p50": round(percentile(report.ingest_latency_ms, 50), 3),
                "p95": round(percentile(report.ingest_latency_ms, 95), 3),
                "p99": round(percentile(report.ingest_latency_ms, 99), 3),
            },
            "alarm_lag_ms_p95": round(
                percentile(report.alarm_lag_ms, 95), 3),
            "first_leakage_alarm_round": report.first_alarm_round,
            "leakage_alarm_tick": status["leakage_alarm_tick"],
            "first_drift_alarm_tick": first_drift,
            "monitor_bytes": status["memory_bytes"],
            "verdicts_bit_identical": True,
        })

    rps_achieved = ROUNDS / elapsed
    all_ingest = [lat for report in reports.values()
                  for lat in report.ingest_latency_ms]
    record = {
        "scenario": "multi-tenant serve under synthetic load",
        "tenants": TENANTS,
        "rounds_per_tenant": ROUNDS,
        "batch_size": BATCH,
        "categories": len(CATEGORIES),
        "events": len(config.tenants[0].events),
        "admission": config.admission,
        "queue_capacity": QUEUE_CAPACITY,
        "drift_injected_after_round": DRIFT_AFTER,
        "cpu_count": os.cpu_count(),
        "rps_target_per_tenant": RPS,
        "rps_achieved_per_tenant": round(rps_achieved, 2),
        "wall_s": round(elapsed, 3),
        "queue_peak_bytes": peak,
        "queue_ceiling_bytes": ceiling,
        "ingest_latency_ms": {
            "p50": round(percentile(all_ingest, 50), 3),
            "p95": round(percentile(all_ingest, 95), 3),
            "p99": round(percentile(all_ingest, 99), 3),
        },
        "per_tenant": per_tenant,
    }
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}: {TENANTS} tenants x {ROUNDS} rounds, "
          f"target {RPS:g} rps/tenant, achieved {rps_achieved:.1f}, "
          f"p95 ingest {record['ingest_latency_ms']['p95']:.2f} ms, "
          f"queue peak {peak}/{ceiling} bytes, verdicts bit-identical")

    if RPS > 0:
        # Pacing sanity: the paced run cannot beat its own target by
        # more than scheduling slack.
        assert rps_achieved <= RPS * 1.5 + 1.0
