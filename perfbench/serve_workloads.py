"""The two resident-monitor workloads: an open-loop fleet, a saturated pool.

Both run :class:`repro.serve.MonitorDaemon` with the ``repro serve``
defaults (geometric spending, block admission, drift alarms at |z| >= 5
over a 32-row window, 25 rows per category per round) on rows generated
in set-up from :class:`repro.serve.SyntheticTenantLoad` and the workload
seed.

Both run episodes, one daemon lifetime each, until the run's seconds
pass.  A reference-kernel measurement brackets every episode (see
:func:`harness.timed_windows`).

``serve-fleet`` (open loop): each episode is a cohort of 8 three-category
tenants, half offered 32 rounds and half 96 (well past the tick-46 crash
of today's geometric spending), driven from one polling asyncio producer
at a fixed aggregate rate.  Each round is timed from its due time to its
``on_outcome`` callback.

``serve-saturate`` (closed loop): each episode runs 4 ten-category
tenants, offered 32 or 64 rounds each (the crash hits at tick 42), with
one unpaced producer per tenant and 2-round shards, so producers block on
full queues.  Each round is timed from its ``submit_round`` call to its
outcome.

A :class:`TenantFailure` from ``submit_round`` counts its round as
failed, as does an admitted round whose tenant died before ingesting it;
the run goes on.  Failed tenants are listed by name and left out of the
offline-replay equivalence check.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import harness
from harness import Outcome, Tracer

BATCH = 25
DRIFT_THRESHOLD = 5.0
DRIFT_WINDOW = 32

FLEET_CATEGORIES = 3
FLEET_COHORT = 8
FLEET_LIFETIMES = (32, 96)
#: Aggregate offered rate, about half of one core's 3-category ingest
#: capacity (~2.9 ms per round on a 2-core x86-64 box).
FLEET_RATE = 150.0
#: Goodput limit of one fleet round, due time to outcome.
FLEET_LIMIT_MS = 100.0

SAT_CATEGORIES = 10
SAT_LIFETIMES = (32, 64, 32, 64)
SAT_CAPACITY = 2
#: Goodput limit of one saturated round, submit to outcome.
SAT_LIMIT_MS = 250.0

SETUP_REPS = 3

Key = Tuple[str, int]


def serve_config(names: List[str], categories: int, capacity: int):
    from repro.serve import ServeConfig, TenantSpec
    return ServeConfig(
        tenants=tuple(TenantSpec(name, categories=tuple(range(categories)))
                      for name in names),
        batch_size=BATCH, admission="block", queue_capacity=capacity,
        drift_threshold=DRIFT_THRESHOLD, drift_window=DRIFT_WINDOW)


def generate_rows(config, lifetimes: Dict[str, int], seed: int
                  ) -> Dict[Key, Dict[int, np.ndarray]]:
    from repro.serve import SyntheticTenantLoad
    rows = {}
    for spec in config.tenants:
        load = SyntheticTenantLoad(spec, seed=seed)
        for index in range(lifetimes[spec.tenant]):
            rows[(spec.tenant, index)] = load.round_batches(index, BATCH)
    return rows


class Recorder:
    """Outcome callback plus the per-round bookkeeping of one run."""

    def __init__(self):
        self.done_at: Dict[Key, float] = {}
        self.outcomes: Dict[str, List[int]] = {}

    def on_outcome(self, outcome) -> None:
        self.done_at[(outcome.tenant, outcome.round_index)] = \
            time.perf_counter()
        self.outcomes.setdefault(outcome.tenant, []).append(
            outcome.round_index)


def instrument_daemon(tracer: Tracer, daemon, episode: int) -> None:
    """Spans around the public methods of one daemon and its monitors.

    ``serve.queues.admit`` is the time inside ``submit_round``;
    ``serve.queues.wait`` runs from its return to the start of the
    round's first ``ingest_round``, which holds ``tick``, ``report`` and
    the drift ``check``.  All spans of a round carry ``(episode, tenant,
    index)``.
    """
    admitted_at: Dict[tuple, float] = {}
    submit = daemon.submit_round

    async def traced_submit(round_):
        key = (episode, round_.tenant, round_.index)
        with tracer.span("serve.queues.admit", round_id=key):
            try:
                return await submit(round_)
            finally:
                admitted_at[key] = tracer.clock()

    daemon.submit_round = traced_submit
    for monitor in daemon.monitors.values():
        ingest = monitor.ingest_round

        def traced_ingest(round_, ingest=ingest):
            key = (episode, round_.tenant, round_.index)
            if key in admitted_at:
                tracer.add("serve.queues.wait", admitted_at.pop(key),
                           tracer.clock(), round_id=key)
            with tracer.span("serve.monitor.ingest", round_id=key):
                return ingest(round_)

        monitor.ingest_round = traced_ingest
        evaluator = monitor.evaluator
        evaluator.tick = tracer.wrap("core.streaming.tick", evaluator.tick)
        evaluator.report = tracer.wrap("core.streaming.report",
                                       evaluator.report)
        if monitor.drift is not None:
            monitor.drift.check = tracer.wrap("core.drift.check",
                                              monitor.drift.check)


def offline_replay(spec, config, rows: Dict[Key, Dict[int, np.ndarray]],
                   rounds: int):
    """The ``repro stream`` twin of one tenant's daemon run."""
    from repro.core.streaming import StreamingEvaluator
    evaluator = StreamingEvaluator(confidence=config.confidence,
                                   method=config.method, events=spec.events)
    for index in range(rounds):
        batches = rows[(spec.tenant, index)]
        for category in sorted(batches):
            evaluator.observe_rows(category, batches[category])
        if evaluator.ready:
            evaluator.tick()
    return evaluator


def matches_replay(monitor, offline) -> bool:
    got, want = monitor.evaluator.state(), offline.state()
    return (set(got) == set(want)
            and all(np.array_equal(got[key], want[key]) for key in want)
            and monitor.evaluator.alarm_latency_rows()
            == offline.alarm_latency_rows())


class DaemonAudit:
    """Correctness checks and failure accounting over finished daemons."""

    def __init__(self, rows, lifetimes: Dict[str, int]):
        self.rows = rows
        self.lifetimes = lifetimes
        self.replays: Dict[str, object] = {}
        self.checks = {"equivalent": True, "queue_bounded": True,
                       "leak_alarms": True, "some_tenant_checked": False}
        self.failed_tenants: List[str] = []
        self.restarts = self.refolded = self.rejected = 0
        self.peak_bytes = self.monitor_bytes = 0

    def add(self, daemon, recorder: Recorder) -> None:
        admission = daemon.admission
        self.checks["queue_bounded"] &= (
            admission.peak_buffered_bytes
            <= admission.capacity_bytes(daemon.config.batch_size))
        self.peak_bytes = max(self.peak_bytes,
                              admission.peak_buffered_bytes)
        self.rejected += sum(admission.rejected.values())
        self.monitor_bytes = sum(monitor.memory_bytes()
                                 for monitor in daemon.monitors.values())
        for spec in daemon.config.tenants:
            tenant = spec.tenant
            monitor = daemon.monitors[tenant]
            self.restarts += daemon.restarts[tenant]
            done = len(recorder.outcomes.get(tenant, ()))
            failed = tenant in daemon.failed
            # Folds beyond the distinct rounds ingested: a crashing round
            # is folded again by every consumer restart.
            distinct = done + int(failed and monitor.rounds_ingested > done)
            self.refolded += monitor.rounds_ingested - distinct
            if failed:
                self.failed_tenants.append(tenant)
                continue
            rounds = self.lifetimes[tenant]
            if tenant not in self.replays:
                self.replays[tenant] = offline_replay(
                    spec, daemon.config, self.rows, rounds)
            self.checks["some_tenant_checked"] = True
            self.checks["equivalent"] &= (
                done == rounds and matches_replay(monitor,
                                                  self.replays[tenant]))
            self.checks["leak_alarms"] &= monitor.leakage_alarmed

    def layer_metrics(self) -> Dict[str, float]:
        return {
            "serve.queues.peak_bytes": float(self.peak_bytes),
            "serve.queues.rounds_rejected": float(self.rejected),
            "serve.daemon.restarts": float(self.restarts),
            "serve.daemon.tenants_failed": float(len(self.failed_tenants)),
            "serve.daemon.refolded_rounds": float(self.refolded),
            "serve.monitor.bytes": float(self.monitor_bytes),
        }

    def details(self) -> Dict[str, object]:
        return {"failed_tenants": sorted(set(self.failed_tenants)),
                "tenant_failures": len(self.failed_tenants),
                "refolded_rounds": self.refolded,
                "restarts": self.restarts,
                "queue_peak_bytes": self.peak_bytes}


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    def ms(name: str) -> List[float]:
        return [span.duration * 1e3 for span in tracer.by_name(name)]

    ingest = tracer.by_name("serve.monitor.ingest")
    self_times = tracer.self_times()
    admit, wait = ms("serve.queues.admit"), ms("serve.queues.wait")
    return {
        "serve.monitor.ingest_ms_p50": harness.median(ms(
            "serve.monitor.ingest")),
        "serve.monitor.ingest_ms_p99": harness.percentile(ms(
            "serve.monitor.ingest"), 99),
        "core.streaming.tick_ms_p50": harness.median(ms(
            "core.streaming.tick")),
        "core.streaming.report_ms_p50": harness.median(ms(
            "core.streaming.report")),
        "core.drift.check_ms_p50": harness.median(ms("core.drift.check")),
        "serve.queues.admit_wait_ms_p50": harness.median(admit),
        "serve.queues.admit_wait_ms_p99": harness.percentile(admit, 99),
        "serve.queues.queue_wait_ms_p50": harness.median(wait),
        "serve.queues.queue_wait_ms_p99": harness.percentile(wait, 99),
        # Ingest time outside tick/report/check: validation and folds.
        "bench.unattributed_share": (
            sum(self_times[s.id] for s in ingest)
            / max(1e-12, sum(s.duration for s in ingest))),
        "bench.spans": float(len(tracer.spans)),
    }


# ----------------------------------------------------------------------
# Episodes: one daemon lifetime each
# ----------------------------------------------------------------------

async def fleet_episode(config, rows, schedule: List[Key], episode: int,
                        tracer: Optional[Tracer], lateness: List[float]):
    """Offer ``schedule`` at :data:`FLEET_RATE` rounds/s from one producer.

    Each round is timed from its due time to its outcome callback.
    """
    from repro.serve import MeasurementRound, MonitorDaemon, TenantFailure
    recorder = Recorder()
    daemon = MonitorDaemon(config, on_outcome=recorder.on_outcome)
    ingest_s = time_ingest(daemon)
    if tracer is not None:
        instrument_daemon(tracer, daemon, episode)
    daemon.start()
    due_at: Dict[Key, float] = {}
    t0 = time.perf_counter()
    for k, key in enumerate(schedule):
        due = t0 + k / FLEET_RATE
        # Poll instead of sleeping: a timer sleep wakes an idle core
        # late by a varying 0.5-60 ms on a shared runner.
        while time.perf_counter() < due:
            await asyncio.sleep(0)
        lateness.append((time.perf_counter() - due) * 1e3)
        due_at[key] = due
        try:
            await daemon.submit_round(MeasurementRound(
                tenant=key[0], index=key[1], batches=rows[key],
                submitted_at=time.monotonic()))
        except TenantFailure:
            pass
    await daemon.drain()
    await daemon.stop()
    latencies = [(recorder.done_at[key] - due_at[key]) * 1e3
                 for key in schedule if key in recorder.done_at]
    return daemon, recorder, latencies, ingest_s[0]


async def saturate_episode(config, rows, lifetimes, episode: int,
                           tracer: Optional[Tracer], ingest_fault=None):
    """Closed loop: one unpaced producer per tenant offers its rounds.

    Each round is timed from its ``submit_round`` call to its outcome.
    """
    from repro.serve import MeasurementRound, MonitorDaemon, TenantFailure
    recorder = Recorder()
    daemon = MonitorDaemon(config, on_outcome=recorder.on_outcome,
                           ingest_fault=ingest_fault)
    if tracer is not None:
        instrument_daemon(tracer, daemon, episode)
    daemon.start()
    submitted: Dict[Key, float] = {}

    async def produce(tenant: str) -> None:
        for index in range(lifetimes[tenant]):
            key = (tenant, index)
            submitted[key] = time.perf_counter()
            try:
                await daemon.submit_round(MeasurementRound(
                    tenant=tenant, index=index, batches=rows[key],
                    submitted_at=time.monotonic()))
            except TenantFailure:
                pass

    await asyncio.gather(*(produce(tenant) for tenant in lifetimes))
    await daemon.drain()
    await daemon.stop()
    latencies = [(recorder.done_at[key] - submitted[key]) * 1e3
                 for key in submitted if key in recorder.done_at]
    return daemon, recorder, latencies


def time_ingest(daemon) -> List[float]:
    """Sum the seconds every monitor spends in ``ingest_round``.

    The fleet's producer polls, so its process CPU time is the wall time;
    the monitor's own busy time is what a faster monitor shortens.
    """
    total = [0.0]
    for monitor in daemon.monitors.values():
        ingest = monitor.ingest_round

        def timed(round_, ingest=ingest):
            started = time.perf_counter()
            try:
                return ingest(round_)
            finally:
                total[0] += time.perf_counter() - started

        monitor.ingest_round = timed
    return total


def fleet_schedule(lifetimes: Dict[str, int]) -> List[Key]:
    """Round-robin over the tenants still offering rounds."""
    return [(name, index) for index in range(max(lifetimes.values()))
            for name in lifetimes if index < lifetimes[name]]


def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              started: float) -> Outcome:
    """Run episodes of one serve workload until ``seconds`` pass."""
    import repro.serve  # noqa: F401  (import time belongs to set-up)
    fleet = workload == "serve-fleet"
    if fleet:
        lifetimes = {f"fleet{i}": FLEET_LIFETIMES[i % 2]
                     for i in range(FLEET_COHORT)}
        categories, capacity, limit_ms = FLEET_CATEGORIES, 8, FLEET_LIMIT_MS
    else:
        lifetimes = {f"sat{i}": life for i, life in enumerate(SAT_LIFETIMES)}
        categories, capacity, limit_ms = (SAT_CATEGORIES, SAT_CAPACITY,
                                          SAT_LIMIT_MS)
    imports_s = time.perf_counter() - started
    setups = []
    for _ in range(SETUP_REPS):
        began = time.perf_counter()
        config = serve_config(list(lifetimes), categories, capacity)
        rows = generate_rows(config, lifetimes, seed)
        schedule = fleet_schedule(lifetimes)
        setups.append(time.perf_counter() - began)
    tracer = Tracer() if trace else None
    audit = DaemonAudit(rows, lifetimes)
    lateness: List[float] = []

    def one(episode: int) -> harness.Window:
        if fleet:
            daemon, recorder, latencies, busy_s = asyncio.run(fleet_episode(
                config, rows, schedule, episode, tracer, lateness))
        else:
            cpu_began = time.process_time()
            daemon, recorder, latencies = asyncio.run(saturate_episode(
                config, rows, lifetimes, episode, tracer))
            busy_s = time.process_time() - cpu_began
        audit.add(daemon, recorder)
        return harness.Window(latencies, len(latencies), busy_s)

    windows = harness.timed_windows(seconds, one)
    details = {"op": ("round (due time to on_outcome)" if fleet
                      else "round (submit_round call to on_outcome)"),
               "tenants_per_episode": len(lifetimes),
               "setup_reps_s": setups, **audit.details()}
    if fleet:
        details.update({"rate_per_s": FLEET_RATE,
                        "lateness_ms_p50": harness.median(lateness),
                        "lateness_ms_p99": harness.percentile(lateness, 99)})
    outcome = harness.window_outcome(
        windows, len(windows) * sum(lifetimes.values()), limit_ms,
        setup_s=imports_s + harness.median(setups),
        rss_mb=harness.peak_rss_mb(), checks=dict(audit.checks),
        details=details)
    if trace:
        outcome.metrics.update(span_metrics(tracer))
        outcome.metrics.update(audit.layer_metrics())
        outcome.metrics["load.lateness_ms_p99"] = (
            harness.percentile(lateness, 99) if fleet else 0.0)
        outcome.details["spans"] = [s.to_dict() for s in tracer.spans]
    return outcome
