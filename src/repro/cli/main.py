"""``repro`` command-line interface.

Subcommands mirror the paper's artifacts::

    repro evaluate --dataset mnist      # full evaluation + alarm verdict
    repro figure1  --dataset cifar10    # per-category mean cache-misses
    repro figure2                       # one classification's event readout
    repro figure3  --event branches     # per-category distributions (MNIST)
    repro figure4  --event cache-misses # per-category distributions (CIFAR)
    repro table1 / repro table2         # pairwise t-test tables
    repro attack   --dataset mnist      # input-recovery adversary
    repro tournament --datasets mnist   # ranked attacker x defense matrix
    repro defend   --dataset mnist      # constant-footprint countermeasure
    repro stream   --dataset mnist      # measure-and-evaluate-as-you-go
    repro serve    --tenants 2          # resident multi-tenant monitor
    repro perf-probe                    # can this host use real perf?
    repro telemetry                     # evaluation + stage/latency breakdown
    repro report                        # evaluation + RUN_REPORT.json artifact
    repro info                          # version + configuration dump

Every experiment subcommand also accepts ``--telemetry`` (print the stage
breakdown after the command's own output), ``--telemetry-out FILE``
(write the span/metric records as JSONL), ``--profile`` (per-stage
resource usage) and ``--progress`` (live stderr progress line during
parallel measurement).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from ..attack.attacker import profile_and_attack
from ..obs import runtime as obs
from ..obs.runtime import TelemetryConfig
from ..core.alarm import CONSERVATIVE_POLICY, PAPER_POLICY
from ..core.experiment import ExperimentConfig, run_experiment
from ..core.reporting import (
    format_category_means,
    format_distribution_figure,
    format_event_readout,
    format_full_report,
    format_leakage_bits,
    format_paper_table,
)
from ..core.sequential import sequential_detection
from ..countermeasures.constant_footprint import (
    footprint_overhead,
    harden_backend,
)
from ..countermeasures.evaluation import evaluate_defense
from ..uarch.events import HpcEvent
from ..version import __version__


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=("mnist", "cifar10"),
                        default="mnist", help="which case study to run")
    parser.add_argument("--samples", type=int, default=None,
                        help="measurements per category")
    parser.add_argument("--categories", type=int, nargs="+", default=None,
                        help="model labels to monitor (default: 0 1 2 3)")
    parser.add_argument("--noise-scale", type=float, default=1.0,
                        help="measurement-noise multiplier")
    parser.add_argument("--workers", type=int, default=None,
                        help="measurement worker processes (default: 1, "
                             "in-process; results are identical for any "
                             "worker count)")
    parser.add_argument("--backend", choices=("sim", "perf", "auto"),
                        default=None,
                        help="measurement backend (default: sim; 'auto' "
                             "uses real perf counters when the host "
                             "supports them, else falls back to sim with "
                             "a warning)")
    parser.add_argument("--retries", type=int, default=None,
                        help="attempts per measurement (default: 3); "
                             "transient acquisition failures are retried "
                             "with deterministic backoff and never change "
                             "results")
    parser.add_argument("--engine", choices=("layers", "compiled"),
                        default=None,
                        help="execution backend for training and "
                             "measurement (default: compiled, fused "
                             "train/inference plans; identical results, "
                             "'layers' runs the reference path)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk artifact cache")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every random seed at once")
    parser.add_argument("--telemetry", action="store_true",
                        help="print the telemetry stage breakdown afterwards")
    parser.add_argument("--telemetry-out", metavar="FILE", default=None,
                        help="write telemetry span/metric records as JSONL")
    parser.add_argument("--profile", action="store_true",
                        help="record per-stage resource usage (CPU time, "
                             "RSS peak, allocation peak); implies telemetry")
    parser.add_argument("--progress", action="store_true",
                        help="show a live progress line on stderr during "
                             "parallel measurement")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = {"dataset": args.dataset, "noise_scale": args.noise_scale}
    if args.samples is not None:
        kwargs["samples_per_category"] = args.samples
    if args.categories is not None:
        kwargs["categories"] = tuple(args.categories)
    if getattr(args, "workers", None) is not None:
        kwargs["workers"] = args.workers
    if getattr(args, "engine", None) is not None:
        kwargs["engine"] = args.engine
    if getattr(args, "backend", None) is not None:
        kwargs["backend"] = args.backend
    if getattr(args, "retries", None) is not None:
        kwargs["retries"] = args.retries
    if args.no_cache:
        kwargs["cache_dir"] = ""
    if args.seed is not None:
        kwargs.update(data_seed=args.seed, eval_seed=args.seed + 1,
                      model_seed=args.seed + 2, noise_seed=args.seed + 3)
    telemetry = _telemetry_from_args(args)
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    return ExperimentConfig(**kwargs)


def _telemetry_from_args(args: argparse.Namespace
                         ) -> Optional[TelemetryConfig]:
    """Telemetry configuration requested via CLI flags (None when absent)."""
    wants_console = getattr(args, "telemetry", False)
    out = getattr(args, "telemetry_out", None)
    profile = getattr(args, "profile", False)
    progress = getattr(args, "progress", False)
    if not wants_console and not out and not profile and not progress:
        return None
    return TelemetryConfig(enabled=bool(wants_console or out or profile),
                           console=wants_console, jsonl_path=out or "",
                           profile=profile, progress=progress)


def _run(args: argparse.Namespace):
    config = _config_from_args(args)
    return run_experiment(config), config


def cmd_evaluate(args: argparse.Namespace) -> int:
    result, config = _run(args)
    if args.json:
        from ..core.export import save_experiment_json
        path = save_experiment_json(result, args.json)
        print(f"wrote {path}")
        return 0
    print(f"dataset={config.dataset} model accuracy={result.test_accuracy:.3f}")
    print()
    print(format_full_report(result.report, config.display_map()))
    policy = CONSERVATIVE_POLICY if args.corrected else PAPER_POLICY
    print()
    print(policy.decide(result.report).format())
    return 0


def cmd_figure1(args: argparse.Namespace) -> int:
    result, config = _run(args)
    print(format_category_means(result.distributions,
                                HpcEvent.CACHE_MISSES,
                                display=config.display_map()))
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    result, config = _run(args)
    sample = config.generator().generate(1, seed=99).images[0]
    measurement = result.backend.measure(sample)
    print(format_event_readout(
        measurement.counts,
        title=f"HPC events for one {config.dataset} classification "
              f"(predicted class {measurement.prediction}):"))
    return 0


def cmd_distribution_figure(args: argparse.Namespace) -> int:
    result, config = _run(args)
    event = HpcEvent.from_name(args.event)
    print(format_distribution_figure(result.distributions, event,
                                     display=config.display_map()))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    result, config = _run(args)
    print(format_paper_table(result.report, display=config.display_map()))
    if args.csv:
        print()
        print(result.report.to_csv())
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    result, config = _run(args)
    if args.technique == "hpc":
        outcome = profile_and_attack(result.distributions,
                                     classifier=args.classifier)
    else:
        pool = config.generator().generate(
            config.samples_per_category, seed=config.eval_seed + 500,
            categories=list(config.categories))
        n = min(20, config.samples_per_category)
        if args.technique == "prime-probe":
            from ..attack.prime_probe import prime_probe_attack
            outcome = prime_probe_attack(result.model, pool,
                                         config.categories, n,
                                         classifier=args.classifier)
        else:  # flush-reload
            from ..attack.flush_reload import flush_reload_attack
            outcome = flush_reload_attack(result.model, pool,
                                          config.categories, n,
                                          layer_name="fc",
                                          classifier=args.classifier)
    print(outcome.summary())
    return 0


def cmd_tournament(args: argparse.Namespace) -> int:
    from ..attack.tournament import run_tournament, write_tournament_report
    config = _config_from_args(args)
    datasets = list(dict.fromkeys(args.datasets or [args.dataset]))
    configs = [replace(config, dataset=name) for name in datasets]
    progress = ((lambda line: print(f"  {line}", flush=True))
                if args.verbose else None)
    report = run_tournament(
        configs,
        attackers=tuple(args.attackers),
        countermeasures=tuple(args.countermeasures),
        attack_samples=args.attack_samples,
        epochs=args.epochs,
        noise_amplitude=args.noise_amplitude,
        progress=progress,
    )
    print(report.summary())
    if args.out:
        path = write_tournament_report(report, args.out)
        print(f"report written to {path}")
    return 0


def cmd_defend(args: argparse.Namespace) -> int:
    result, config = _run(args)
    hardened = harden_backend(result.backend)
    pool = config.generator().generate(
        config.samples_per_category, seed=config.eval_seed,
        categories=list(config.categories))
    defense = evaluate_defense(
        hardened, pool, config.categories, config.samples_per_category,
        baseline_report=result.report)
    print(defense.summary())
    print()
    corrected = CONSERVATIVE_POLICY.decide(defense.defended)
    print("Holm-corrected defended verdict:",
          "alarm" if corrected.triggered else "no alarm")
    print(f"instruction overhead of the defense: "
          f"{footprint_overhead(result.model):.2f}x")
    return 0


def cmd_localize(args: argparse.Namespace) -> int:
    from ..countermeasures.localization import localize_leak
    result, config = _run(args)
    pool = config.generator().generate(
        config.samples_per_category, seed=config.eval_seed,
        categories=list(config.categories))
    report = localize_leak(
        result.model, pool, config.categories,
        min(20, config.samples_per_category),
        event=HpcEvent.from_name(args.event),
        base_config=config.trace_config,
        cpu_config=config.cpu_config,
        noise_scale=config.noise_scale,
        seed=config.noise_seed)
    print(report.summary())
    return 0


def cmd_bits(args: argparse.Namespace) -> int:
    result, config = _run(args)
    print(format_leakage_bits(result.distributions))
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    result, config = _run(args)
    detections = sequential_detection(result.distributions,
                                      alpha=1.0 - config.confidence)
    for detection in detections.values():
        print(detection.format())
    event = HpcEvent.from_name(args.event)
    print(f"\ndistinguishable pairs vs budget ({event.value}):")
    for n, rejections in detections[event].curve:
        print(f"  n={n:<4} {rejections} pair(s)")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    from ..core.experiment import stream_experiment
    from ..core.reporting import format_alarm_latency
    from ..resilience.shutdown import GracefulShutdown
    config = _config_from_args(args)
    ticks = []
    with GracefulShutdown() as stop:
        result = stream_experiment(
            config, batch_size=args.batch_size, on_tick=ticks.append,
            drift_threshold=args.drift_threshold,
            drift_window=args.drift_window,
            should_stop=stop)
    evaluator = result.evaluator
    print(f"dataset={config.dataset} model accuracy="
          f"{result.test_accuracy:.3f} batch_size={args.batch_size} "
          f"ticks={evaluator.ticks} "
          f"evaluator_memory={evaluator.memory_bytes()} bytes")
    if stop.requested:
        print("interrupted: checkpoint flushed at the last round "
              "boundary; rerun the same command to resume")
    print()
    print(format_alarm_latency(evaluator, display=config.display_map()))
    records = evaluator.alarm_latency()
    if records:
        first = min(records, key=lambda r: (r.detection_n, r.event.value))
        print(f"\nfirst alarm: {first.format(config.display_map())}")
    report = evaluator.report()
    distinguishable = sum(r.distinguishable for r in report.results)
    print(f"verdict: {'ALARM' if report.alarm else 'no alarm'} "
          f"({distinguishable}/{len(report.results)} pairwise tests "
          f"distinguishable at {report.confidence:.0%})")
    if result.drift is not None:
        alarms = result.drift.alarms()
        print(f"drift: {'ALARM' if alarms else 'no alarm'} "
              f"(threshold |z|>={result.drift.threshold:g}, "
              f"window {result.drift.window})")
        for alarm in alarms:
            print("  " + alarm.format(config.display_map()))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal as signal_module
    from ..atomicio import atomic_write_text
    from ..serve import MonitorDaemon, ServeConfig, TenantSpec, run_load
    from ..serve.load import percentile
    config = ServeConfig(
        tenants=tuple(
            TenantSpec(f"tenant{i}",
                       categories=tuple(range(args.serve_categories)))
            for i in range(args.tenants)),
        batch_size=args.batch_size,
        admission=args.policy,
        queue_capacity=args.queue_capacity,
        drift_threshold=args.drift_threshold,
        drift_window=args.drift_window,
        state_dir=args.state_dir,
    )

    async def run():
        daemon = MonitorDaemon(config)
        daemon.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal_module.SIGINT, signal_module.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # platforms without loop signals
                pass
        load_task = asyncio.ensure_future(run_load(
            daemon, rounds=args.rounds, rps=args.rps, seed=args.seed,
            drift_after_round=args.drift_after))
        stop_task = asyncio.ensure_future(stop.wait())
        done, _ = await asyncio.wait(
            {load_task, stop_task}, return_when=asyncio.FIRST_COMPLETED)
        interrupted = load_task not in done
        if interrupted:
            load_task.cancel()
            try:
                await load_task
            except asyncio.CancelledError:
                pass
            reports = {}
        else:
            reports = load_task.result()
        stop_task.cancel()
        # stop() drains admitted rounds and flushes per-tenant state
        # checkpoints (when --state-dir is set) before returning.
        summary = await daemon.stop()
        return daemon, reports, summary, interrupted

    daemon, reports, summary, interrupted = asyncio.run(run())
    print(f"tenants={args.tenants} rounds={args.rounds} "
          f"batch_size={args.batch_size} admission={args.policy} "
          f"queue_capacity={args.queue_capacity} rps={args.rps:g}")
    if interrupted:
        print("interrupted: admitted rounds drained"
              + (", state checkpointed" if args.state_dir else ""))
    peak = daemon.admission.peak_buffered_bytes
    ceiling = daemon.admission.capacity_bytes(args.batch_size)
    print(f"queue memory: peak {peak} bytes, configured ceiling "
          f"{ceiling} bytes")
    rows = []
    for tenant, status in summary.items():
        report = reports.get(tenant)
        p95 = (percentile(report.ingest_latency_ms, 95)
               if report else float("nan"))
        print(f"  {tenant}: rounds={status['rounds']} "
              f"ticks={status['ticks']} detections={status['detections']} "
              f"leak_alarm={'yes' if status['leakage_alarm'] else 'no'}"
              + (f" (tick {status['leakage_alarm_tick']})"
                 if status['leakage_alarm'] else "")
              + f" drift_alarm="
                f"{'yes' if status['drift_alarm'] else 'no'}"
              + (f" p95_ingest={p95:.2f}ms" if report else ""))
        rows.append({
            "tenant": tenant,
            **{k: status[k] for k in (
                "rounds", "ticks", "detections", "leakage_alarm",
                "leakage_alarm_tick", "drift_alarm", "admitted",
                "rejected", "restarts", "memory_bytes")},
            "p50_ingest_ms": (percentile(report.ingest_latency_ms, 50)
                              if report else None),
            "p95_ingest_ms": p95 if report else None,
            "first_alarm_round": (report.first_alarm_round
                                  if report else None),
        })
    if args.out:
        payload = {
            "tenants": args.tenants,
            "rounds": args.rounds,
            "batch_size": args.batch_size,
            "admission": args.policy,
            "queue_capacity": args.queue_capacity,
            "rps": args.rps,
            "interrupted": interrupted,
            "queue_peak_bytes": peak,
            "queue_ceiling_bytes": ceiling,
            "per_tenant": rows,
        }
        path = atomic_write_text(
            args.out, json.dumps(payload, indent=2, default=str) + "\n")
        print(f"wrote serve report to {path}")
    return 0


def cmd_perf_probe(args: argparse.Namespace) -> int:
    from ..hpc.perf_backend import perf_available
    from ..resilience import RetryPolicy
    retry = (RetryPolicy(max_attempts=args.retries)
             if args.retries and args.retries > 1 else None)
    ok = perf_available(retry=retry)
    print("perf hardware counters:", "available" if ok else "NOT available")
    print("backends usable here: sim" + (", perf" if ok else ""))
    print("backend=auto would select:", "perf" if ok else "sim")
    return 0 if ok else 1


def cmd_telemetry(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if config.telemetry is None:
        # `repro telemetry` implies telemetry even without the flags.
        config = replace(config, telemetry=TelemetryConfig(
            enabled=True, console=False,
            jsonl_path=args.telemetry_out or ""))
    result = run_experiment(config)
    print(f"dataset={config.dataset} "
          f"model accuracy={result.test_accuracy:.3f} "
          f"alarm={'yes' if result.report.alarm else 'no'}")
    print()
    snapshot = obs.flush(console=False)
    from ..obs.exporters import ConsoleExporter
    print(ConsoleExporter().format(snapshot))
    if args.telemetry_out and obs.active().jsonl_written:
        print(f"\nwrote telemetry JSONL to {args.telemetry_out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from ..obs.report import build_run_report, write_run_report
    config = _config_from_args(args)
    # A run report needs telemetry and the resource profile regardless of
    # the generic flags; fold them into whatever else was requested.
    base = config.telemetry or TelemetryConfig(enabled=True, console=False)
    config = replace(config, telemetry=replace(base, enabled=True,
                                               profile=True))
    result = run_experiment(config)
    # Replay the measured distributions through the streaming evaluator so
    # the report carries alarm-latency metrics (deterministic record order).
    from ..core.streaming import replay_stream, streaming_report_section
    streamed = replay_stream(result.distributions,
                             batch_size=args.stream_batch,
                             confidence=config.confidence)
    snapshot = obs.flush()
    report = build_run_report(snapshot, config=config, result=result,
                              streaming=streaming_report_section(
                                  streamed, args.stream_batch))
    path = write_run_report(report, args.out)
    env = report["environment"]
    # cpu_count leads: on a 1-core runner, parallel speedups are
    # impossible and the report should say so up front.
    print(f"cpu_count={env['cpu_count']} workers={config.workers} "
          f"start_method={env['start_method'] or 'default'}")
    print(f"dataset={config.dataset} backend={env.get('backend_used', config.backend)} "
          f"engine={config.engine} "
          f"accuracy={result.test_accuracy:.3f} "
          f"alarm={'yes' if result.report.alarm else 'no'}")
    print(f"streaming: ticks={streamed.ticks} "
          f"detections={len(streamed.alarm_latency())} "
          f"evaluator_memory={streamed.memory_bytes()} bytes")
    print(f"wrote run report to {path}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from ..core.experiment import build_model
    from ..hpc.sim_backend import SimBackend
    print(f"repro {__version__}")
    model = build_model("mnist")
    backend = SimBackend(model)
    print()
    print(model.summary())
    print()
    print(backend.describe())
    print()
    active = obs.active().config
    print("telemetry:")
    print(f"  enabled={active.enabled} console={active.console} "
          f"jsonl_path={active.jsonl_path or '(none)'}")
    print(f"  env: {obs.ENV_ENABLED}=1 enables, "
          f"{obs.ENV_OUT}=FILE adds a JSONL sink,")
    print(f"       {obs.ENV_PROFILE}=1 profiles stages, "
          f"{obs.ENV_PROGRESS}=1 shows live progress")
    print("  cli: --telemetry / --telemetry-out FILE / --profile / "
          "--progress on every experiment subcommand")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPC side-channel privacy evaluation of CNN classifiers "
                    "(DAC 2019 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="full evaluation + alarm verdict")
    _add_experiment_args(p)
    p.add_argument("--corrected", action="store_true",
                   help="use the Holm-corrected alarm policy")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the full experiment as JSON instead")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("figure1", help="per-category mean cache-misses")
    _add_experiment_args(p)
    p.set_defaults(handler=cmd_figure1)

    p = sub.add_parser("figure2", help="one classification's event readout")
    _add_experiment_args(p)
    p.set_defaults(handler=cmd_figure2)

    p = sub.add_parser("figure3", help="per-category distributions (MNIST)")
    _add_experiment_args(p)
    p.add_argument("--event", default="cache-misses")
    p.set_defaults(handler=cmd_distribution_figure, dataset="mnist")

    p = sub.add_parser("figure4", help="per-category distributions (CIFAR-10)")
    _add_experiment_args(p)
    p.add_argument("--event", default="cache-misses")
    p.set_defaults(handler=cmd_distribution_figure, dataset="cifar10")

    p = sub.add_parser("table1", help="pairwise t-test table (MNIST)")
    _add_experiment_args(p)
    p.add_argument("--csv", action="store_true", help="also dump CSV rows")
    p.set_defaults(handler=cmd_table, dataset="mnist")

    p = sub.add_parser("table2", help="pairwise t-test table (CIFAR-10)")
    _add_experiment_args(p)
    p.add_argument("--csv", action="store_true", help="also dump CSV rows")
    p.set_defaults(handler=cmd_table, dataset="cifar10")

    p = sub.add_parser("attack", help="input-recovery adversary")
    _add_experiment_args(p)
    p.add_argument("--classifier", default="gaussian-nb",
                   choices=("gaussian-nb", "lda", "nearest-centroid"))
    p.add_argument("--technique", default="hpc",
                   choices=("hpc", "prime-probe", "flush-reload"),
                   help="observable: scalar counters, LLC-set probing, or "
                        "shared weight-line reloads")
    p.set_defaults(handler=cmd_attack)

    p = sub.add_parser("tournament",
                       help="attacker x countermeasure x model-zoo leakage "
                            "matrix, ranked most-leaky first")
    _add_experiment_args(p)
    p.add_argument("--datasets", nargs="+", choices=("mnist", "cifar10"),
                   default=None,
                   help="model-zoo entries (default: just --dataset)")
    p.add_argument("--attackers", nargs="+",
                   choices=("hpc", "prime-probe", "flush-reload"),
                   default=("hpc", "prime-probe", "flush-reload"),
                   help="attackers to enter (default: all)")
    p.add_argument("--countermeasures", nargs="+",
                   choices=("baseline", "constant-footprint",
                            "noise-injection"),
                   default=("baseline", "constant-footprint",
                            "noise-injection"),
                   help="defenses to deploy (default: all)")
    p.add_argument("--attack-samples", type=int, default=None,
                   help="attack-pool traces per category "
                        "(default: min(20, --samples))")
    p.add_argument("--epochs", type=int, default=8,
                   help="temporal resolution of the cache attackers "
                        "(default: 8)")
    p.add_argument("--noise-amplitude", type=float, default=0.25,
                   help="noise-injection dummy-work amplitude "
                        "(default: 0.25)")
    p.add_argument("--out", metavar="PATH", default="TOURNAMENT_REPORT.json",
                   help="ranked report destination "
                        "(default: TOURNAMENT_REPORT.json; '' disables)")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per finished tournament step")
    p.set_defaults(handler=cmd_tournament)

    p = sub.add_parser("defend", help="constant-footprint countermeasure")
    _add_experiment_args(p)
    p.set_defaults(handler=cmd_defend)

    p = sub.add_parser("localize", help="per-layer leak localization")
    _add_experiment_args(p)
    p.add_argument("--event", default="cache-misses")
    p.set_defaults(handler=cmd_localize)

    p = sub.add_parser("bits", help="mutual-information leakage per event")
    _add_experiment_args(p)
    p.set_defaults(handler=cmd_bits)

    p = sub.add_parser("latency", help="sequential detection latency")
    _add_experiment_args(p)
    p.add_argument("--event", default="cache-misses")
    p.set_defaults(handler=cmd_latency)

    p = sub.add_parser("stream",
                       help="measure-and-evaluate-as-you-go: verdicts "
                            "update every batch, alarm latency per "
                            "(pair, event), O(1) evaluator memory")
    _add_experiment_args(p)
    p.add_argument("--batch-size", type=int, default=25,
                   help="measurements per category per evaluation tick "
                        "(default: 25)")
    p.add_argument("--drift-threshold", type=float, default=None,
                   metavar="Z",
                   help="also raise drift alarms when a category's "
                        "trailing-window mean sits this many standard "
                        "errors from its long-run baseline (workers=1 "
                        "only; off by default)")
    p.add_argument("--drift-window", type=int, default=32,
                   help="trailing measurement rows per category for "
                        "drift monitoring (default: 32)")
    p.set_defaults(handler=cmd_stream)

    p = sub.add_parser("serve",
                       help="resident multi-tenant monitor: bounded "
                            "admission queues, per-tenant streaming "
                            "verdicts (bit-identical to `repro stream`), "
                            "alpha-spending leakage alarms and drift "
                            "alarms")
    p.add_argument("--tenants", type=int, default=2,
                   help="synthetic tenants to monitor (default: 2)")
    p.add_argument("--rounds", type=int, default=40,
                   help="measurement rounds per tenant (default: 40)")
    p.add_argument("--batch-size", type=int, default=25,
                   help="rows per category per round (default: 25)")
    p.add_argument("--rps", type=float, default=0.0,
                   help="producer rounds/second per tenant (default: 0 = "
                        "as fast as admission allows)")
    p.add_argument("--policy", choices=("block", "reject"),
                   default="block",
                   help="admission when shards fill: block producers "
                        "(lossless backpressure) or reject whole rounds "
                        "(default: block)")
    p.add_argument("--queue-capacity", type=int, default=8,
                   help="rounds buffered per (tenant, category) shard "
                        "(default: 8)")
    p.add_argument("--serve-categories", type=int, default=3,
                   metavar="K",
                   help="categories per synthetic tenant (default: 3)")
    p.add_argument("--drift-threshold", type=float, default=5.0,
                   metavar="Z",
                   help="drift alarm |z| threshold (default: 5.0)")
    p.add_argument("--drift-window", type=int, default=32,
                   help="trailing rows per category for drift alarms "
                        "(default: 32)")
    p.add_argument("--drift-after", type=int, default=None, metavar="R",
                   help="inject a mean shift into every tenant's stream "
                        "from round R on (exercises the drift alarm; "
                        "default: no injection)")
    p.add_argument("--seed", type=int, default=0,
                   help="load-generator seed (default: 0)")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="checkpoint per-tenant monitor state here on "
                        "shutdown and resume from it on startup")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write a JSON serve report to PATH")
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser("perf-probe", help="probe real perf availability")
    p.add_argument("--retries", type=int, default=None,
                   help="repeat a failing probe this many times (flaky "
                        "hosts) before reporting unavailable")
    p.set_defaults(handler=cmd_perf_probe)

    p = sub.add_parser("telemetry",
                       help="run an evaluation and print the stage/latency "
                            "and metrics breakdown")
    _add_experiment_args(p)
    p.set_defaults(handler=cmd_telemetry, owns_telemetry_flush=True)

    p = sub.add_parser("report",
                       help="run an evaluation and write RUN_REPORT.json "
                            "(merged metrics, span tree, environment, "
                            "per-stage resource profile)")
    _add_experiment_args(p)
    p.add_argument("--out", metavar="PATH", default="RUN_REPORT.json",
                   help="report destination (default: RUN_REPORT.json)")
    p.add_argument("--stream-batch", type=int, default=25,
                   help="batch size of the streaming alarm-latency replay "
                        "included in the report (default: 25)")
    p.set_defaults(handler=cmd_report, owns_telemetry_flush=True)

    p = sub.add_parser("info", help="version and configuration dump")
    p.set_defaults(handler=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Subparser defaults may pin the dataset (figure3 is MNIST by definition).
    code = args.handler(args)
    # One flush at exit covers --telemetry/--telemetry-out on every
    # experiment subcommand (the `telemetry` subcommand flushes itself).
    if obs.is_enabled() and not getattr(args, "owns_telemetry_flush", False):
        cfg = obs.active().config
        if cfg.console:
            print()
        obs.flush()
        if cfg.jsonl_path and obs.active().jsonl_written:
            print(f"wrote telemetry JSONL to {cfg.jsonl_path}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
