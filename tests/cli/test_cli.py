"""Tests for the repro command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def tiny_args(tmp_path, monkeypatch):
    """CLI argument suffix keeping runs small and cache isolated."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return ["--samples", "3", "--categories", "0", "1"]


@pytest.fixture()
def fast_training(monkeypatch):
    """Shrink training so CLI tests stay quick."""
    import importlib

    # `repro.cli.main` the *attribute* is the main() function (re-exported
    # by the package), so resolve the module object via importlib.
    cli_main = importlib.import_module("repro.cli.main")
    from repro.core.experiment import ExperimentConfig as original

    def patched(**kwargs):
        kwargs.setdefault("train_samples_per_class", 8)
        kwargs.setdefault("epochs", 1)
        return original(**kwargs)

    monkeypatch.setattr(cli_main, "ExperimentConfig", patched)
    return patched


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction")
        commands = set(subparsers.choices)
        assert {"evaluate", "figure1", "figure2", "figure3", "figure4",
                "table1", "table2", "attack", "defend", "perf-probe",
                "info", "bits", "latency", "localize",
                "telemetry", "report", "stream"} <= commands

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro" in capsys.readouterr().out

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--dataset", "imagenet"])

    def test_engine_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--engine", "turbo"])

    def test_engine_flag_reaches_config(self):
        from repro.cli.main import _config_from_args
        args = build_parser().parse_args(["evaluate", "--engine", "layers"])
        assert _config_from_args(args).engine == "layers"
        # Unset flag keeps the config default (compiled).
        args = build_parser().parse_args(["evaluate"])
        assert args.engine is None
        assert _config_from_args(args).engine == "compiled"

    def test_backend_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--backend", "quantum"])

    def test_backend_flag_reaches_config(self):
        from repro.cli.main import _config_from_args
        args = build_parser().parse_args(["evaluate", "--backend", "auto"])
        assert _config_from_args(args).backend == "auto"
        args = build_parser().parse_args(["evaluate"])
        assert args.backend is None
        assert _config_from_args(args).backend == "sim"

    def test_retries_flag_reaches_config(self):
        from repro.cli.main import _config_from_args
        args = build_parser().parse_args(["evaluate", "--retries", "5"])
        assert _config_from_args(args).retries == 5
        args = build_parser().parse_args(["evaluate"])
        assert args.retries is None
        assert _config_from_args(args).retries == 3


class TestErrors:
    def test_rejected_input_is_one_line_with_usage_exit(self, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["evaluate", "--samples", "1", "--categories", "0", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: samples_per_category")
        assert "Traceback" not in captured.err

    def test_other_exceptions_keep_their_traceback(self, monkeypatch):
        import importlib

        cli_main = importlib.import_module("repro.cli.main")

        def broken(args):
            raise RuntimeError("a bug, not a rejected input")

        monkeypatch.setattr(cli_main, "cmd_info", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["info"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "Conv2D" in out

    def test_perf_probe_runs(self, capsys):
        code = main(["perf-probe"])
        out = capsys.readouterr().out
        assert "perf hardware counters" in out
        assert "backend=auto would select:" in out
        assert code in (0, 1)

    def test_perf_probe_with_retries(self, capsys, monkeypatch):
        probes = []

        def failing_probe(events=(), timeout=10.0, retry=None):
            if retry is not None:
                return retry.call_until(
                    lambda: failing_probe(events, timeout))
            probes.append(1)
            return False

        monkeypatch.setattr("repro.hpc.perf_backend.perf_available",
                            failing_probe)
        code = main(["perf-probe", "--retries", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT available" in out
        assert "backend=auto would select: sim" in out
        assert len(probes) == 3  # the probe itself was retried

    def test_evaluate_tiny(self, tiny_args, fast_training, capsys):
        assert main(["evaluate"] + tiny_args) == 0
        out = capsys.readouterr().out
        assert "leakage evaluation" in out
        assert "model accuracy" in out

    def test_evaluate_layers_engine(self, tiny_args, fast_training, capsys):
        assert main(["evaluate", "--engine", "layers"] + tiny_args) == 0
        assert "leakage evaluation" in capsys.readouterr().out

    def test_table1_tiny(self, tiny_args, fast_training, capsys):
        assert main(["table1", "--csv"] + tiny_args) == 0
        out = capsys.readouterr().out
        assert "cache-misses t" in out
        assert "event,category_a" in out  # CSV header

    def test_figure1_tiny(self, tiny_args, fast_training, capsys):
        assert main(["figure1"] + tiny_args) == 0
        assert "average cache-misses" in capsys.readouterr().out

    def test_figure2_tiny(self, tiny_args, fast_training, capsys):
        assert main(["figure2"] + tiny_args) == 0
        out = capsys.readouterr().out
        assert "HPC events for one" in out
        assert "instructions" in out

    def test_figure3_tiny(self, tiny_args, fast_training, capsys):
        assert main(["figure3", "--event", "branches"] + tiny_args) == 0
        assert "distribution of branches" in capsys.readouterr().out

    def test_attack_tiny(self, tiny_args, fast_training, capsys):
        assert main(["attack"] + tiny_args) == 0
        assert "input-recovery attack" in capsys.readouterr().out

    def test_defend_tiny(self, tiny_args, fast_training, capsys):
        assert main(["defend"] + tiny_args) == 0
        out = capsys.readouterr().out
        assert "defended alarm" in out
        assert "overhead" in out

    def test_attack_prime_probe_tiny(self, tiny_args, fast_training, capsys):
        assert main(["attack", "--technique", "prime-probe"]
                    + tiny_args) == 0
        assert "prime+probe attack" in capsys.readouterr().out

    def test_attack_flush_reload_tiny(self, tiny_args, fast_training,
                                      capsys):
        assert main(["attack", "--technique", "flush-reload"]
                    + tiny_args) == 0
        assert "flush+reload attack" in capsys.readouterr().out

    def test_bits_tiny(self, tiny_args, fast_training, capsys):
        assert main(["bits"] + tiny_args) == 0
        out = capsys.readouterr().out
        assert "bits" in out
        assert "cache-misses" in out

    def test_latency_tiny(self, tiny_args, fast_training, capsys):
        assert main(["latency", "--event", "cache-misses"] + tiny_args) == 0
        out = capsys.readouterr().out
        assert "vs budget" in out

    def test_localize_tiny(self, tiny_args, fast_training, capsys):
        assert main(["localize"] + tiny_args) == 0
        out = capsys.readouterr().out
        assert "leak localization" in out
        assert "harden first" in out

    def test_info_reports_telemetry_config(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "REPRO_TELEMETRY" in out


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def restore_runtime(self):
        """CLI telemetry flags install a global runtime; restore it."""
        yield
        from repro import obs
        obs.reset()

    def test_telemetry_subcommand_prints_breakdown(self, tiny_args,
                                                   fast_training, capsys):
        assert main(["telemetry"] + tiny_args) == 0
        out = capsys.readouterr().out
        assert "model accuracy" in out
        assert "telemetry summary" in out
        for stage in ("experiment.train", "experiment.measure",
                      "experiment.evaluate"):
            assert stage in out
        assert "cache.miss{kind=measurement}" in out
        assert "ttest.pairs" in out

    def test_evaluate_with_telemetry_flag(self, tiny_args, fast_training,
                                          capsys):
        assert main(["evaluate", "--telemetry"] + tiny_args) == 0
        out = capsys.readouterr().out
        assert "leakage evaluation" in out
        assert "telemetry summary" in out
        assert "experiment.run" in out

    def test_evaluate_telemetry_out_writes_jsonl(self, tiny_args,
                                                 fast_training, tmp_path,
                                                 capsys):
        from repro.obs import read_jsonl
        path = tmp_path / "telemetry.jsonl"
        assert main(["evaluate", "--telemetry-out", str(path)]
                    + tiny_args) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" not in out  # console off without the flag
        assert f"wrote telemetry JSONL to {path}" in out
        records = read_jsonl(path)
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"experiment.run", "experiment.train",
                "experiment.measure", "experiment.evaluate"} <= span_names
        assert any(r["type"] == "metric" for r in records)

    def test_telemetry_disabled_by_default(self, tiny_args, fast_training,
                                           capsys):
        assert main(["evaluate"] + tiny_args) == 0
        assert "telemetry summary" not in capsys.readouterr().out

    def test_profile_flag_reaches_config(self):
        from repro.cli.main import _config_from_args
        args = build_parser().parse_args(["evaluate", "--profile"])
        telemetry = _config_from_args(args).telemetry
        assert telemetry.enabled and telemetry.profile
        assert not telemetry.console

    def test_progress_flag_alone_keeps_telemetry_off(self):
        from repro.cli.main import _config_from_args
        args = build_parser().parse_args(["evaluate", "--progress"])
        telemetry = _config_from_args(args).telemetry
        assert telemetry.progress and not telemetry.enabled

    def test_report_subcommand_writes_artifact(self, tiny_args,
                                               fast_training, tmp_path,
                                               capsys):
        import json

        path = tmp_path / "RUN_REPORT.json"
        assert main(["report", "--out", str(path), "--workers", "2"]
                    + tiny_args) == 0
        out = capsys.readouterr().out
        assert "cpu_count=" in out
        assert "workers=2" in out
        assert f"wrote run report to {path}" in out
        report = json.loads(path.read_text())
        assert report["type"] == "run_report"
        assert report["environment"]["cpu_count"] >= 1
        assert report["environment"]["workers"] == 2
        assert report["result"]["pairs"] > 0
        assert report["spans"][0]["name"] == "experiment.run"
        assert report["profile"]  # --profile is implied by `report`
        names = {r["name"] for r in report["deterministic_metrics"]}
        assert "measurement.samples" in names

    def test_stream_tiny(self, tiny_args, fast_training, capsys):
        assert main(["stream", "--batch-size", "2"] + tiny_args) == 0
        out = capsys.readouterr().out
        assert "ticks=2" in out  # 3 samples in rounds of 2 + 1
        assert "evaluator_memory=" in out
        assert "samples/category at first detection" in out
        assert "verdict:" in out

    def test_stream_parser_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.batch_size == 25
        args = build_parser().parse_args(["report"])
        assert args.stream_batch == 25

    def test_report_includes_streaming_section(self, tiny_args,
                                               fast_training, tmp_path,
                                               capsys):
        import json

        path = tmp_path / "RUN_REPORT.json"
        assert main(["report", "--out", str(path), "--stream-batch", "2"]
                    + tiny_args) == 0
        out = capsys.readouterr().out
        assert "streaming: ticks=2" in out
        report = json.loads(path.read_text())
        assert report["schema"] >= 2
        streaming = report["streaming"]
        assert streaming["batch_size"] == 2
        assert streaming["ticks"] == 2
        assert streaming["memory_bytes"] > 0
        rows = streaming["detections"]
        assert rows == sorted(rows, key=lambda r: (r["event"],
                                                   r["category_a"],
                                                   r["category_b"]))


class TestServeCommand:
    def test_serve_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction")
        assert "serve" in subparsers.choices

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.tenants == 2
        assert args.policy == "block"
        assert args.queue_capacity == 8
        assert args.drift_threshold == 5.0
        assert args.rps == 0.0

    def test_serve_smoke(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "serve.json"
        assert main(["serve", "--tenants", "2", "--rounds", "8",
                     "--batch-size", "10", "--drift-after", "5",
                     "--seed", "3", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "tenants=2" in out
        assert "queue memory: peak" in out
        assert "tenant0:" in out and "tenant1:" in out
        assert "leak_alarm=yes" in out
        payload = json.loads(out_path.read_text())
        assert payload["tenants"] == 2
        assert payload["queue_peak_bytes"] <= payload["queue_ceiling_bytes"]
        assert len(payload["per_tenant"]) == 2
        for row in payload["per_tenant"]:
            assert row["rounds"] == 8
            assert row["leakage_alarm"] is True
            assert row["p95_ingest_ms"] >= 0.0

    def test_serve_runs_past_the_tick_46_crash(self, tmp_path, capsys):
        # Regression: the default geometric spending made every tenant
        # raise at tick 46 and fail after its consumer restarts.
        import json

        out_path = tmp_path / "serve.json"
        assert main(["serve", "--tenants", "2", "--rounds", "60",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("leak_alarm=yes") == 2
        for row in json.loads(out_path.read_text())["per_tenant"]:
            assert row["rounds"] == 60
            assert row["restarts"] == 0

    def test_serve_state_dir_round_trip(self, tmp_path, capsys):
        state = tmp_path / "state"
        base = ["serve", "--tenants", "1", "--rounds", "4",
                "--batch-size", "6", "--state-dir", str(state)]
        assert main(base) == 0
        assert (state / "tenant-tenant0.npz").exists()
        capsys.readouterr()
        # Second run resumes: rounds accumulate instead of restarting.
        assert main(base) == 0
        assert "rounds=8" in capsys.readouterr().out

    def test_serve_reject_policy(self, capsys):
        assert main(["serve", "--tenants", "1", "--rounds", "6",
                     "--batch-size", "4", "--policy", "reject",
                     "--queue-capacity", "1"]) == 0
        assert "admission=reject" in capsys.readouterr().out


class TestStreamDriftFlag:
    def test_stream_drift_threshold_output(self, tiny_args, fast_training,
                                           capsys):
        assert main(["stream", "--batch-size", "2",
                     "--drift-threshold", "1000", "--drift-window", "4"]
                    + tiny_args) == 0
        out = capsys.readouterr().out
        assert "drift: no alarm" in out
        assert "|z|>=1000" in out

    def test_stream_drift_parser_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.drift_threshold is None
        assert args.drift_window == 32
