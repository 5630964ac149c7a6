"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

import harness
import serve_workloads as sw

ROOT = Path(__file__).resolve().parents[2]


def test_metric_names_and_units_are_well_formed():
    for catalogue in (harness.END_TO_END, harness.PER_LAYER):
        for name, unit in catalogue.items():
            assert harness.NAME_RE.match(name), name
            assert unit and harness.UNIT_RE.match(unit), (name, unit)
    assert not set(harness.END_TO_END) & set(harness.PER_LAYER)


def test_benchmark_json_matches_the_catalogues():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == harness.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_result_line_refuses_a_partial_metric_set():
    metrics = {name: 1.0 for name in harness.END_TO_END}
    line = json.loads(harness.result_line(True, 3, 0, metrics,
                                          harness.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}
    del metrics["setup_s"]
    with pytest.raises(ValueError):
        harness.result_line(True, 3, 0, metrics, harness.END_TO_END)


@pytest.mark.parametrize("count", [1, 19, 20, 39, 40, 99, 100, 199, 200,
                                   999, 1000, 1848, 9999, 10000, 50000])
def test_tail_percentile_keeps_ten_samples_beyond_it(count):
    values = np.arange(count, dtype=float)
    q = harness.tail_percentile(count)
    if q == 100.0:
        assert count < 20
        return
    beyond = int(np.sum(values > harness.percentile(values, q)))
    assert beyond >= 10
    higher = [p / 10 for p in harness._TAIL_PERMILLE if p / 10 > q]
    if higher:
        # The next candidate up would leave fewer than ten beyond it.
        assert count * (100 - min(higher)) / 100 < 10


def test_tail_blocks_keep_ten_ops_beyond_each_tail():
    values = list(np.arange(250.0))
    blocks = harness.tail_blocks(values)
    assert [b["ops"] for b in blocks] == [100, 100]
    assert all(b["percentile"] == 90.0 for b in blocks)
    assert blocks[1]["ms"] == pytest.approx(harness.percentile(
        values[100:200], 90))
    short = harness.tail_blocks([3.0, 1.0, 2.0])
    assert short == [{"percentile": 100.0, "ops": 3, "ms": 3.0}]
    assert harness.tail_blocks([]) == []


def test_self_time_subtracts_the_union_of_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    tracer = harness.Tracer(clock=lambda: next(ticks))
    with tracer.span("root", round_id=7):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    root, a, b = tracer.spans
    assert (a.parent, b.parent, a.round_id) == (root.id, root.id, 7)
    self_times = tracer.self_times()
    assert self_times[root.id] == pytest.approx(10.0 - 2.0)
    assert harness.covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4


def fault_run(fault, wrap_ingest=None):
    """One closed-loop episode of two 3-category tenants, 12 rounds each."""
    lifetimes = {"ok": 12, "bad": 12}
    config = sw.serve_config(list(lifetimes), 3, 2)
    rows = sw.generate_rows(config, lifetimes, seed=3)

    async def main():
        return await sw.saturate_episode(config, rows, lifetimes, 0, None,
                                         ingest_fault=fault)

    if wrap_ingest is not None:
        original = sw.saturate_episode

        async def main():  # noqa: F811 - instrumented variant
            from repro.serve import MonitorDaemon
            init = MonitorDaemon.__init__

            def patched(self, *args, **kwargs):
                init(self, *args, **kwargs)
                wrap_ingest(self.monitors["bad"])
            MonitorDaemon.__init__ = patched
            try:
                return await original(config, rows, lifetimes, 0, None,
                                      ingest_fault=fault)
            finally:
                MonitorDaemon.__init__ = init

    daemon, recorder, latencies = asyncio.run(
        asyncio.wait_for(main(), timeout=60))
    audit = sw.DaemonAudit(rows, lifetimes)
    audit.add(daemon, recorder)
    window = harness.Window(latencies, len(latencies), 1.0, ref_ms=25.0)
    outcome = harness.window_outcome([window], 24, 1e9, 0.1, 1.0,
                                     dict(audit.checks), {})
    return daemon, audit, outcome


def test_failure_counting_with_a_forced_ingest_fault():
    def fault(tenant, index):
        if tenant == "bad" and index == 5:
            raise RuntimeError("forced ingest fault")

    daemon, audit, outcome = fault_run(fault)
    assert "bad" in daemon.failed and "ok" not in daemon.failed
    # Rounds 0-4 of "bad" completed; 5-11 failed or were refused.
    assert outcome.attempted == 24
    assert outcome.failed == 7
    assert outcome.metrics["ok_share"] == pytest.approx(17 / 24)
    assert audit.failed_tenants == ["bad"]
    assert audit.restarts == daemon.config.max_consumer_restarts + 1
    # The fault fires before ingestion: nothing is folded twice.
    assert audit.refolded == 0
    # The surviving tenant is checked against its offline replay.
    assert audit.checks["some_tenant_checked"]
    assert audit.checks["equivalent"] and audit.checks["queue_bounded"]


def test_refolded_rounds_count_a_crash_after_the_fold():
    def crash_after_fold(monitor):
        ingest = monitor.ingest_round

        def ingest_then_crash(round_):
            outcome = ingest(round_)
            if round_.index == 5:
                raise RuntimeError("crash after fold")
            return outcome
        monitor.ingest_round = ingest_then_crash

    daemon, audit, outcome = fault_run(None, wrap_ingest=crash_after_fold)
    restarts = daemon.config.max_consumer_restarts
    assert audit.failed_tenants == ["bad"]
    assert daemon.monitors["bad"].rounds_ingested == 5 + restarts + 1
    assert audit.refolded == restarts
    assert outcome.failed == 7


def test_reference_windows_scale_to_nominal_speed(monkeypatch):
    refs = iter([20.0, 30.0, 50.0])
    monkeypatch.setattr(harness, "reference_ms", lambda: next(refs))
    windows = harness.timed_windows(
        0.0, lambda i: harness.Window([10.0, 30.0], 4, 2.0), min_windows=2)
    assert [w.ref_ms for w in windows] == [25.0, 40.0]
    outcome = harness.window_outcome(windows, 5, 20.0, 1.0, 1.0,
                                     {"ok": True}, {})
    # Window 0 ran at the nominal 25 ms per kernel and reads as
    # measured; window 1 ran at 40 ms, so its times shrink by 25/40.
    # Goodput uses the raw latencies.
    assert outcome.metrics["latency_p50_ms"] == pytest.approx(
        np.median([10.0, 30.0, 6.25, 18.75]))
    assert outcome.metrics["throughput_per_s"] == pytest.approx(
        8 / (2.0 + 2.0 * 25 / 40))
    assert outcome.metrics["goodput_share"] == pytest.approx(2 / 5)
    assert outcome.failed == 1
