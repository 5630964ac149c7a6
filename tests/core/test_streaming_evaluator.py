"""Tests for repro.core.streaming (incremental evaluation, alarm latency).

The heart is the streaming <-> batch equivalence contract: on identical
data the :class:`StreamingEvaluator` must reproduce the batch
:class:`Evaluator`'s t statistics to 1e-9 relative and its verdicts
exactly, regardless of batch size or worker partition.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import Evaluator
from repro.core.streaming import (
    STREAM_STATE_SCHEMA_VERSION,
    AlarmRecord,
    StreamingEvaluator,
    fold_round,
    replay_stream,
    streaming_report_section,
)
from repro.errors import EvaluationError
from repro.hpc.distributions import EventDistributions
from repro.uarch.events import ALL_EVENTS, EventCounts, HpcEvent

EVENTS = tuple(ALL_EVENTS[:4])


def make_rows(seed=0, categories=3, samples=40, separation=6.0,
              scale=1e5, noise=40.0):
    """Per-category ``(samples, len(EVENTS))`` readings at counter scale."""
    rng = np.random.default_rng(seed)
    rows = {}
    for rank in range(categories):
        means = [scale + separation * noise * rank + 11.0 * ei
                 for ei in range(len(EVENTS))]
        rows[rank] = np.round(rng.normal(means, noise,
                                         size=(samples, len(EVENTS))))
    return rows


def distributions_of(rows):
    return EventDistributions(
        {category: {event: mat[:, ei] for ei, event in enumerate(EVENTS)}
         for category, mat in rows.items()})


def stream_in_batches(rows, batch_size, **kwargs):
    evaluator = StreamingEvaluator(events=EVENTS, **kwargs)
    samples = max(mat.shape[0] for mat in rows.values())
    for start in range(0, samples, batch_size):
        for category, mat in rows.items():
            chunk = mat[start:start + batch_size]
            if chunk.shape[0]:
                evaluator.observe_rows(category, chunk)
        if evaluator.ready:
            evaluator.tick()
    return evaluator


def assert_reports_match(stream_report, batch_report, rel=1e-9):
    assert len(stream_report.results) == len(batch_report.results)
    for got, want in zip(stream_report.results, batch_report.results):
        assert (got.event, got.category_a, got.category_b) == \
            (want.event, want.category_a, want.category_b)
        denom = max(abs(want.ttest.statistic), 1.0)
        assert abs(got.ttest.statistic - want.ttest.statistic) <= rel * denom
        assert got.ttest.p_value == pytest.approx(want.ttest.p_value,
                                                  rel=1e-6, abs=1e-12)
        assert got.distinguishable == want.distinguishable
        assert got.effect_size == pytest.approx(want.effect_size, rel=1e-9)


class TestEquivalence:
    @pytest.mark.parametrize("samples", [5, 25, 100])
    @pytest.mark.parametrize("batch_size", [1, 7, 100])
    def test_matches_batch_across_sample_counts(self, samples, batch_size):
        rows = make_rows(seed=samples, samples=samples)
        streamed = stream_in_batches(rows, batch_size)
        batch = Evaluator().evaluate(distributions_of(rows))
        assert_reports_match(streamed.report(), batch)

    def test_student_method_matches_too(self):
        rows = make_rows(seed=2)
        streamed = stream_in_batches(rows, 9, method="student")
        batch = Evaluator(method="student").evaluate(distributions_of(rows))
        assert_reports_match(streamed.report(), batch)

    @given(st.integers(min_value=4, max_value=60),
           st.integers(min_value=1, max_value=17),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_property_equivalence(self, samples, batch_size, seed):
        rows = make_rows(seed=seed, categories=2, samples=samples)
        streamed = stream_in_batches(rows, batch_size)
        batch = Evaluator().evaluate(distributions_of(rows))
        assert_reports_match(streamed.report(), batch)

    def test_worker_partition_equivalence(self):
        # A parallel round reassembles its chunks in (category, start)
        # order before folding, so any worker partition of a round folds
        # bit-identically to the unsplit round (and matches batch at 1e-9).
        from repro.parallel import plan_chunks

        rows = make_rows(seed=4, samples=48)
        batch = Evaluator().evaluate(distributions_of(rows))
        states = []
        for workers in (1, 2, 3, 4):
            evaluator = StreamingEvaluator(events=EVENTS)
            for start in range(0, 48, 16):
                round_rows = {c: mat[start:start + 16]
                              for c, mat in rows.items()}
                chunks = plan_chunks({c: 16 for c in round_rows}, workers)
                fold_round(evaluator, {
                    c: np.concatenate([round_rows[c][spec.start:spec.stop]
                                       for spec in chunks
                                       if spec.category == c])
                    for c in round_rows})
            assert_reports_match(evaluator.report(), batch)
            states.append(evaluator.state())
        for state in states[1:]:
            for key, value in states[0].items():
                assert np.array_equal(state[key], value), key


class TestObserve:
    def test_observe_binds_insertion_order(self):
        # Event columns follow measurement insertion order — the same
        # convention EventDistributions.events uses — not sorted order.
        events = [HpcEvent.CYCLES, HpcEvent.CACHE_MISSES,
                  HpcEvent.BRANCHES]
        counts = [EventCounts({e: 10 * (i + 1) + j for j, e in
                               enumerate(events)})
                  for i in range(3)]
        evaluator = StreamingEvaluator()
        evaluator.observe(0, counts)
        assert evaluator.events == tuple(events)
        assert evaluator.samples_seen(0) == 3
        evaluator.observe(0, [])  # no-op
        assert evaluator.samples_seen(0) == 3

    def test_event_order_change_rejected(self):
        evaluator = StreamingEvaluator(events=EVENTS)
        with pytest.raises(EvaluationError, match="event order changed"):
            evaluator.observe_rows(0, np.zeros((2, 4)),
                                   events=tuple(reversed(EVENTS)))

    def test_rows_before_events_rejected(self):
        evaluator = StreamingEvaluator()
        with pytest.raises(EvaluationError, match="event order unknown"):
            evaluator.observe_rows(0, np.zeros((2, 4)))
        with pytest.raises(EvaluationError, match="event order unknown"):
            evaluator.observe_round({0: np.zeros((2, 4))})

    def test_not_ready_paths(self):
        evaluator = StreamingEvaluator(events=EVENTS)
        assert not evaluator.ready
        with pytest.raises(EvaluationError):
            evaluator.tick()
        with pytest.raises(EvaluationError):
            evaluator.report()
        evaluator.observe_rows(0, np.zeros((3, 4)))
        assert not evaluator.ready  # one category is not enough
        evaluator.observe_rows(1, np.ones((1, 4)))
        assert not evaluator.ready  # second category needs n >= 2


class TestTickAndAlarm:
    def test_detections_recorded_once_with_latency(self):
        rows = make_rows(seed=5, categories=2, samples=40, separation=8.0)
        evaluator = StreamingEvaluator(events=EVENTS)
        seen = []
        for start in range(0, 40, 10):
            for category, mat in rows.items():
                evaluator.observe_rows(category, mat[start:start + 10])
            tick = evaluator.tick()
            seen.extend(tick.new_detections)
            assert tick.tick == evaluator.ticks
            assert tick.samples == {0: start + 10, 1: start + 10}
            assert tick.statistic.shape == (1, len(EVENTS))
        # Well-separated categories: everything detected on tick 1, never
        # re-reported.
        assert evaluator.alarm
        records = evaluator.alarm_latency()
        assert records == sorted(
            records, key=lambda r: (r.event.value, r.category_a,
                                    r.category_b))
        assert seen == records or set(seen) == set(records)
        assert all(r.detection_n == 10 and r.tick == 1 for r in records)
        assert len(seen) == len(set((r.event, r.category_a, r.category_b)
                                    for r in seen))

    def test_indistinguishable_stream_never_alarms(self):
        # High confidence keeps the 16 (cell, tick) chances of a false
        # positive on identical distributions comfortably improbable.
        rng = np.random.default_rng(6)
        evaluator = StreamingEvaluator(events=EVENTS, confidence=0.9999)
        for _ in range(4):
            for category in (0, 1):
                evaluator.observe_rows(
                    category, rng.normal(1000.0, 50.0, size=(25, 4)))
            tick = evaluator.tick()
        assert not evaluator.alarm
        assert evaluator.alarm_latency() == []
        assert not tick.alarm

    def test_alarm_record_rendering(self):
        record = AlarmRecord(event=HpcEvent.CACHE_MISSES, category_a=0,
                             category_b=2, detection_n=25, tick=1)
        assert record.to_dict() == {
            "event": "cache-misses", "category_a": 0, "category_b": 2,
            "detection_n": 25, "tick": 1}
        assert "t1,3" in record.format(display={0: 1, 2: 3})
        assert "n=25" in record.format()


class TestStatePersistence:
    def test_round_trip_bit_exact_and_resumable(self):
        rows = make_rows(seed=7, samples=30, separation=8.0)
        evaluator = stream_in_batches(rows, 10)
        state = evaluator.state()
        assert int(state["meta/schema"][0]) == STREAM_STATE_SCHEMA_VERSION

        clone = StreamingEvaluator.from_state(state)
        assert clone.ticks == evaluator.ticks
        assert clone.events == evaluator.events
        assert clone.alarm_latency() == evaluator.alarm_latency()
        for key, value in evaluator.state().items():
            assert np.array_equal(value, clone.state()[key]), key

        # Resuming does not re-report already-detected cells.
        more = make_rows(seed=8, samples=10, separation=8.0)
        for category, mat in more.items():
            clone.observe_rows(category, mat)
        tick = clone.tick()
        assert tick.new_detections == []

    def test_npz_round_trip(self, tmp_path):
        rows = make_rows(seed=9, samples=20)
        evaluator = stream_in_batches(rows, 10)
        path = tmp_path / "state.npz"
        np.savez(path, **evaluator.state())
        with np.load(path, allow_pickle=False) as data:
            clone = StreamingEvaluator.from_state(dict(data.items()))
        assert_reports_match(clone.report(), evaluator.report(), rel=0.0)

    def test_from_state_validation(self):
        rows = make_rows(seed=10, samples=10)
        state = stream_in_batches(rows, 5).state()
        missing = {k: v for k, v in state.items() if k != "meta/events"}
        with pytest.raises(EvaluationError, match="missing"):
            StreamingEvaluator.from_state(missing)
        bad_schema = dict(state)
        bad_schema["meta/schema"] = np.asarray([99])
        with pytest.raises(EvaluationError, match="schema"):
            StreamingEvaluator.from_state(bad_schema)

    def test_state_before_data_rejected(self):
        with pytest.raises(EvaluationError):
            StreamingEvaluator().state()

    def test_memory_flat_in_stream_length(self):
        short = stream_in_batches(make_rows(seed=11, samples=10), 5)
        long = stream_in_batches(make_rows(seed=11, samples=500), 5)
        assert long.memory_bytes() == short.memory_bytes()


def first_rejections(ticks):
    """``(pair, event) -> tick`` of each cell's first p < 0.05, by brute force."""
    first = {}
    for tick in ticks:
        for pi, ei in zip(*np.nonzero(tick.p_value < 0.05)):
            first.setdefault((tick.pairs[pi], EVENTS[ei]), tick.tick)
    return first


class TestTickCaches:
    def test_resumed_mid_stream_emits_same_new_detections(self):
        rows = make_rows(seed=21, categories=4, samples=60, separation=0.4)

        def run(restore_at=None):
            evaluator = StreamingEvaluator(events=EVENTS)
            emitted = []
            for index, start in enumerate(range(0, 60, 3)):
                if index == restore_at:
                    evaluator = StreamingEvaluator.from_state(
                        evaluator.state())
                tick, _ = fold_round(evaluator, {
                    c: mat[start:start + 3] for c, mat in rows.items()})
                emitted.append([r.to_dict() for r in tick.new_detections])
            return emitted

        straight = run()
        assert any(straight[:8]) and any(straight[8:])  # both sides detect
        assert run(restore_at=8) == straight

    def test_late_category_rebuilds_pair_cache(self):
        rows = make_rows(seed=22, categories=3, samples=40, separation=3.0)
        evaluator = StreamingEvaluator(events=EVENTS)
        ticks = []
        for start in range(0, 40, 4):
            tick, _ = fold_round(evaluator, {
                c: mat[start:start + 4] for c, mat in rows.items()
                if c < 2 or start >= 20})
            ticks.append(tick)
        assert ticks[0].pairs == [(0, 1)]
        assert ticks[-1].pairs == [(0, 1), (0, 2), (1, 2)]
        late = [t for t in ticks if t.pairs != [(0, 1)]]
        assert late and late[0].tick == 6
        records = {((r.category_a, r.category_b), r.event): r.tick
                   for r in evaluator.alarm_latency()}
        assert len(records) == len(evaluator.alarm_latency())
        assert records == first_rejections(ticks)
        assert any(pair == (0, 1) for pair, _ in records)
        assert any(pair != (0, 1) for pair, _ in records)

    def test_pairs_are_handed_out_as_a_copy(self):
        evaluator = stream_in_batches(make_rows(seed=23, samples=10), 5)
        tick = evaluator.tick()
        tick.pairs.clear()
        assert evaluator.tick().pairs == [(0, 1), (0, 2), (1, 2)]

    def test_memory_bytes_counts_pair_cache_and_mask(self):
        evaluator = stream_in_batches(
            make_rows(seed=24, categories=4, samples=20, separation=8.0), 5)
        pairs = 6
        assert evaluator.memory_bytes() == (
            evaluator.moments.memory_bytes()
            + 64 * len(evaluator.alarm_latency())
            + pairs * 2 * 8 + pairs * len(EVENTS))


class TestReplayAndReportSection:
    def test_replay_matches_batch(self):
        rows = make_rows(seed=12, samples=50)
        distributions = distributions_of(rows)
        streamed = replay_stream(distributions, batch_size=10)
        assert streamed.ticks == 5
        assert_reports_match(streamed.report(),
                             Evaluator().evaluate(distributions))

    def test_replay_validates_batch_size(self):
        rows = make_rows(seed=13, samples=10)
        with pytest.raises(EvaluationError):
            replay_stream(distributions_of(rows), batch_size=0)

    def test_report_section_shape(self):
        rows = make_rows(seed=14, samples=30, separation=8.0)
        evaluator = stream_in_batches(rows, 10)
        section = streaming_report_section(evaluator, batch_size=10)
        assert list(section) == ["stream_schema", "batch_size", "ticks",
                                 "alarm", "detections", "memory_bytes"]
        assert section["stream_schema"] == STREAM_STATE_SCHEMA_VERSION
        assert section["ticks"] == evaluator.ticks
        assert section["alarm"] is True
        assert section["detections"] == evaluator.alarm_latency_rows()
        assert all(isinstance(row["event"], str)
                   for row in section["detections"])
