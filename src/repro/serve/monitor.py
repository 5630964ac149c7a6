"""Per-tenant evaluation core of the monitoring daemon.

A :class:`TenantMonitor` owns exactly the machinery one ``repro stream``
run owns — a :class:`~repro.core.streaming.StreamingEvaluator` plus an
optional :class:`~repro.core.drift.DriftMonitor` — and folds measurement
rounds into it through :func:`~repro.core.streaming.fold_round`: **sorted
category order, then one tick**.  Because per-category moment
accumulators are independent and the tick points coincide, a daemon that
ingests the same row sequence as an offline replay produces bit-identical
t statistics, p-values and first-detection records, no matter how the
rounds were interleaved on the wire.  That equivalence is the daemon's
correctness contract and is enforced by test and bench.

On top of the stream-identical detection bookkeeping sits the *resident*
alarm layer: a stream that runs forever cannot re-test at a fixed alpha
(every leak-free tenant would eventually alarm), so tick ``t`` spends
:func:`~repro.core.sequential.spend_alpha` ``(alpha, t)`` and splits it
evenly across the tick's (pair, event) cells.  The paper's rule — alarm
when any null hypothesis is rejected — then reads directly off the tick's
own p-value array: the round alarms when any ``p < alpha_spent / cells``.
No second t/p pass runs, and the test stays well defined however small
the spent level gets, so tenants run for thousands of ticks (they used to
die at tick 42–46, once ``1 - alpha_cell`` rounded to 1.0).  A union
bound — across ticks by the spending series, across cells by the split —
caps the lifetime false-alarm probability of this layer at ``alpha``.
Alarm state is O(1): the first alarm plus a counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.drift import DriftAlarm, DriftMonitor
from ..core.sequential import spend_alpha
from ..core.streaming import AlarmRecord, StreamingEvaluator, fold_round
from ..errors import EvaluationError
from .config import ServeConfig, TenantSpec

__all__ = ["MeasurementRound", "RoundOutcome", "TenantMonitor"]


@dataclass(frozen=True)
class MeasurementRound:
    """One admission unit: a batch of rows for every category of a tenant.

    Attributes:
        tenant: Target tenant.
        index: 0-based round sequence number (per tenant).
        batches: ``category -> (B, E)`` float64 measurement rows; every
            configured category must be present with the same ``B``.
        submitted_at: Producer-side monotonic timestamp (seconds), used
            for ingest-latency and alarm-lag accounting.
    """

    tenant: str
    index: int
    batches: Mapping[int, np.ndarray]
    submitted_at: float = 0.0

    def nbytes(self) -> int:
        """Payload bytes (the row arrays; admission accounting)."""
        return int(sum(rows.nbytes for rows in self.batches.values()))


@dataclass(frozen=True)
class RoundOutcome:
    """What ingesting one round produced.

    Attributes:
        tenant: The tenant.
        round_index: The ingested round.
        tick: Evaluation tick index (None while the evaluator warms up).
        new_detections: First-detection records raised on this tick
            (identical to what ``repro stream`` would record).
        alarmed: True when the spending alarm layer fired on this round
            (some cell's ``p < spent_alpha / cells``).
        spent_alpha: Significance level the spending layer tested at.
        drift_alarms: Drift cells first raised on this tick.
    """

    tenant: str
    round_index: int
    tick: Optional[int]
    new_detections: Tuple[AlarmRecord, ...] = ()
    alarmed: bool = False
    spent_alpha: Optional[float] = None
    drift_alarms: Tuple[DriftAlarm, ...] = ()


class TenantMonitor:
    """Streaming leakage + drift evaluation for one tenant.

    Args:
        spec: The tenant being monitored.
        config: Daemon-wide settings (confidence, spending, alpha...).
    """

    def __init__(self, spec: TenantSpec, config: ServeConfig):
        self.spec = spec
        self.config = config
        self.evaluator = StreamingEvaluator(
            confidence=config.confidence, method=config.method,
            events=spec.events)
        self.drift: Optional[DriftMonitor] = None
        if config.drift_threshold is not None:
            self.drift = DriftMonitor(window=config.drift_window,
                                      threshold=config.drift_threshold)
        self.rounds_ingested = 0
        self.leakage_alarm_count = 0
        self._first_leakage_alarm: Optional[RoundOutcome] = None

    def ingest_round(self, round_: MeasurementRound) -> RoundOutcome:
        """Fold one round in through :func:`~repro.core.streaming.fold_round`.

        The canonical fold order is load-bearing: it is the one function
        ``MeasurementSession.stream`` and ``replay_stream`` call too, which
        is what makes daemon verdicts bit-identical to offline ones.

        Ingestion is all-or-nothing: every batch is validated and
        converted before the first accumulator is touched, so a rejected
        round leaves the monitor bit-identical to before the call.  The
        daemon's exactly-once re-ingest after a consumer restart depends
        on this — a round that half-mutated state before raising would be
        double-counted on replay.
        """
        if round_.tenant != self.spec.tenant:
            raise EvaluationError(
                f"round for tenant {round_.tenant!r} routed to monitor "
                f"of {self.spec.tenant!r}")
        missing = set(self.spec.categories) - set(round_.batches)
        if missing:
            raise EvaluationError(
                f"round {round_.index} of tenant {round_.tenant!r} is "
                f"missing categories {sorted(missing)}")
        columns = len(self.spec.events)
        batches: Dict[int, np.ndarray] = {}
        for category in sorted(round_.batches):
            try:
                rows = np.asarray(round_.batches[category],
                                  dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise EvaluationError(
                    f"round {round_.index} of tenant {round_.tenant!r}: "
                    f"category {category} rows are not numeric") from exc
            if rows.ndim == 1:
                rows = rows[None, :]
            if rows.ndim != 2 or rows.shape[1] != columns:
                raise EvaluationError(
                    f"round {round_.index} of tenant {round_.tenant!r}: "
                    f"category {category} rows have shape {rows.shape}, "
                    f"expected (B, {columns})")
            batches[category] = rows
        # Validated float64 (B, E) arrays only from here on: the fold
        # below is pure accumulator arithmetic and cannot raise.
        tick, drift_alarms = fold_round(self.evaluator, batches, self.drift)
        self.rounds_ingested += 1
        if tick is None:
            return RoundOutcome(tenant=self.spec.tenant,
                                round_index=round_.index, tick=None)
        alpha = spend_alpha(self.config.alpha, tick.tick,
                            scheme=self.config.spending)
        # The spent budget covers the tick's whole (pair, event) family:
        # each cell is tested at a Bonferroni share, so the union bound
        # holds across cells within a tick as well as across ticks.
        alpha_cell = alpha / tick.p_value.size
        alarmed = bool((tick.p_value < alpha_cell).any())
        outcome = RoundOutcome(
            tenant=self.spec.tenant,
            round_index=round_.index,
            tick=tick.tick,
            new_detections=tuple(tick.new_detections),
            alarmed=alarmed,
            spent_alpha=alpha,
            drift_alarms=tuple(drift_alarms),
        )
        if alarmed:
            self.leakage_alarm_count += 1
            if self._first_leakage_alarm is None:
                self._first_leakage_alarm = outcome
        return outcome

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def leakage_alarmed(self) -> bool:
        """True once the spending alarm layer has ever fired."""
        return self._first_leakage_alarm is not None

    @property
    def first_leakage_alarm(self) -> Optional[RoundOutcome]:
        """The first spending-layer alarm (None while quiet)."""
        return self._first_leakage_alarm

    @property
    def drift_alarmed(self) -> bool:
        """True once any drift cell has fired."""
        return self.drift is not None and self.drift.alarm

    def memory_bytes(self) -> int:
        """Evaluator + drift + alarm state bytes (flat in stream length).

        The spending layer's alarm state is the alarm counter plus, once
        it has fired, the first alarm's tick, round index, flag and spent
        alpha; its detection and drift records are the evaluator's and
        drift monitor's own, already counted there.
        """
        total = self.evaluator.memory_bytes() + 8  # the alarm counter
        if self._first_leakage_alarm is not None:
            total += 4 * 8
        if self.drift is not None:
            total += self.drift.memory_bytes()
        return total

    def summary(self) -> Dict[str, object]:
        """JSON-friendly tenant status row."""
        detections = self.evaluator.alarm_latency()
        return {
            "tenant": self.spec.tenant,
            "model": self.spec.model,
            "rounds": self.rounds_ingested,
            "ticks": self.evaluator.ticks,
            "detections": len(detections),
            "leakage_alarm": self.leakage_alarmed,
            "leakage_alarm_tick": (
                self._first_leakage_alarm.tick
                if self._first_leakage_alarm else None),
            "leakage_alarm_count": self.leakage_alarm_count,
            "drift_alarm": self.drift_alarmed,
            "drift_alarms": (self.drift.alarm_rows()
                             if self.drift is not None else []),
            "memory_bytes": self.memory_bytes(),
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state(self) -> Dict[str, np.ndarray]:
        """Npz-able monitor state (evaluator, drift, alarm summary).

        Alongside the evaluator accumulators and drift windows/alarm
        table, the spending layer persists its first alarm as one
        ``(tick, round_index)`` row plus the alarm count, so
        :attr:`leakage_alarmed`, the first-alarm tick and the count
        survive a checkpoint/resume in a state whose size is flat in
        stream length.
        """
        out = self.evaluator.state()
        out["serve/rounds"] = np.asarray([self.rounds_ingested],
                                         dtype=np.int64)
        first = self._first_leakage_alarm
        if first is not None:
            out["serve/alarm_rounds"] = np.asarray(
                [[first.tick, first.round_index]], dtype=np.int64)
            out["serve/alarm_count"] = np.asarray(
                [self.leakage_alarm_count], dtype=np.int64)
        if self.drift is not None:
            out.update(self.drift.state())
        return out

    @classmethod
    def from_state(cls, arrays: Mapping[str, np.ndarray],
                   spec: TenantSpec, config: ServeConfig) -> "TenantMonitor":
        """Rebuild a monitor from persisted :meth:`state` arrays.

        The restored first alarm carries its tick, round index and
        (recomputed) spent alpha.  Older checkpoints stored one
        ``serve/alarm_rounds`` row per alarmed round and no count; their
        first row is the first alarm and their row count the alarm count.
        """
        monitor = cls(spec, config)
        monitor.evaluator = StreamingEvaluator.from_state(
            arrays, confidence=config.confidence, method=config.method)
        if "serve/rounds" in arrays:
            monitor.rounds_ingested = int(
                np.asarray(arrays["serve/rounds"])[0])
        if "serve/alarm_rounds" in arrays:
            rows = np.asarray(arrays["serve/alarm_rounds"],
                              dtype=np.int64).reshape(-1, 2)
            tick, round_index = rows[0].tolist()
            monitor._first_leakage_alarm = RoundOutcome(
                tenant=spec.tenant, round_index=round_index, tick=tick,
                alarmed=True,
                spent_alpha=spend_alpha(config.alpha, tick,
                                        scheme=config.spending))
            monitor.leakage_alarm_count = (
                int(np.asarray(arrays["serve/alarm_count"])[0])
                if "serve/alarm_count" in arrays else len(rows))
        if monitor.drift is not None:
            monitor.drift = DriftMonitor.from_state(
                arrays, window=config.drift_window,
                threshold=config.drift_threshold)
        return monitor
