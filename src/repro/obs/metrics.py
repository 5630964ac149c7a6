"""Metrics registry: counters, gauges and histograms with labels.

The registry is the numeric half of the telemetry layer: span trees say
*where* time went, metrics say *how much of what* happened — samples
measured, cache hits, t-test pairs, per-readout nanoseconds.  Each metric
is identified by ``(name, labels)``; labels are free-form key/value pairs
(``cache.hit{kind=measurement}``).

Every instrument is **mergeable**: a worker process can run its own
registry and ship it to the parent, which folds it in with
:meth:`MetricsRegistry.merge` / :meth:`MetricsRegistry.fold_state`.
Merging is exact — counters add, histogram buckets add — so parallel
shards combine into the same totals regardless of worker count, provided
the caller merges shards in a deterministic order (the executor merges by
``(category, chunk start)``).

Histograms are fixed-boundary bucketed (log-spaced by default): memory is
bounded no matter how many observations arrive, and two histograms over
the same boundaries merge without approximation.  A small raw-value
window is retained for exact percentiles on short runs; once it
overflows, percentiles degrade to bucket upper bounds and the record is
flagged ``truncated``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError

#: Schema version of snapshot/state records (bump on layout changes).
METRICS_SCHEMA_VERSION = 2

#: Canonical label identity: sorted (key, value-as-string) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_labels(labels: LabelKey) -> str:
    """Render a label set as ``{k=v,k2=v2}`` (empty string when unlabeled)."""
    if not labels:
        return ""
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return "{" + inner + "}"


def log_bucket_boundaries(minimum: float = 1e-9, maximum: float = 1e12,
                          per_decade: int = 3) -> Tuple[float, ...]:
    """Log-spaced histogram boundaries covering ``[minimum, maximum]``.

    Boundaries are computed from integer decade steps, so every process
    evaluating the same arguments produces bit-identical floats — a
    precondition for cross-process bucket merging.
    """
    if minimum <= 0 or maximum <= minimum:
        raise ConfigError(
            f"need 0 < minimum < maximum, got [{minimum}, {maximum}]")
    if per_decade < 1:
        raise ConfigError(f"per_decade must be >= 1, got {per_decade}")
    lo = math.floor(math.log10(minimum) * per_decade)
    hi = math.ceil(math.log10(maximum) * per_decade)
    return tuple(10.0 ** (step / per_decade) for step in range(lo, hi + 1))


#: Default boundaries: 1ns .. 1e12 (covers ns timings, byte sizes and
#: event counts alike), 3 buckets per decade.
DEFAULT_BOUNDARIES = log_bucket_boundaries()

#: Raw observations kept per histogram for exact percentiles; beyond this
#: the raw window is dropped (memory stays bounded) and percentiles come
#: from the buckets.
DEFAULT_RETAIN_LIMIT = 512


class Counter:
    """Monotonically increasing count (events, hits, samples)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter in (values add)."""
        self.value += other.value


class Gauge:
    """Last-written value (accuracy, loss, configuration readouts)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in: a set incoming value wins (last-write
        semantics; callers merge shards in a deterministic order)."""
        if other.value is not None:
            self.value = other.value


class Histogram:
    """Bounded-memory distribution of observed values.

    Observations land in fixed buckets (``value <= boundary``, Prometheus
    ``le`` semantics, plus one overflow bucket), with exact count / total /
    min / max accumulators on the side.  The first ``retain_limit`` raw
    values are kept so short histograms report exact percentiles; past
    the limit the raw window is dropped and :meth:`percentile` answers
    with the containing bucket's upper bound (the overflow bucket answers
    with the observed max).

    Args:
        boundaries: Strictly increasing bucket upper bounds (default:
            :data:`DEFAULT_BOUNDARIES`, log-spaced 1e-9..1e12).
        retain_limit: Raw observations to keep for exact percentiles
            (0 disables raw retention entirely).
    """

    __slots__ = ("boundaries", "bucket_counts", "retain_limit", "values",
                 "truncated", "_count", "_total", "_min", "_max")

    def __init__(self, boundaries: Optional[Sequence[float]] = None,
                 retain_limit: int = DEFAULT_RETAIN_LIMIT):
        bounds = (DEFAULT_BOUNDARIES if boundaries is None
                  else tuple(float(b) for b in boundaries))
        if not bounds:
            raise ConfigError("histogram needs at least one bucket boundary")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ConfigError("bucket boundaries must be strictly increasing")
        if retain_limit < 0:
            raise ConfigError(
                f"retain_limit must be >= 0, got {retain_limit}")
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.retain_limit = retain_limit
        self.values: List[float] = []
        self.truncated = retain_limit == 0
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self._count += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if not self.truncated:
            if len(self.values) < self.retain_limit:
                self.values.append(value)
            else:
                # Cap raw retention: memory stays bounded, percentiles
                # fall back to bucket resolution.
                self.values = []
                self.truncated = True

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of observations."""
        return self._total

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (0.0 when empty)."""
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        """Largest observation (0.0 when empty)."""
        return self._max if self._max is not None else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 100).

        Exact (nearest-rank over the raw window) while the histogram has
        seen at most ``retain_limit`` values; afterwards the answer is the
        upper boundary of the bucket containing that rank.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {q}")
        if self._count == 0:
            return 0.0
        rank = max(0, math.ceil(q / 100.0 * self._count) - 1)
        if not self.truncated:
            return sorted(self.values)[rank]
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if rank < seen:
                if index < len(self.boundaries):
                    return self.boundaries[index]
                return self.max  # overflow bucket: max is the best bound
        return self.max  # pragma: no cover - counts always cover ranks

    def summary(self) -> Dict[str, float]:
        """count/total/mean/min/p50/p95/max of the observations."""
        if self._count == 0:
            return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0,
                    "p50": 0.0, "p95": 0.0, "max": 0.0}
        return {
            "count": self._count,
            "total": self._total,
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.max,
        }

    # ------------------------------------------------------------------
    # Merge + serialization
    # ------------------------------------------------------------------

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in; buckets add exactly.

        Both histograms must share identical boundaries.  Raw windows are
        concatenated while the result still fits ``retain_limit``;
        otherwise the merged histogram keeps buckets only.
        """
        if self.boundaries != other.boundaries:
            raise ConfigError(
                "cannot merge histograms with different bucket boundaries "
                f"({len(self.boundaries)} vs {len(other.boundaries)} bounds)")
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self._count += other._count
        self._total += other._total
        if other._min is not None and (self._min is None
                                       or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None
                                       or other._max > self._max):
            self._max = other._max
        if (self.truncated or other.truncated
                or len(self.values) + len(other.values) > self.retain_limit):
            self.values = []
            self.truncated = True
        else:
            self.values.extend(other.values)

    def state(self) -> Dict[str, Any]:
        """Full JSON-serializable state (for cross-process shipping)."""
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "count": self._count,
            "total": self._total,
            "min": self._min,
            "max": self._max,
            "retain_limit": self.retain_limit,
            "truncated": self.truncated,
            "values": list(self.values),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`state` output."""
        histogram = cls(boundaries=state["boundaries"],
                        retain_limit=state.get("retain_limit",
                                               DEFAULT_RETAIN_LIMIT))
        histogram.bucket_counts = [int(c) for c in state["bucket_counts"]]
        histogram._count = int(state["count"])
        histogram._total = float(state["total"])
        histogram._min = state["min"]
        histogram._max = state["max"]
        histogram.truncated = bool(state["truncated"])
        histogram.values = ([] if histogram.truncated
                            else [float(v) for v in state["values"]])
        return histogram

    def nonzero_buckets(self) -> List[List[float]]:
        """``[upper_bound, count]`` for every non-empty bucket.

        The overflow bucket's bound is reported as ``inf``.
        """
        out = []
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count:
                bound = (self.boundaries[index]
                         if index < len(self.boundaries) else math.inf)
                out.append([bound, bucket_count])
        return out


class MetricsRegistry:
    """Thread-safe home of every metric instrument.

    Instruments are created on first touch and keyed by
    ``(kind, name, labels)``; asking for an existing name with a different
    kind is an error (one name, one instrument type).

    Args:
        histogram_boundaries: Bucket boundaries for histograms created by
            this registry (default: the log-spaced
            :data:`DEFAULT_BOUNDARIES`).
        histogram_retain_limit: Raw-value window per histogram.
    """

    def __init__(self,
                 histogram_boundaries: Optional[Sequence[float]] = None,
                 histogram_retain_limit: int = DEFAULT_RETAIN_LIMIT):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}
        self._kinds: Dict[str, str] = {}
        self._histogram_boundaries = (
            tuple(histogram_boundaries) if histogram_boundaries is not None
            else None)
        self._histogram_retain_limit = histogram_retain_limit

    def _instrument(self, kind: str, name: str, labels: Dict[str, Any],
                    factory) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is None:
                self._kinds[name] = kind
            elif existing_kind != kind:
                raise ConfigError(
                    f"metric {name!r} already registered as {existing_kind}, "
                    f"cannot reuse it as a {kind}"
                )
            instrument = self._metrics.get(key)
            if instrument is None:
                instrument = self._metrics[key] = factory()
            return instrument

    def _histogram_factory(self) -> Histogram:
        return Histogram(boundaries=self._histogram_boundaries,
                         retain_limit=self._histogram_retain_limit)

    # ------------------------------------------------------------------
    # Instrument accessors
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter registered under ``(name, labels)``."""
        return self._instrument("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge registered under ``(name, labels)``."""
        return self._instrument("gauge", name, labels, Gauge)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram registered under ``(name, labels)``."""
        return self._instrument("histogram", name, labels,
                                self._histogram_factory)

    # ------------------------------------------------------------------
    # One-shot recording helpers
    # ------------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` into histogram ``name``."""
        self.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every instrument of ``other`` into this registry.

        Counters add, histogram buckets add, set gauges overwrite.  The
        result is independent of *how the work was sharded* (any grouping
        of the same observations merges to the same totals); callers who
        merge many shards should do so in a deterministic order so gauge
        last-write semantics are reproducible.
        """
        with other._lock:
            items = list(other._metrics.items())
            kinds = dict(other._kinds)
        for (name, labels), instrument in sorted(items):
            kind = kinds[name]
            if kind == "histogram":
                # A histogram created here adopts the incoming boundaries,
                # so fresh names always merge; an existing instrument must
                # already share them (merge() checks).
                factory = (lambda inst=instrument: Histogram(
                    boundaries=inst.boundaries,
                    retain_limit=inst.retain_limit))
            else:
                factory = Counter if kind == "counter" else Gauge
            mine = self._instrument(kind, name, dict(labels), factory)
            mine.merge(instrument)

    def state(self) -> Dict[str, Any]:
        """Full JSON-serializable registry state (for worker shipping)."""
        with self._lock:
            items = list(self._metrics.items())
            kinds = dict(self._kinds)
        records = []
        for (name, labels), instrument in sorted(items):
            record: Dict[str, Any] = {
                "kind": kinds[name],
                "name": name,
                "labels": dict(labels),
            }
            if isinstance(instrument, Histogram):
                record["histogram"] = instrument.state()
            else:
                record["value"] = instrument.value
            records.append(record)
        return {"schema": METRICS_SCHEMA_VERSION, "metrics": records}

    def fold_state(self, state: Dict[str, Any]) -> None:
        """Fold a serialized registry (:meth:`state`) into this one."""
        for record in state["metrics"]:
            kind = record["kind"]
            name = record["name"]
            labels = record["labels"]
            if kind == "counter":
                self.counter(name, **labels).inc(record["value"] or 0.0)
            elif kind == "gauge":
                if record["value"] is not None:
                    self.gauge(name, **labels).set(record["value"])
                else:
                    self.gauge(name, **labels)
            elif kind == "histogram":
                incoming = Histogram.from_state(record["histogram"])
                mine = self._instrument(
                    "histogram", name, labels,
                    lambda inc=incoming: Histogram(
                        boundaries=inc.boundaries,
                        retain_limit=inc.retain_limit))
                mine.merge(incoming)
            else:
                raise ConfigError(f"unknown metric kind {kind!r} in state")

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`state` output."""
        registry = cls()
        registry.fold_state(state)
        return registry

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0.0 when never touched)."""
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._metrics.get(key)
        return instrument.value if isinstance(instrument, Counter) else 0.0

    def snapshot(self) -> List[Dict[str, Any]]:
        """All instruments as plain records, sorted by (name, labels).

        Counter/gauge records carry ``value``; histogram records carry the
        :meth:`Histogram.summary` fields plus the non-empty ``buckets``
        (``[upper_bound, count]`` pairs) and a ``truncated`` flag.
        """
        with self._lock:
            items = list(self._metrics.items())
            kinds = dict(self._kinds)
        records = []
        for (name, labels), instrument in sorted(items):
            record: Dict[str, Any] = {
                "type": "metric",
                "kind": kinds[name],
                "name": name,
                "labels": dict(labels),
            }
            if isinstance(instrument, Histogram):
                record.update(instrument.summary())
                record["buckets"] = instrument.nonzero_buckets()
                record["truncated"] = instrument.truncated
            else:
                record["value"] = instrument.value
            records.append(record)
        return records

    def clear(self) -> None:
        """Drop every instrument."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
