"""Shared machinery of the pipeline benchmark.

* the metric catalogue (names, units) that every run prints in full;
* an in-memory span tracer with parent links and per-round identifiers;
* the tail-percentile rule and self-time accounting;
* the run-environment record stored next to every result.

Nothing here imports :mod:`repro`, so the self-tests run without it.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import os
import platform
import re
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

#: Metric names: letters, digits, ``_``, ``.`` and ``-`` only.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: End-to-end metrics, printed by every untraced run: name -> unit.
#: Each workload defines its own *op*: one verdict (config to
#: LeakageReport) for the evaluate workloads, one measurement round (due
#: or submit time to its outcome callback) for the serve workloads.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "goodput_share": "share",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
}

#: Per-layer metrics, printed by every traced run: name -> unit.  A layer
#: that does no work on a workload reports 0.
PER_LAYER: Dict[str, str] = {
    "datasets.busy_s": "s",
    "datasets.samples": "count",
    "nn.train.busy_s": "s",
    "nn.train.samples_per_s": "1/s",
    "nn.load.busy_s": "s",
    "nn.infer.busy_s": "s",
    "trace.busy_s": "s",
    "trace.ops": "count",
    "trace.mem_accesses": "count",
    "uarch.busy_s": "s",
    "uarch.ops_per_s": "1/s",
    "hpc.self_s": "s",
    "hpc.measurements": "count",
    "hpc.retries": "count",
    "core.evaluator.busy_s": "s",
    "core.evaluator.tests": "count",
    "serve.monitor.ingest_ms_p50": "ms",
    "serve.monitor.ingest_ms_p99": "ms",
    "core.streaming.tick_ms_p50": "ms",
    "core.streaming.report_ms_p50": "ms",
    "core.drift.check_ms_p50": "ms",
    "serve.queues.admit_wait_ms_p50": "ms",
    "serve.queues.admit_wait_ms_p99": "ms",
    "serve.queues.queue_wait_ms_p50": "ms",
    "serve.queues.queue_wait_ms_p99": "ms",
    "serve.queues.peak_bytes": "bytes",
    "serve.queues.rounds_rejected": "count",
    "serve.daemon.restarts": "count",
    "serve.daemon.tenants_failed": "count",
    "serve.daemon.refolded_rounds": "count",
    "serve.monitor.bytes": "bytes",
    "load.lateness_ms_p99": "ms",
    "bench.traced_latency_p50_ms": "ms",
    "bench.unattributed_share": "share",
    "bench.spans": "count",
}


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

#: Tail candidates in per-mille, highest first.
_TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


def tail_percentile(count: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it.

    Falls back to the maximum (100) when fewer than 20 samples exist.
    """
    for permille in _TAIL_PERMILLE:
        if count * (1000 - permille) >= 10 * 1000:
            return permille / 10.0
    return 100.0


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for no values."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Machine-speed reference and timed windows
# ----------------------------------------------------------------------

_REF_RNG = np.random.default_rng(20190602)
_REF_MATRIX = _REF_RNG.random((64, 64))
_REF_VECTOR = _REF_RNG.random(50_000)


#: Reference-kernel time that speed-scaled figures are expressed at.
NOMINAL_REFERENCE_MS = 25.0


def reference_ms(samples: int = 5) -> float:
    """Median time of a fixed kernel independent of :mod:`repro`.

    The kernel mixes bytecode, small BLAS calls and array sorts and keeps
    the core busy, so it measures how fast a busy core runs right now.
    """
    times = []
    for _ in range(samples + 1):  # the first run warms up
        started = time.perf_counter()
        total = 0
        for i in range(80_000):
            total += i * i
        for _ in range(240):
            total += float((_REF_MATRIX @ _REF_MATRIX).sum())
        for _ in range(48):
            total += float(np.sort(_REF_VECTOR)[0])
        times.append(time.perf_counter() - started)
    return median(times[1:]) * 1e3


@dataclass
class Window:
    """One stretch of timed work: a run's verdicts or a daemon lifetime.

    Attributes:
        latencies_ms: Latency of every op completed in the window.
        work: Work units completed (measured samples, ingested rounds).
        busy_s: Busy seconds of the window's work: process CPU time, or
            for the polling fleet the monitors' time in ``ingest_round``.
        ref_ms: Reference-kernel time around the window
            (:func:`timed_windows` sets it).
    """

    latencies_ms: List[float]
    work: float
    busy_s: float
    ref_ms: float = 0.0


def timed_windows(seconds: float, run_one: Callable[[int], Window],
                  min_windows: int = 3) -> List[Window]:
    """Run windows until ``seconds`` pass (at least ``min_windows``).

    :func:`reference_ms` runs before the first window and after each one;
    a window's ``ref_ms`` is the mean of the two measurements around it.
    """
    windows: List[Window] = []
    before = reference_ms()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(windows) < min_windows:
        window = run_one(len(windows))
        after = reference_ms()
        window.ref_ms = (before + after) / 2
        before = after
        windows.append(window)
    return windows


def at_nominal_speed(window: Window) -> Window:
    """``window`` as read on a runner whose reference kernel takes
    :data:`NOMINAL_REFERENCE_MS`: times scale by nominal / measured."""
    factor = NOMINAL_REFERENCE_MS / window.ref_ms
    return Window([lat * factor for lat in window.latencies_ms],
                  window.work, window.busy_s * factor, NOMINAL_REFERENCE_MS)


#: Ops per block over which the tail percentile is taken.
TAIL_BLOCK = 100


def tail_blocks(latencies_ms: Sequence[float]) -> List[Dict[str, float]]:
    """Tail of each run of :data:`TAIL_BLOCK` consecutive ops.

    A trailing partial block is dropped; a run shorter than one block is
    a single block.  Each block reports its :func:`tail_percentile`.
    """
    n = len(latencies_ms)
    starts = range(0, max(1, n - TAIL_BLOCK + 1), TAIL_BLOCK)
    blocks = ([latencies_ms[i:i + TAIL_BLOCK] for i in starts]
              if n >= TAIL_BLOCK else [latencies_ms])
    out = []
    for block in blocks:
        if len(block):
            q = tail_percentile(len(block))
            out.append({"percentile": q, "ops": len(block),
                        "ms": percentile(block, q)})
    return out


def window_outcome(windows: Sequence[Window], attempted: int,
                   limit_ms: float, setup_s: float, rss_mb: float,
                   checks: Dict[str, bool], details: Dict[str, object]
                   ) -> "Outcome":
    """End-to-end metrics of a run.

    Windows are first scaled to nominal speed (:func:`at_nominal_speed`);
    the goodput limit applies to raw latency.
    Ops not completed count as failed and as misses of the goodput limit.
    The p50 is taken over all completed ops.  The tail is the median of
    the :func:`tail_blocks` tails, so one stall cannot set it; stalls
    show in ``goodput_share``.  Throughput is work per busy second.
    """
    raw_ms = [lat for w in windows for lat in w.latencies_ms]
    references = [w.ref_ms for w in windows]
    windows = [at_nominal_speed(w) for w in windows]
    scaled = [lat for w in windows for lat in w.latencies_ms]
    tails = tail_blocks(scaled)
    busy = sum(w.busy_s for w in windows)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ok_share": len(scaled) / max(1, attempted),
        "goodput_share": sum(lat <= limit_ms for lat in raw_ms)
        / max(1, attempted),
        "latency_p50_ms": median(scaled),
        "latency_tail_ms": median([tail["ms"] for tail in tails]),
        "throughput_per_s": (sum(w.work for w in windows) / busy
                             if busy else 0.0),
    }
    details.update({
        "raw_latency_p50_ms": median(raw_ms),
        "reference_ms": references,
        "ops_attempted": attempted,
        "ops_completed": len(scaled),
        "failed_share": 1.0 - len(scaled) / max(1, attempted),
        "goodput_limit_ms": limit_ms,
        "tail_blocks": tails,
    })
    return Outcome(attempted=attempted, failed=attempted - len(scaled),
                   metrics=metrics, checks=checks, details=details)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

@dataclass
class Span:
    """One timed call at a layer boundary."""

    id: int
    name: str
    parent: Optional[int]
    round_id: object
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "round": self.round_id, "start": self.start,
                "end": self.end, **({"attrs": self.attrs}
                                    if self.attrs else {})}


class Tracer:
    """In-memory span recorder.

    The open span is tracked per asyncio task / thread through a context
    variable, so spans opened inside a span become its children.  A child
    inherits its parent's round identifier unless it names its own.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)

    @contextmanager
    def span(self, name: str, round_id: object = None):
        parent = self._current.get()
        if round_id is None and parent is not None:
            round_id = parent.round_id
        span = Span(id=len(self.spans), name=name,
                    parent=parent.id if parent is not None else None,
                    round_id=round_id, start=self.clock())
        self.spans.append(span)
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._current.reset(token)

    def add(self, name: str, start: float, end: float,
            round_id: object) -> Span:
        """Record an already-finished root interval (e.g. a queue wait)."""
        span = Span(id=len(self.spans), name=name, parent=None,
                    round_id=round_id, start=start, end=end)
        self.spans.append(span)
        return span

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable[[Span, tuple, dict, object], None]]
             = None) -> Callable:
        """``fn`` inside a span; ``note(span, args, kwargs, result)``
        records counts on it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(span, args, kwargs, result)
            return result

        return traced

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the part its children cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            out[span.id] = span.duration - covered(
                [(c.start, c.end) for c in children.get(span.id, [])],
                span.start, span.end)
        return out

    def root_of(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span


def covered(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def per_root(tracer: Tracer, names: Sequence[str],
             value: Optional[Callable[[Span, float], float]] = None
             ) -> Dict[str, float]:
    """Mean per root span of ``value(span, self_time)`` summed by name.

    ``value`` defaults to the self time.  A root span is one timed op
    (``verdict``) or one set-up repetition.  Each name is averaged over
    the verdicts that contain it, or, for a layer that runs in set-up
    only (the CIFAR victim's training), over the set-up repetitions.
    """
    self_times = tracer.self_times()
    totals: Dict[tuple, float] = {}
    roots: Dict[tuple, set] = {}
    for span in tracer.spans:
        if span.name in names:
            root = tracer.root_of(span)
            key = (span.name, root.name == "verdict")
            totals[key] = totals.get(key, 0.0) + (
                self_times[span.id] if value is None
                else value(span, self_times[span.id]))
            roots.setdefault(key, set()).add(root.id)
    out = {}
    for name in names:
        key = (name, True) if (name, True) in roots else (name, False)
        out[name] = totals[key] / len(roots[key]) if key in roots else 0.0
    return out


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(root: Path) -> Dict[str, object]:
    """Where a result came from: hardware, versions, threading."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "git_rev": git_rev(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


def git_rev(root: Path) -> str:
    """HEAD commit read from ``.git`` directly; "unknown" outside git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            if target.exists():
                return target.read_text().strip()
            packed = (root / ".git" / "packed-refs").read_text()
            for line in packed.splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def blas_threads() -> Dict[str, object]:
    """BLAS pool sizes (threadpoolctl when present) plus the env knobs."""
    out: Dict[str, object] = {
        key: os.environ[key] for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if key in os.environ}
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        out["pools"] = "threadpoolctl unavailable"
    else:
        out["pools"] = [{"api": info.get("internal_api"),
                         "threads": info.get("num_threads")}
                        for info in threadpool_info()]
    return out


def finite(value: float) -> float:
    """JSON-safe number: NaN and infinities become 0.0."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], catalogue: Dict[str, str]
                ) -> str:
    """The final stdout line: every catalogue metric, with its unit."""
    missing = set(catalogue) - set(metrics)
    extra = set(metrics) - set(catalogue)
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {sorted(missing)}, "
                         f"unknown {sorted(extra)}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": finite(metrics[name]),
                           "unit": catalogue[name]}
                    for name in catalogue},
    })


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    checks: Dict[str, bool]
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
