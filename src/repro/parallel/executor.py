"""Process-pool execution of per-category measurement chunks.

Each worker process owns a private copy of the backend (inherited via
``fork`` where available, pickled under ``spawn``) and measures contiguous
``(category, start, stop)`` sample ranges.  Workers return plain
``{event name: count}`` dictionaries; the parent reassembles them in
``(category, sample_index)`` order, so the merged result never depends on
which worker measured what or when.  Every chunk runs the same keyed
loop as in-process measurement (:func:`repro.hpc.session.measure_keyed`).

Determinism contract: the backend must expose ``supports_noise_keys=True``
(as the sim backend does) so that every measurement is a pure function of
its ``(category, sample_index)`` key.  A backend that draws noise in call
order (such as the noise-injection countermeasure) is rejected.  One
caveat rides along from the microarchitecture model: a ``random``
cache-replacement policy carries generator state across measurements, so
only the default deterministic policies preserve bit-identical counts
across worker counts.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import MeasurementError
from ..hpc.session import measure_keyed
from ..obs import distributed
from ..obs import runtime as obs
from ..obs.profiling import profile_stage
from ..obs.progress import ProgressReporter
from ..obs.runtime import TelemetryConfig
from ..uarch.events import EventCounts

__all__ = [
    "ChunkSpec",
    "measure_categories_parallel",
    "plan_chunks",
    "resolve_context",
]


@dataclass(frozen=True)
class ChunkSpec:
    """One contiguous range of samples of one category.

    Attributes:
        category: Category whose samples this chunk measures.
        start: First sample index (inclusive).
        stop: Last sample index (exclusive).
    """

    category: int
    start: int
    stop: int


def plan_chunks(sample_counts: Mapping[int, int],
                workers: int) -> List[ChunkSpec]:
    """Split each category's sample range into roughly ``workers`` chunks.

    Args:
        sample_counts: Category -> number of samples to measure.
        workers: Worker-process count (chunks per category; more chunks
            than workers keeps the pool busy when categories finish at
            different times).

    Returns:
        Chunk specs covering every ``(category, index)`` exactly once,
        ordered by category then start index.
    """
    if workers < 1:
        raise MeasurementError(f"workers must be >= 1, got {workers}")
    # Validate every category before planning anything, so a bad request
    # surfaces one complete error naming all offenders instead of failing
    # mid-plan on the first.
    empty = sorted(category for category, total in sample_counts.items()
                   if total < 1)
    if empty:
        raise MeasurementError(
            "categories with no samples to measure: "
            + ", ".join(str(category) for category in empty)
        )
    chunks: List[ChunkSpec] = []
    for category in sorted(sample_counts):
        total = sample_counts[category]
        size = -(-total // workers)  # ceil division
        for start in range(0, total, size):
            chunks.append(ChunkSpec(category, start, min(start + size, total)))
    return chunks


def resolve_context(prefer: str = "fork") -> multiprocessing.context.BaseContext:
    """The multiprocessing context to use (``fork`` where available).

    ``fork`` inherits the backend and sample arrays by memory copy —
    nothing is pickled and worker start-up is cheap.  Platforms without
    ``fork`` (Windows, macOS defaults) fall back to ``spawn``, where the
    initializer arguments are pickled once per worker.
    """
    try:
        return multiprocessing.get_context(prefer)
    except ValueError:
        return multiprocessing.get_context("spawn")


# Worker-side state, populated once per worker process by _init_worker.
_WORKER_STATE: Optional[tuple] = None


def _init_worker(backend, samples_by_category, warmup, retry=None,
                 telemetry=None, parent_context=None,
                 index_base: int = 0) -> None:
    global _WORKER_STATE
    # Workers never export directly — spans/metrics of child processes
    # would interleave with the parent's exporters.  When the parent runs
    # with telemetry on, each worker records into an in-memory runtime
    # (inheriting the parent's trace id) and ships a per-chunk payload
    # back with its results; otherwise telemetry stays off entirely.
    if telemetry is None:
        telemetry = TelemetryConfig(enabled=False)
    obs.configure(telemetry, parent_context=parent_context)
    _WORKER_STATE = (backend, samples_by_category, warmup, retry, index_base)


def _measure_chunk(spec: ChunkSpec):
    backend, samples_by_category, warmup, retry, index_base = _WORKER_STATE
    # Per-chunk capture: reset before, package after a *successful* chunk.
    # A failed attempt's telemetry dies with the attempt, and the
    # supervisor keeps exactly one result per chunk, so retries can never
    # double-count anything (ProcessPoolExecutor workers run tasks
    # serially, so the reset needs no locking).
    capture = obs.is_enabled()
    if capture:
        distributed.start_chunk_capture()
    with obs.span("measure.chunk", category=spec.category, start=spec.start,
                  stop=spec.stop, pid=os.getpid()) as span:
        with profile_stage("measure.chunk", span=span):
            measurements = measure_keyed(
                backend, samples_by_category[spec.category], spec.category,
                warmup=warmup, retry=retry, start=spec.start,
                stop=spec.stop, index_base=index_base)
            readings = [counts.as_dict() for counts in measurements]
            obs.inc("measurement.samples", spec.stop - spec.start,
                    category=spec.category)
    payload = distributed.worker_payload() if capture else None
    return spec.category, spec.start, readings, payload


def measure_categories_parallel(
        backend,
        samples_by_category: Mapping[int, Sequence[np.ndarray]],
        warmup: int = 0,
        workers: int = 2,
        retry=None,
        max_restarts: int = 3,
        max_chunk_retries: int = 2,
        start_method: Optional[str] = None,
        progress: Optional[ProgressReporter] = None,
        index_base: int = 0) -> Dict[int, List[EventCounts]]:
    """Measure every category's samples across a supervised process pool.

    Execution is supervised (see :class:`repro.resilience.ChunkSupervisor`):
    a worker that dies mid-chunk breaks the pool, the pool is rebuilt, and
    the chunks that never reported results are resubmitted — completed
    chunks are kept, so no ``(category, index)`` is lost or duplicated.
    Chunks whose task raises are retried a bounded number of times; when
    any budget runs out, a :class:`~repro.errors.MeasurementError` with
    per-chunk diagnostics is raised.

    Args:
        backend: Measurement backend; must expose
            ``supports_noise_keys=True`` (see the module docstring).
        samples_by_category: Category -> samples to measure (one
            measurement per sample).
        warmup: Unrecorded classifications before each category's measured
            ones, mirroring :class:`repro.hpc.MeasurementSession`.
        workers: Worker-process count (>= 1).
        retry: Optional :class:`repro.resilience.RetryPolicy` applied to
            each measurement inside the workers (transient backend
            failures never surface as chunk failures).
        max_restarts: Pool rebuilds tolerated after worker deaths.
        max_chunk_retries: Resubmissions per chunk whose task raised.
        start_method: Multiprocessing start method to prefer (default:
            ``fork`` where available, see :func:`resolve_context`).
        progress: Optional :class:`~repro.obs.progress.ProgressReporter`
            fed the supervisor's chunk callbacks (finished on exit).
        index_base: Absolute sample index of each category's first sample
            — a streaming round passes its offset, so noise keys stay
            ``(category, absolute_index)`` and warm-up runs only on the
            round that owns index 0.

    Returns:
        Category -> readouts in sample order, bit-identical to measuring
        the same keys sequentially.
    """
    from ..resilience.supervisor import ChunkSupervisor

    if workers < 1:
        raise MeasurementError(f"workers must be >= 1, got {workers}")
    if not getattr(backend, "supports_noise_keys", False):
        raise MeasurementError(
            "parallel measurement requires a backend with per-sample noise "
            "keys (such as the sim backend); sequential-stream noise would "
            "make results depend on scheduling order"
        )
    with obs.span("parallel.measure", workers=workers) as span:
        chunks = plan_chunks(
            {category: len(samples)
             for category, samples in samples_by_category.items()}, workers)
        span.set_attribute("chunks", len(chunks))
        obs.set_gauge("parallel.workers", workers)
        context = resolve_context(start_method or "fork")
        span.set_attribute("start_method", context.get_start_method())
        # Workers inherit an in-memory telemetry runtime (no exporters)
        # tied to this span's context, and ship back what they recorded.
        worker_telemetry = None
        parent_context = None
        if obs.is_enabled():
            active = obs.active().config
            worker_telemetry = TelemetryConfig(
                enabled=True, console=False, jsonl_path="",
                profile=active.profile)
            parent_context = obs.current_context()
        supervisor = ChunkSupervisor(
            context, workers,
            initializer=_init_worker,
            initargs=(backend, dict(samples_by_category), warmup, retry,
                      worker_telemetry, parent_context, index_base),
            max_restarts=max_restarts,
            max_chunk_retries=max_chunk_retries)
        try:
            results = supervisor.run(_measure_chunk, chunks,
                                     observer=progress)
        finally:
            if progress is not None:
                progress.finish()
        by_chunk: Dict[tuple, list] = {}
        # Merge worker telemetry in (category, start) order — never in
        # completion order — so the merged snapshot is identical for any
        # worker count or scheduling interleaving.
        for key in sorted(results):
            category, start, readings, payload = results[key]
            by_chunk[(category, start)] = readings
            obs.inc("measure.chunk", category=category)
            distributed.merge_worker_payload(
                payload, parent_span=span if obs.is_enabled() else None)
        per_category: Dict[int, List[EventCounts]] = {}
        for spec in chunks:
            per_category.setdefault(spec.category, []).extend(
                EventCounts(counts)
                for counts in by_chunk[(spec.category, spec.start)])
    return per_category
