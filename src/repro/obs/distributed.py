"""Cross-process telemetry: worker-side capture, payload shipping, merging.

Worker processes run a real in-memory telemetry runtime (no exporters) and
ship what they recorded back to the parent as a plain picklable payload:
the worker's span trees (:meth:`~repro.obs.spans.Span.to_tree_dict`) plus
its metrics state (:meth:`~repro.obs.metrics.MetricsRegistry.state`).  The
parent adopts the spans under its own ``parallel.measure`` span and merges
the metrics exactly, so the experiment-wide snapshot is identical no
matter how many workers ran or in what order chunks completed — provided
callers merge payloads in a deterministic order (the executor sorts by
``(category, chunk start)``).

Capture is *per chunk*: the worker resets its runtime before each chunk
and builds the payload only after the chunk succeeded.  A failed attempt's
telemetry is discarded with the attempt, so chunk retries never
double-count — the supervisor keeps exactly one result (and therefore one
payload) per chunk.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .exporters import TELEMETRY_SCHEMA_VERSION
from .metrics import MetricsRegistry
from .runtime import active, is_enabled
from .spans import Span

__all__ = [
    "merge_worker_payload",
    "start_chunk_capture",
    "worker_payload",
]


def start_chunk_capture() -> None:
    """Reset the active runtime's recordings ahead of one chunk of work.

    Dropping previously recorded spans and metrics (not the runtime
    itself) makes the payload built afterwards cover exactly one chunk —
    the unit the supervisor deduplicates on.  ProcessPoolExecutor workers
    run tasks serially, so per-chunk reset needs no synchronisation.
    """
    runtime = active()
    runtime.tracer.clear()
    runtime.metrics = MetricsRegistry()


def worker_payload() -> Dict[str, Any]:
    """Everything the active runtime recorded, as one picklable payload."""
    runtime = active()
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "trace_id": runtime.tracer.trace_id,
        "parent_span_id": (runtime.parent_context.span_id
                           if runtime.parent_context else None),
        "spans": [root.to_tree_dict()
                  for root in runtime.tracer.root_spans()],
        "metrics": runtime.metrics.state(),
    }


def merge_worker_payload(payload: Optional[Dict[str, Any]],
                         parent_span: Optional[Span] = None) -> None:
    """Fold one worker payload into the active runtime.

    Spans are re-hung under ``parent_span`` (fresh ids, recorded
    durations); metrics merge exactly.  No-op when telemetry is disabled
    or the payload is None (a worker that ran with telemetry off).
    """
    if payload is None or not is_enabled():
        return
    runtime = active()
    for tree in payload.get("spans", ()):
        runtime.tracer.adopt(tree, parent=parent_span)
    metrics_state = payload.get("metrics")
    if metrics_state:
        runtime.metrics.fold_state(metrics_state)
