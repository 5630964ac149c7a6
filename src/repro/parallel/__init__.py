"""Multi-core measurement collection.

The paper's Evaluator measures thousands of classifications — one HPC
readout each — and every readout is independent: the simulated CPU starts
each task cold and the sim backend's measurement noise is a pure function
of the ``(category, sample_index)`` noise key.  That makes collection
embarrassingly parallel, and this package fans it out across worker
processes while guaranteeing the merged distributions are
**bit-identical** to a sequential pass regardless of worker count or
scheduling order.  A streamed round takes the same path: it ships that
round's readings back, and the parent folds them exactly like an
in-process round, so the evaluator stays O(k·e) and every worker count
yields the same verdicts, checkpoints and drift alarms.
"""

from .executor import (
    ChunkSpec,
    measure_categories_parallel,
    plan_chunks,
    resolve_context,
)

__all__ = [
    "ChunkSpec",
    "measure_categories_parallel",
    "plan_chunks",
    "resolve_context",
]
