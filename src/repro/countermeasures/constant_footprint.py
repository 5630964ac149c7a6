"""Constant-footprint inference — the defense the paper's conclusion calls for.

    "Our evaluation tool highlights the need for designing CNN architectures
    with indistinguishable CPU footprints while classifying different image
    categories."

The transform applied here makes the traced execution input-independent:

* every layer runs its **dense** kernel (no zero-skipping: the work done no
  longer depends on the activation pattern);
* all data-dependent comparisons (ReLU, max pooling, the final argmax)
  compile to **branchless** select/max instructions;

leaving only measurement noise in the counters — under which the Evaluator's
t-tests must fail to distinguish categories.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..hpc.sim_backend import SimBackend
from ..nn.model import Sequential
from ..trace.recorder import TraceConfig
from ..uarch.cpu import CpuConfig


def constant_footprint_config(base: Optional[TraceConfig] = None) -> TraceConfig:
    """Derive the hardened trace configuration from ``base``.

    Dense kernels everywhere, branchless comparisons, and a full (unstrided)
    dense trace so the footprint is exactly reproducible run to run.
    """
    base = base or TraceConfig()
    return replace(
        base,
        sparse_from_layer=None,
        branchless_compares=True,
    )


def harden_backend(backend: SimBackend) -> SimBackend:
    """A hardened clone of a simulated backend (same model, CPU and noise).

    The returned backend executes the same classifier through the
    constant-footprint kernels; compare its evaluation against the
    original's to quantify the defense (see
    :mod:`repro.countermeasures.evaluation`).
    """
    return SimBackend(
        backend.model,
        trace_config=constant_footprint_config(backend.trace_config),
        cpu_config=backend.cpu_config,
        noise_scale=backend.noise_scale,
        noise_profile=backend.noise_profile,
        seed=backend.seed,
    )


def make_hardened_backend(model: Sequential,
                          trace_config: Optional[TraceConfig] = None,
                          cpu_config: Optional[CpuConfig] = None,
                          noise_scale: float = 1.0,
                          seed: int = 0) -> SimBackend:
    """Build a constant-footprint backend directly from a model."""
    return SimBackend(
        model,
        trace_config=constant_footprint_config(trace_config),
        cpu_config=cpu_config,
        noise_scale=noise_scale,
        seed=seed,
    )


def footprint_overhead(model: Sequential,
                       trace_config: Optional[TraceConfig] = None) -> float:
    """Instruction-count overhead factor of the defense on ``model``.

    Constant-footprint inference does the dense worst-case work for every
    input; this measures the cost as ``instructions(dense) /
    instructions(sparse)`` on an all-ones probe input (which maximizes the
    sparse path's work, so the returned factor is a *lower* bound on the
    worst-case overhead).
    """
    import numpy as np

    from ..trace.traced_model import TracedInference

    base = trace_config or TraceConfig()
    sparse = TracedInference(model, base)
    hardened = TracedInference(model, constant_footprint_config(base))
    probe = np.ones(model.input_shape)
    _, sparse_trace = sparse.trace_sample(probe)
    _, dense_trace = hardened.trace_sample(probe)
    return dense_trace.instructions / max(1, sparse_trace.instructions)
