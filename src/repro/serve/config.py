"""Configuration of the multi-tenant monitoring daemon.

A :class:`ServeConfig` describes one daemon: which tenants it monitors
(each a :class:`TenantSpec` naming the model under watch and the input
categories whose leakage is evaluated), how much queue memory admission
may use, and how alarms are decided.  Everything is a plain frozen
dataclass so a config embeds losslessly into run reports and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.sequential import SPENDING_SCHEMES
from ..errors import ConfigError
from ..uarch.events import ALL_EVENTS, HpcEvent

__all__ = ["ADMISSION_POLICIES", "ServeConfig", "TenantSpec"]

#: Supported admission policies (see :class:`~repro.serve.queues.Admission`).
ADMISSION_POLICIES = ("block", "reject")


@dataclass(frozen=True)
class TenantSpec:
    """One monitored deployment: a (tenant, model) pair and its streams.

    Attributes:
        tenant: Tenant identifier (unique per daemon).
        model: Identifier of the model under watch (informational: keyed
            into metrics and reports).
        categories: Input categories whose counter streams are compared
            pairwise (>= 2).
        events: Hardware events measured per sample, in column order.
    """

    tenant: str
    model: str = "model"
    categories: Tuple[int, ...] = (0, 1)
    events: Tuple[HpcEvent, ...] = ALL_EVENTS

    def __post_init__(self):
        if not self.tenant:
            raise ConfigError("tenant must be a non-empty string")
        if len(self.categories) < 2:
            raise ConfigError(
                f"tenant {self.tenant!r} needs >= 2 categories, "
                f"got {len(self.categories)}")
        if len(set(self.categories)) != len(self.categories):
            raise ConfigError(
                f"tenant {self.tenant!r} has duplicate categories")
        if not self.events:
            raise ConfigError(f"tenant {self.tenant!r} needs >= 1 event")


@dataclass(frozen=True)
class ServeConfig:
    """Daemon-wide settings.

    Attributes:
        tenants: The monitored deployments (unique tenant names).
        batch_size: Measurement rows per category per round.
        confidence: Per-tick detection confidence (the same bookkeeping
            ``repro stream`` uses, so verdicts are comparable bit-exactly).
        method: ``"welch"`` or ``"student"``.
        admission: ``"block"`` (producers wait for queue space — lossless,
            backpressure propagates to callers) or ``"reject"`` (full
            shards drop the whole round — lossy, bounded producer latency).
        queue_capacity: Rounds buffered per (tenant, category) shard; the
            daemon's queue memory is bounded by
            ``tenants * categories * capacity * batch_size * events * 8``
            bytes of rows.
        spending: Alpha-spending scheme of the resident alarm layer
            (:func:`~repro.core.sequential.spend_alpha`).  Tick ``t``
            alarms when any (pair, event) cell of the tick's p-value
            array has ``p < spend_alpha(alpha, t) / cells`` — the paper's
            any-rejection rule at a Bonferroni share of the spent level.
            The test is well defined at every tick, so tenants run
            indefinitely (they no longer die at tick 42–46).
        alpha: Lifetime false-alarm budget of the spending alarm layer.
        drift_window: Trailing rows per category for drift alarms.
        drift_threshold: |z| at which a drift cell alarms (None disables
            drift monitoring).
        state_dir: When set, per-tenant monitor state is checkpointed here
            on shutdown (atomic npz files, one per tenant).
        max_consumer_restarts: Consumer crashes tolerated per tenant
            before the tenant is marked failed.
    """

    tenants: Tuple[TenantSpec, ...]
    batch_size: int = 25
    confidence: float = 0.95
    method: str = "welch"
    admission: str = "block"
    queue_capacity: int = 8
    spending: str = "geometric"
    alpha: float = 0.05
    drift_window: int = 32
    drift_threshold: Optional[float] = None
    state_dir: Optional[str] = None
    max_consumer_restarts: int = 3

    def __post_init__(self):
        if not self.tenants:
            raise ConfigError("need at least one tenant")
        names = [spec.tenant for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(
                f"confidence must be in (0, 1), got {self.confidence}")
        if self.admission not in ADMISSION_POLICIES:
            raise ConfigError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}")
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.spending not in SPENDING_SCHEMES:
            raise ConfigError(
                f"spending must be one of {SPENDING_SCHEMES}, "
                f"got {self.spending!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.max_consumer_restarts < 0:
            raise ConfigError(
                f"max_consumer_restarts must be >= 0, "
                f"got {self.max_consumer_restarts}")

    def spec(self, tenant: str) -> TenantSpec:
        """The :class:`TenantSpec` of ``tenant`` (ConfigError if unknown)."""
        for spec in self.tenants:
            if spec.tenant == tenant:
                return spec
        raise ConfigError(f"unknown tenant {tenant!r}")
