"""Vectorized pairwise hypothesis testing — the evaluator's only t-test path.

The scalar tests (:mod:`repro.stats.ttest`) recompute sample moments for
every one of the C(n, 2) category pairs and walk a Python continued
fraction per p-value.  This module computes per-(category, event)
sufficient statistics *once* as NumPy arrays and then evaluates every pair
of every event with broadcast arithmetic: Welch/Student t statistics,
degrees of freedom, two-sided p-values (through an array implementation of
the regularized incomplete beta function) and Cohen's d, all in a handful
of array operations.

The array beta function runs the same Lentz continued fraction as
:func:`repro.stats.special.regularized_incomplete_beta`, lane-by-lane
retired at each lane's own convergence step, so vectorized p-values match
the scalar ones to the last few ulps (most lanes exactly) — a property the
test-suite asserts to 1e-12 across random and degenerate distributions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import StatisticsError
from .special import (
    _CF_EPSILON,
    _CF_FPMIN,
    _LANCZOS_COEFFS,
    _LANCZOS_G,
    _MAX_CF_ITERATIONS,
)

__all__ = [
    "PairwiseTestArrays",
    "SufficientStats",
    "batch_pairwise_tests",
    "log_gamma_array",
    "pairwise_indices",
    "regularized_incomplete_beta_array",
    "two_sided_p_values",
]


@functools.lru_cache(maxsize=64)
def pairwise_indices(n_categories: int) -> Tuple[np.ndarray, np.ndarray]:
    """The C(n,2) upper-triangle pair index arrays for ``n_categories``.

    Built once per category count and reused across evaluations — a
    streaming evaluator calls :func:`batch_pairwise_tests` every tick, and
    rebuilding the combination indices each time is pure waste.  The
    cached arrays are marked read-only so no caller can corrupt the cache.
    """
    if n_categories < 2:
        raise StatisticsError("need at least two categories to compare")
    ia, ib = np.triu_indices(n_categories, k=1)
    ia.setflags(write=False)
    ib.setflags(write=False)
    return ia, ib

_LOG_TWO_PI_HALF = 0.5 * np.log(2.0 * np.pi)


def log_gamma_array(x: np.ndarray) -> np.ndarray:
    """Elementwise ``ln |Gamma(x)|`` — the array twin of ``special.log_gamma``.

    Runs the same Lanczos series (same coefficients, same operation order)
    over whole arrays, with the reflection formula applied through a mask
    for lanes below 0.5.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any((x <= 0.0) & (x == np.floor(x))):
        raise StatisticsError("log_gamma undefined at non-positive integers")
    reflect = x < 0.5
    if not reflect.any():
        return _lanczos_log_gamma(x)
    out = np.empty(x.shape, dtype=np.float64)
    xr = x[reflect]
    out[reflect] = (np.log(np.pi / np.abs(np.sin(np.pi * xr)))
                    - log_gamma_array(1.0 - xr))
    direct = ~reflect
    out[direct] = _lanczos_log_gamma(x[direct])
    return out


def _lanczos_log_gamma(x: np.ndarray) -> np.ndarray:
    """The Lanczos series of :func:`log_gamma_array` for lanes >= 0.5."""
    xd = x - 1.0
    series = np.full(xd.shape, _LANCZOS_COEFFS[0])
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series += coeff / (xd + i)
    t = xd + _LANCZOS_G + 0.5
    return _LOG_TWO_PI_HALF + (xd + 0.5) * np.log(t) - t + np.log(series)


def _log_beta_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``ln B(a, b)`` for positive arrays."""
    return log_gamma_array(a) + log_gamma_array(b) - log_gamma_array(a + b)


#: ``ln Gamma(1/2)``, the constant term of every Student-t ``ln B(df/2, 1/2)``.
_LOG_GAMMA_HALF = float(log_gamma_array(np.asarray([0.5]))[0])


def _log_beta_half(a: np.ndarray, b: float) -> np.ndarray:
    """``ln B(a, 1/2)``: ``ln Gamma(a)`` and ``ln Gamma(a + 1/2)`` in one call."""
    both = log_gamma_array(np.concatenate([a, a + b]))
    return both[:a.size] + _LOG_GAMMA_HALF - both[a.size:]


#: Continued-fraction iterations run between two convergence checks.  The
#: recurrence-independent ``aa`` coefficients of a whole block are built
#: in a few broadcast calls, and finished lanes are retired once per block.
_CF_BLOCK = 8


def _beta_continued_fraction_array(a: np.ndarray, b: np.ndarray,
                                   x: np.ndarray) -> np.ndarray:
    """Lentz's continued fraction, elementwise over equally-shaped arrays.

    Each lane's result is its ``h`` at its own convergence iteration,
    replicating the scalar kernel's early exit exactly.  Lanes keep
    iterating to the end of the block they converge in; every iteration's
    ``delta`` and ``h`` land in per-block buffers, so the first converged
    iteration of each lane is read off once per block rather than tested
    for on every step.
    """
    out = np.empty(x.size, dtype=np.float64)
    if not x.size:
        return out
    lanes = np.arange(x.size)  # output positions of the remaining lanes
    # Per-lane constants and recurrence state, one row each, so retiring
    # lanes is one fancy index per array.
    coef = np.empty((6, x.size), dtype=np.float64)
    coef[0], coef[1], coef[2] = a.ravel(), b.ravel(), x.ravel()
    a, b, x, qab, qap, qam = coef
    np.add(a, b, out=qab)
    np.add(a, 1.0, out=qap)
    np.subtract(a, 1.0, out=qam)
    state = np.empty((3, x.size), dtype=np.float64)  # rows: d, c, h
    d = 1.0 - qab * x / qap
    state[0] = np.where(np.abs(d) < _CF_FPMIN, _CF_FPMIN, d)
    np.divide(1.0, state[0], out=state[0])
    state[1] = 1.0
    state[2] = state[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for first in range(1, _MAX_CF_ITERATIONS + 1, _CF_BLOCK):
            ms = np.arange(first, min(first + _CF_BLOCK,
                                      _MAX_CF_ITERATIONS + 1),
                           dtype=np.float64)[:, None]
            m2 = 2.0 * ms
            am2 = a + m2
            # Row 2i is iteration i's even coefficient, row 2i+1 its odd one.
            steps = np.empty((2 * ms.shape[0], x.size), dtype=np.float64)
            np.divide(ms * (b - ms) * x, (qam + m2) * am2, out=steps[0::2])
            np.divide(-(a + ms) * (qab + ms) * x, am2 * (qap + m2),
                      out=steps[1::2])
            # factors[0] is h on entry; factors[k] the d*c of half-step k.
            factors = np.empty((steps.shape[0] + 1, x.size),
                               dtype=np.float64)
            factors[0] = state[2]
            dc = state[:2]
            d, c = dc
            ones = np.ones(dc.shape, dtype=np.float64)
            one = ones[0]
            work = np.empty_like(dc)
            work_d, work_c = work
            for aa, factor in zip(steps, factors[1:]):
                # d = 1 + aa*d and c = 1 + aa/c in one (2, n) buffer.
                np.multiply(aa, d, work_d)
                np.divide(aa, c, work_c)
                np.add(work, ones, dc)
                # |1 + y| < FPMIN exactly when 1 + y == 0: for y in
                # [-2, -1/2] the sum is exact, so a multiple of 2**-53,
                # and elsewhere |1 + y| > 1/2.
                if np.count_nonzero(dc) < dc.size:
                    np.copyto(dc, _CF_FPMIN, where=dc == 0.0)
                np.divide(one, d, d)
                np.multiply(d, c, factor)
            # h after every half-step, multiplied in the scalar order.
            hs = np.multiply.accumulate(factors, axis=0)
            state[2] = hs[-1]
            # Retire lanes at their first converged (odd) iteration.
            deltas = factors[2::2]
            np.subtract(deltas, 1.0, out=deltas)
            np.abs(deltas, out=deltas)
            converged = deltas < _CF_EPSILON
            done = converged.any(axis=0)
            if done.any():
                at = 2 * converged.argmax(axis=0)[done] + 2
                out[lanes[done]] = hs[at, np.flatnonzero(done)]
                keep = ~done
                lanes = lanes[keep]
                if not lanes.size:
                    return out
                coef = coef[:, keep]
                a, b, x, qab, qap, qam = coef
                state = state[:, keep]
    raise StatisticsError(
        "incomplete beta continued fraction failed to converge for "
        f"{lanes.size} lane(s)"
    )


def _incomplete_beta_lanes(a: np.ndarray, b, x: np.ndarray,
                           log_beta) -> np.ndarray:
    """``I_x(a, b)`` over validated 1-D lanes.

    ``b`` is an array like ``a`` or a scalar shared by every lane, and
    ``log_beta(a, b)`` returns ``ln B(a, b)`` of the interior lanes.
    """
    out = np.empty(x.shape, dtype=np.float64)
    at_zero = x == 0.0
    at_one = x == 1.0
    out[at_zero] = 0.0
    out[at_one] = 1.0
    interior = ~(at_zero | at_one)
    if not interior.all():
        a, x = a[interior], x[interior]
        if np.ndim(b):
            b = b[interior]
    if x.size:
        front = np.exp(a * np.log(x) + b * np.log(1.0 - x)
                       - log_beta(a, b))
        # The continued fraction converges fastest below the split point;
        # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) above it.  Both
        # orientations run through ONE fraction call (lanes are independent,
        # so mixing them changes nothing per lane but halves the fixed
        # per-iteration dispatch overhead of two separate loops).
        direct = x < (a + 1.0) / (a + b + 2.0)
        cf_a = np.where(direct, a, b)
        cf_b = np.where(direct, b, a)
        cf_x = np.where(direct, x, 1.0 - x)
        tail = front * _beta_continued_fraction_array(cf_a, cf_b, cf_x) / cf_a
        out[interior] = np.where(direct, tail, 1.0 - tail)
    return out


def regularized_incomplete_beta_array(a: np.ndarray, b: np.ndarray,
                                      x: np.ndarray) -> np.ndarray:
    """Elementwise regularized incomplete beta ``I_x(a, b)`` over arrays.

    Args:
        a: First shape parameters (> 0), broadcastable against ``x``.
        b: Second shape parameters (> 0), broadcastable against ``x``.
        x: Upper integration limits in ``[0, 1]``.

    Returns:
        ``I_x(a, b)`` with the broadcast shape, matching the scalar
        :func:`repro.stats.special.regularized_incomplete_beta` lane by lane.
    """
    a, b, x = np.broadcast_arrays(np.asarray(a, dtype=np.float64),
                                  np.asarray(b, dtype=np.float64),
                                  np.asarray(x, dtype=np.float64))
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise StatisticsError("incomplete beta requires positive shapes")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise StatisticsError("incomplete beta arguments must lie in [0, 1]")
    return _incomplete_beta_lanes(a.ravel(), b.ravel(), x.ravel(),
                                  _log_beta_array).reshape(x.shape)


def two_sided_p_values(t: np.ndarray, df: np.ndarray) -> np.ndarray:
    """``P(|T| >= |t|)`` elementwise, matching ``StudentT.two_sided_p_value``.

    Args:
        t: t statistics (finite; infinite statistics are handled by the
            degenerate-variance branches of :func:`batch_pairwise_tests`).
        df: Degrees of freedom (> 0), same shape as ``t``.
    """
    t = np.asarray(t, dtype=np.float64)
    df = np.asarray(df, dtype=np.float64)
    shape = np.broadcast_shapes(t.shape, df.shape)
    if t.shape != shape:
        t = np.broadcast_to(t, shape)
    if df.shape != shape:
        df = np.broadcast_to(df, shape)
    p = np.ones(shape, dtype=np.float64)
    nonzero = (t != 0.0) & np.isfinite(t)
    tz = t[nonzero]
    dz = df[nonzero]
    half_df = dz / 2.0
    # z = df / (df + t^2) lies in [0, 1] for every positive df, so only
    # the shape parameter df / 2 needs checking.
    if np.any(half_df <= 0.0):
        raise StatisticsError("incomplete beta requires positive shapes")
    z = dz / (dz + tz * tz)
    p[nonzero] = np.minimum(
        1.0, _incomplete_beta_lanes(half_df, 0.5, z, _log_beta_half))
    p[np.isinf(t)] = 0.0
    return p


@dataclass(frozen=True)
class SufficientStats:
    """Per-(category, event) sample moments of one set of distributions.

    Attributes:
        categories: Category indices, sorted (row order of the arrays).
        events: Events, in evaluation order (column order of the arrays).
        n: Sample counts, shape ``(C,)``.
        mean: Sample means, shape ``(C, E)``.
        var: Unbiased (ddof=1) sample variances, shape ``(C, E)``.
    """

    categories: Tuple[int, ...]
    events: tuple
    n: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def from_distributions(cls, distributions,
                           events: Optional[Sequence] = None
                           ) -> "SufficientStats":
        """Compute the moment arrays from an ``EventDistributions``.

        Each 1-D readings vector is reduced exactly once with the same
        ``np.mean`` / ``np.var(ddof=1)`` reductions as the scalar tests, so
        downstream broadcast arithmetic reproduces the scalar results.
        """
        categories = tuple(distributions.categories)
        events = tuple(events) if events is not None else tuple(
            distributions.events)
        n = np.empty(len(categories), dtype=np.float64)
        mean = np.empty((len(categories), len(events)), dtype=np.float64)
        var = np.empty_like(mean)
        for ci, category in enumerate(categories):
            n[ci] = distributions.sample_count(category)
            if n[ci] < 2:
                raise StatisticsError(
                    f"category {category} needs at least 2 observations, "
                    f"got {int(n[ci])}"
                )
            # One stacked (E, n) reduction per category instead of E scalar
            # np.mean/np.var dispatches — rows are contiguous, so the
            # per-row reductions are numerically the 1-D reductions.
            stacked = np.stack([distributions.values(category, event)
                                for event in events])
            mean[ci] = stacked.mean(axis=1)
            var[ci] = stacked.var(axis=1, ddof=1)
        return cls(categories=categories, events=events, n=n, mean=mean,
                   var=var)


@dataclass(frozen=True)
class PairwiseTestArrays:
    """All C(n,2) x E pairwise test results as arrays.

    Rows follow ``itertools.combinations(categories, 2)`` order; columns
    follow the event order of the originating :class:`SufficientStats`.

    Attributes:
        index_a: Row index (into ``SufficientStats.categories``) of the
            first category of each pair, shape ``(P,)``.
        index_b: Row index of the second category of each pair.
        statistic: t statistics, shape ``(P, E)`` (signed, may be ``inf``).
        p_value: Two-sided p-values, shape ``(P, E)``.
        df: Degrees of freedom, shape ``(P, E)``.
        mean_a: First-group means, shape ``(P, E)``.
        mean_b: Second-group means, shape ``(P, E)``.
        n_a: First-group sizes, shape ``(P,)``.
        n_b: Second-group sizes, shape ``(P,)``.
        effect_size: Cohen's d, shape ``(P, E)``.
        method: ``"welch"`` or ``"student"``.
    """

    index_a: np.ndarray
    index_b: np.ndarray
    statistic: np.ndarray
    p_value: np.ndarray
    df: np.ndarray
    mean_a: np.ndarray
    mean_b: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray
    effect_size: np.ndarray
    method: str


def _constant_separation(diff: np.ndarray) -> np.ndarray:
    """t or d of exactly constant samples: 0 when equal, else signed inf."""
    return np.where(diff == 0.0, 0.0, np.where(diff > 0.0, np.inf, -np.inf))


def batch_pairwise_tests(stats: SufficientStats,
                         method: str = "welch") -> PairwiseTestArrays:
    """Evaluate every category pair on every event in broadcast arithmetic.

    Args:
        stats: Per-(category, event) sufficient statistics.
        method: ``"welch"`` (unequal variances) or ``"student"`` (pooled).

    Returns:
        A :class:`PairwiseTestArrays` whose entries match the scalar
        :func:`repro.stats.ttest.welch_t_test` /
        :func:`~repro.stats.ttest.student_t_test` and
        :func:`repro.stats.effect_size.cohens_d` results.
    """
    if method not in ("welch", "student"):
        raise StatisticsError(
            f"method must be 'welch' or 'student', got {method!r}"
        )
    n_categories = len(stats.categories)
    if n_categories < 2:
        raise StatisticsError("need at least two categories to compare")
    ia, ib = pairwise_indices(n_categories)
    n_a = stats.n[ia][:, None]
    n_b = stats.n[ib][:, None]
    mean_a = stats.mean[ia]
    mean_b = stats.mean[ib]
    var_a = stats.var[ia]
    var_b = stats.var[ib]
    diff = mean_a - mean_b
    pooled_df = n_a + n_b - 2.0
    pooled_var = ((n_a - 1.0) * var_a + (n_b - 1.0) * var_b) / pooled_df

    with np.errstate(divide="ignore", invalid="ignore"):
        if method == "welch":
            se_a = var_a / n_a
            se_b = var_b / n_b
            se_sq = se_a + se_b
            degenerate = se_sq == 0.0
            t = diff / np.sqrt(se_sq)
            df_denominator = (se_a * se_a) / (n_a - 1.0) + \
                (se_b * se_b) / (n_b - 1.0)
            df = np.where(df_denominator > 0.0,
                          se_sq * se_sq / df_denominator, pooled_df)
        else:
            degenerate = pooled_var == 0.0
            t = diff / np.sqrt(pooled_var * (1.0 / n_a + 1.0 / n_b))
            df = np.broadcast_to(pooled_df, t.shape).copy()
        # Degenerate lanes (both samples exactly constant): equal constants
        # carry no evidence, unequal constants are perfectly separable.
        any_degenerate = degenerate.any()
        if any_degenerate:
            t = np.where(degenerate, _constant_separation(diff), t)
            df = np.where(degenerate, np.broadcast_to(pooled_df, t.shape),
                          df)
        p = two_sided_p_values(t, df)
        if any_degenerate:
            p = np.where(degenerate, np.where(diff == 0.0, 1.0, 0.0), p)
        effect = diff / np.sqrt(pooled_var)
        constant = pooled_var == 0.0
        if constant.any():
            effect = np.where(constant, _constant_separation(diff), effect)
    return PairwiseTestArrays(
        index_a=ia,
        index_b=ib,
        statistic=t,
        p_value=p,
        df=df,
        mean_a=mean_a,
        mean_b=mean_b,
        n_a=stats.n[ia],
        n_b=stats.n[ib],
        effect_size=effect,
        method=method,
    )
