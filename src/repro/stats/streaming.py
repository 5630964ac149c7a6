"""Streaming moment accumulators: O(1)-memory statistics, exact folds.

Batch evaluation retains every sample of every (category, event) stream and
recomputes ``np.mean`` / ``np.var`` from scratch — O(n) memory and O(n) work
per verdict.  A monitoring service cannot afford either.  This module keeps
only the Welford sufficient statistics ``(count, mean, M2)`` per stream and
updates them incrementally:

* :class:`StreamingMoments` — the full category × event matrix as ONE
  ``(count, mean, M2)`` triple of arrays over sorted categories, updated a
  round at a time with a single stacked Chan merge and convertible into a
  :class:`repro.stats.vectorized.SufficientStats` so the broadcast
  Welch/Student machinery runs unchanged on ``(mean, var, n)`` triples;
* :class:`SlidingWindowMoments` — one ``(categories, W, events)`` ring of
  the trailing rows of every category, for drift detection.

Each round's batch moments are folded in with Chan et al.'s pairwise
update, which combines two ``(count, mean, M2)`` states exactly (no loss
of the variance information, no catastrophic cancellation from
subtracting large sums of squares).  The fold is *deterministic*: the same
sequence of batches always yields bit-identical state, which is why every
producer (in-process rounds, parallel rounds, the ``repro serve``
daemon) hands the accumulators whole rounds of rows in the same order
rather than pre-reduced shards.  Categories are independent lanes of the
arrays, so folding a round's batches in one stacked merge is bit-identical
to folding them one category at a time.  Different batch splits of one
stream agree to floating-point roundoff.  In the adversarial
1e12-mean/unit-variance regime the accumulator stays within the ~1e-5
envelope every float64 two-pass method shares (the rounded mean itself),
where a naive sum-of-squares accumulator loses every significant digit
outright.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import StatisticsError

__all__ = [
    "SlidingWindowMoments",
    "StreamingMoments",
]


def _stack(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Equal-shape ``(B, E)`` batches as one ``(K, B, E)`` array."""
    return np.concatenate(rows).reshape(len(rows), *rows[0].shape)


def _batch_moments(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(mean, M2)`` of ``(K, B, E)`` stacked batches, reduced along B.

    Each category's lane reduces exactly as its own ``(B, E)`` batch would,
    so stacking changes no bit of any category's moments.
    """
    mean = rows.mean(axis=1)
    centered = rows - mean[:, None, :]
    m2 = np.einsum("kij,kij->kj", centered, centered)
    return mean, m2


def _merge_moments(n_a: np.ndarray, mean_a: np.ndarray, m2_a: np.ndarray,
                   n_b: np.ndarray, mean_b: np.ndarray, m2_b: np.ndarray):
    """Chan et al. pairwise combination of ``(count, mean, M2)`` lanes.

    Exact in the sense that no information is lost: the combined state is
    algebraically identical to accumulating both shards' samples into one
    stream, without ever forming a sum of squares (the quantity whose
    cancellation destroys naive accumulators at large magnitudes).  Every
    ``n_b`` must be positive.  A lane whose ``n_a`` is zero adopts the
    ``b`` shard bit for bit, which keeps same-partition merges bitwise
    reproducible.  Counts are int64, so the count ratios round exactly as
    Python ints would for any ``n_a * n_b`` below 2**53.
    """
    total = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / total)[:, None]
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / total)[:, None]
    fresh = n_a == 0
    if fresh.any():
        mean = np.where(fresh[:, None], mean_b, mean)
        m2 = np.where(fresh[:, None], m2_b, m2)
    return total, mean, m2


def _as_rows(rows, columns: int) -> np.ndarray:
    """``rows`` as a float64 ``(B, columns)`` array (1-D promoted)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[1] != columns:
        raise StatisticsError(
            f"expected rows of {columns} columns, got array of "
            f"shape {rows.shape}")
    return rows


def _parse_category_state(arrays: Mapping[str, np.ndarray]
                          ) -> Dict[int, Dict[str, np.ndarray]]:
    """Group ``cat<k>/<field>`` arrays by category (other keys ignored)."""
    fields: Dict[int, Dict[str, np.ndarray]] = {}
    for key, values in arrays.items():
        if "/" not in key or not key.startswith("cat"):
            continue
        cat_part, field = key.split("/", 1)
        try:
            category = int(cat_part[3:])
        except ValueError:
            continue
        fields.setdefault(category, {})[field] = np.asarray(values)
    return fields


def _grow_lanes(lanes: Tuple[int, ...], categories: Sequence[int],
                arrays: Sequence[np.ndarray]):
    """Add lanes for the ``categories`` not yet in sorted ``lanes``.

    Returns None when every category already has a lane; otherwise
    ``(merged, *grown)``: the merged sorted lanes and each of ``arrays``
    (indexed by lane along axis 0) zero-filled at the new lanes with the
    old rows scattered to their new positions.
    """
    missing = set(categories) - set(lanes)
    if not missing:
        return None
    merged = tuple(sorted(missing.union(lanes)))
    at = np.searchsorted(merged, lanes)
    grown = []
    for old in arrays:
        new = np.zeros((len(merged),) + old.shape[1:], dtype=old.dtype)
        new[at] = old
        grown.append(new)
    return (merged, *grown)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class StreamingMoments:
    """The full category × event accumulator matrix — O(k·e) memory total.

    Purely numeric: rows are keyed by integer category (kept sorted),
    columns are positional (the caller owns the event labels).  The state
    is one ``(count, mean, M2)`` triple of arrays, shapes ``(k,)``,
    ``(k, e)`` and ``(k, e)``; every update replaces the arrays rather than
    writing into them, so the read-only arrays handed out by
    :attr:`counts`, :attr:`mean`, :attr:`m2` and
    :meth:`to_sufficient_stats` stay valid snapshots.  Feeding ``n``
    samples costs O(n·e) arithmetic overall but the retained state never
    grows — exactly the evaluator-side memory contract the streaming
    engine gates.

    Args:
        columns: Number of event columns every category must provide.
    """

    def __init__(self, columns: int):
        if columns < 1:
            raise StatisticsError(f"need >= 1 column, got {columns}")
        self._columns = columns
        self._store((), np.zeros(0, dtype=np.int64),
                    np.zeros((0, columns), dtype=np.float64),
                    np.zeros((0, columns), dtype=np.float64))

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------

    @property
    def columns(self) -> int:
        """Number of event columns."""
        return self._columns

    @property
    def categories(self) -> List[int]:
        """Categories observed so far, sorted."""
        return list(self._categories)

    @property
    def counts(self) -> np.ndarray:
        """Observations per category, in :attr:`categories` order."""
        return self._count

    @property
    def mean(self) -> np.ndarray:
        """Per-(category, column) means, shape ``(k, e)``."""
        return self._mean

    @property
    def m2(self) -> np.ndarray:
        """Per-(category, column) sums of squared deviations."""
        return self._m2

    def count(self, category: int) -> int:
        """Observations folded in for ``category`` (0 when unseen)."""
        index = bisect_left(self._categories, category)
        if (index < len(self._categories)
                and self._categories[index] == category):
            return int(self._count[index])
        return 0

    def _rows_of(self, categories: Sequence[int]):
        """Row positions of sorted ``categories``, adding unseen ones."""
        categories = tuple(categories)
        if categories == self._categories:
            return slice(None)
        grown = _grow_lanes(self._categories, categories,
                            (self._count, self._mean, self._m2))
        if grown is not None:
            self._store(*grown)
            if categories == self._categories:
                return slice(None)
        return np.searchsorted(self._categories, categories)

    def _store(self, categories: Tuple[int, ...], count: np.ndarray,
               mean: np.ndarray, m2: np.ndarray) -> None:
        self._categories = categories
        self._count = _frozen(count)
        self._mean = _frozen(mean)
        self._m2 = _frozen(m2)

    def _fold(self, categories: Sequence[int], n_b: np.ndarray,
              mean_b: np.ndarray, m2_b: np.ndarray) -> None:
        """Chan-merge per-category shards into the rows of ``categories``."""
        rows = self._rows_of(categories)
        count, mean, m2 = _merge_moments(
            self._count[rows], self._mean[rows], self._m2[rows],
            n_b, mean_b, m2_b)
        if isinstance(rows, slice):
            self._store(self._categories, count, mean, m2)
            return
        new_count = self._count.copy()
        new_mean = self._mean.copy()
        new_m2 = self._m2.copy()
        new_count[rows], new_mean[rows], new_m2[rows] = count, mean, m2
        self._store(self._categories, new_count, new_mean, new_m2)

    def observe(self, category: int, rows: np.ndarray) -> None:
        """Fold a ``(B, E)`` batch of one category's measurements in."""
        self.observe_round({int(category): rows})

    def observe_round(self, batches: Mapping[int, np.ndarray]) -> None:
        """Fold one round of ``category -> (B, E)`` batches in.

        Equal-length batches — every round of a resident tenant — go
        through one stacked batch reduction and one Chan merge; a round of
        mixed lengths folds length by length.  Either way each category's
        state is bit-identical to folding its batches one at a time.
        """
        categories = sorted(int(c) for c in batches)
        rows = [_as_rows(batches[c], self._columns) for c in categories]
        self._rows_of(categories)  # register even categories with no rows
        lengths = [r.shape[0] for r in rows]
        for length in sorted(set(lengths)):
            if length == 0:
                continue
            group = [i for i, n in enumerate(lengths) if n == length]
            mean_b, m2_b = _batch_moments(_stack([rows[i] for i in group]))
            self._fold([categories[i] for i in group],
                       np.full(len(group), length, dtype=np.int64),
                       mean_b, m2_b)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def state(self) -> Dict[str, np.ndarray]:
        """Flatten into ``{"cat<k>/<field>": array}`` (npz-friendly).

        The layout mirrors ``EventDistributions.to_arrays`` so checkpoint
        files stay self-describing, but stores three O(e) arrays per
        category instead of O(n) raw samples.
        """
        out: Dict[str, np.ndarray] = {}
        for index, category in enumerate(self._categories):
            out[f"cat{category}/count"] = np.asarray(
                [self._count[index]], dtype=np.int64)
            out[f"cat{category}/mean"] = self._mean[index].copy()
            out[f"cat{category}/m2"] = self._m2[index].copy()
        return out

    @classmethod
    def from_state(cls, arrays: Mapping[str, np.ndarray],
                   columns: Optional[int] = None) -> "StreamingMoments":
        """Inverse of :meth:`state` (bit-exact round trip)."""
        fields = _parse_category_state(arrays)
        if not fields and columns is None:
            raise StatisticsError("no accumulator state arrays found")
        if columns is None:
            columns = next(iter(fields.values()))["mean"].size
        moments = cls(columns)
        categories = tuple(sorted(fields))
        count = np.zeros(len(categories), dtype=np.int64)
        mean = np.zeros((len(categories), columns), dtype=np.float64)
        m2 = np.zeros_like(mean)
        for index, category in enumerate(categories):
            per_field = fields[category]
            missing = {"count", "mean", "m2"} - set(per_field)
            if missing:
                raise StatisticsError(
                    f"category {category} state is missing {sorted(missing)}")
            count[index] = int(per_field["count"][0])
            mean[index] = np.asarray(per_field["mean"],
                                     dtype=np.float64).reshape(columns)
            m2[index] = np.asarray(per_field["m2"],
                                   dtype=np.float64).reshape(columns)
            if count[index] < 0 or np.any(m2[index] < 0.0):
                raise StatisticsError(
                    f"category {category} state is not a valid accumulator")
        moments._store(categories, count, mean, m2)
        return moments

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Per-(category, column) sample variance, shape ``(k, e)``.

        Raises:
            StatisticsError: When some category has ``ddof`` or fewer
                observations.
        """
        if self._count.size and self._count.min() <= ddof:
            category = self._categories[int(self._count.argmin())]
            raise StatisticsError(
                f"variance needs more than ddof={ddof} observations, "
                f"category {category} has {int(self._count.min())}")
        return self._m2 / (self._count - ddof)[:, None]

    def to_sufficient_stats(self, events: Sequence) -> "SufficientStats":
        """``(n, mean, var)`` arrays in the vectorized evaluator's format.

        Args:
            events: Column labels, in column order (the caller owns them).

        Returns:
            A :class:`repro.stats.vectorized.SufficientStats` ready for
            :func:`repro.stats.vectorized.batch_pairwise_tests` — the
            whole broadcast t/p machinery runs on the accumulator state
            with no retained samples.
        """
        from .vectorized import SufficientStats

        events = tuple(events)
        if len(events) != self._columns:
            raise StatisticsError(
                f"expected {self._columns} event labels, got {len(events)}")
        if not self._categories:
            raise StatisticsError("no categories observed yet")
        if self._count.min() < 2:
            index = int(self._count.argmin())
            raise StatisticsError(
                f"category {self._categories[index]} needs at least 2 "
                f"observations, got {int(self._count[index])}")
        return SufficientStats(
            categories=self._categories, events=events,
            n=self._count.astype(np.float64), mean=self._mean,
            var=self.variance())

    def memory_bytes(self) -> int:
        """Bytes retained by the accumulator arrays (flat in sample count)."""
        return self._count.nbytes + self._mean.nbytes + self._m2.nbytes


class SlidingWindowMoments:
    """Trailing-window rows of every category in one ring buffer.

    Holds the last ``capacity`` rows of each category's event columns in
    a ``(categories, capacity, columns)`` array — O(k·W·e) memory
    regardless of stream length — for drift detection: the long-run
    accumulators answer "do these categories differ?", the window answers
    "has this stream recently moved away from its own long-run
    behaviour?".  Each category keeps its own write cursor.

    Args:
        capacity: Window length (rows retained per category).
        columns: Number of parallel event columns.
    """

    def __init__(self, capacity: int, columns: int):
        if capacity < 2:
            raise StatisticsError(f"capacity must be >= 2, got {capacity}")
        if columns < 1:
            raise StatisticsError(f"need >= 1 column, got {columns}")
        self._capacity = capacity
        self._columns = columns
        self._categories: Tuple[int, ...] = ()
        self._rows = np.zeros((0, capacity, columns), dtype=np.float64)
        self._next = np.zeros(0, dtype=np.int64)
        self._filled = np.zeros(0, dtype=np.int64)
        self._seen = np.zeros(0, dtype=np.int64)

    @property
    def capacity(self) -> int:
        """Maximum rows retained per category."""
        return self._capacity

    @property
    def columns(self) -> int:
        """Number of parallel columns."""
        return self._columns

    @property
    def categories(self) -> List[int]:
        """Categories observed so far, sorted."""
        return list(self._categories)

    @property
    def counts(self) -> np.ndarray:
        """Rows inside each category's window, in :attr:`categories` order."""
        return self._filled

    def _index(self, category: int) -> int:
        index = bisect_left(self._categories, category)
        if (index == len(self._categories)
                or self._categories[index] != category):
            raise StatisticsError(f"category {category} was never observed")
        return index

    def count(self, category: int) -> int:
        """Rows currently inside ``category``'s window (0 when unseen)."""
        if category not in self._categories:
            return 0
        return int(self._filled[self._index(category)])

    def total_seen(self, category: int) -> int:
        """Rows ever appended for ``category`` (0 when unseen)."""
        if category not in self._categories:
            return 0
        return int(self._seen[self._index(category)])

    def _add(self, categories: Sequence[int]) -> None:
        grown = _grow_lanes(self._categories, categories,
                            (self._rows, self._next, self._filled,
                             self._seen))
        if grown is not None:
            (self._categories, self._rows, self._next, self._filled,
             self._seen) = grown

    def _write(self, lane: int, rows: np.ndarray) -> None:
        """Append ``(B, E)`` rows to one lane at its write cursor."""
        capacity = self._capacity
        length = rows.shape[0]
        ring = self._rows[lane]
        self._seen[lane] += length
        if length >= capacity:
            # The batch alone overwrites the whole window.
            ring[...] = rows[-capacity:]
            self._next[lane] = 0
            self._filled[lane] = capacity
            return
        cursor = int(self._next[lane])
        first = min(length, capacity - cursor)
        ring[cursor:cursor + first] = rows[:first]
        if length > first:
            ring[:length - first] = rows[first:]
        self._next[lane] = (cursor + length) % capacity
        self._filled[lane] = min(capacity,
                                 int(self._filled[lane]) + length)

    def observe(self, category: int, rows: np.ndarray) -> None:
        """Append one category's rows, evicting its oldest beyond capacity."""
        self.observe_round({int(category): rows})

    def observe_round(self, batches: Mapping[int, np.ndarray]) -> None:
        """Append one round of ``category -> (B, E)`` batches."""
        categories = sorted(int(c) for c in batches)
        rows = [_as_rows(batches[c], self._columns) for c in categories]
        self._add(categories)
        lanes = np.searchsorted(self._categories, categories)
        for lane, batch in zip(lanes.tolist(), rows):
            self._write(lane, batch)

    def window(self, category: int) -> np.ndarray:
        """``category``'s retained rows, oldest first (copy)."""
        index = self._index(category)
        filled = int(self._filled[index])
        ring = self._rows[index]
        if filled < self._capacity:
            return ring[:filled].copy()
        cursor = int(self._next[index])
        return np.concatenate([ring[cursor:], ring[:cursor]])

    def mean(self) -> np.ndarray:
        """Per-(category, column) window means, shape ``(k, e)``.

        Categories with an empty window get NaN.  Rows are summed in ring
        order, lanes grouped by fill so every category reduces exactly
        like its own ``(filled, e)`` slice.
        """
        out = np.full((len(self._categories), self._columns), np.nan)
        fills = self._filled
        for filled in np.unique(fills).tolist():
            if filled:
                lanes = fills == filled
                out[lanes] = self._rows[lanes, :filled].mean(axis=1)
        return out

    def drift_z_scores(self, baseline: StreamingMoments
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Window-mean z-scores against long-run baseline accumulators.

        Per cell: ``(window_mean - baseline_mean) / sqrt(baseline_var / W)``
        — how many standard errors the trailing window has moved away from
        the stream's long-run behaviour.  Computed for every category in
        one pass.

        Returns:
            ``(usable, z)``: a ``(k,)`` mask of the window categories that
            the baseline has observed at least twice and whose window
            holds at least two rows, and the ``(k, e)`` z-scores (only
            rows under ``usable`` are meaningful).
        """
        if baseline.columns != self._columns:
            raise StatisticsError(
                f"baseline has {baseline.columns} columns, window has "
                f"{self._columns}")
        k = len(self._categories)
        base_categories = tuple(baseline.categories)
        if base_categories == self._categories:
            counts, mean, m2 = baseline.counts, baseline.mean, baseline.m2
            known = True
        elif not base_categories:
            return (np.zeros(k, dtype=bool),
                    np.zeros((k, self._columns), dtype=np.float64))
        else:
            base = np.asarray(base_categories, dtype=np.int64)
            at = np.minimum(np.searchsorted(base, self._categories),
                            base.size - 1)
            known = base[at] == np.asarray(self._categories, dtype=np.int64)
            counts, mean, m2 = (baseline.counts[at], baseline.mean[at],
                                baseline.m2[at])
        # The baseline variance needs >= 2 samples; a window shorter than
        # 2 rows has a meaningless mean estimate.
        usable = known & (counts >= 2) & (self._filled >= 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            variance = m2 / (counts - 1)[:, None]
            scale = np.sqrt(variance / self._filled[:, None])
            z = (self.mean() - mean) / scale
        return usable, np.where(scale == 0.0, 0.0, z)

    def state(self) -> Dict[str, np.ndarray]:
        """Npz-able ``cat<k>/window/...`` arrays (restored by :meth:`from_state`).

        Each category's rows are stored oldest-first (the rotation is
        normalized away), so two windows holding the same trailing samples
        serialize identically regardless of their internal write cursor.
        """
        out: Dict[str, np.ndarray] = {}
        for index, category in enumerate(self._categories):
            out[f"cat{category}/window/rows"] = self.window(category)
            out[f"cat{category}/window/capacity"] = np.asarray(
                [self._capacity], dtype=np.int64)
            out[f"cat{category}/window/total_seen"] = np.asarray(
                [self._seen[index]], dtype=np.int64)
        return out

    @classmethod
    def from_state(cls, arrays: Mapping[str, np.ndarray], capacity: int
                   ) -> "SlidingWindowMoments":
        """Rebuild windows from persisted :meth:`state` arrays.

        Args:
            arrays: ``cat<k>/window/{rows,capacity,total_seen}`` arrays.
            capacity: Window length.  A window stored under another
                length keeps its last ``capacity`` rows and its
                ``total_seen``.
        """
        windows: Dict[int, Tuple[np.ndarray, int]] = {}
        for category, fields in _parse_category_state(arrays).items():
            try:
                rows = np.asarray(fields["window/rows"], dtype=np.float64)
                seen = int(np.asarray(fields["window/total_seen"])[0])
            except KeyError as exc:
                raise StatisticsError(
                    f"window state of category {category} is missing "
                    f"{exc.args[0]!r}") from None
            if rows.ndim != 2:
                raise StatisticsError(
                    f"window state rows of category {category} have "
                    f"shape {rows.shape}, expected (rows, columns)")
            windows[category] = (rows, seen)
        if not windows:
            raise StatisticsError("no window state arrays found")
        ring = cls(capacity, next(iter(windows.values()))[0].shape[1])
        for category in sorted(windows):
            rows, seen = windows[category]
            ring.observe(category, rows)
            ring._seen[ring._index(category)] = seen
        return ring
