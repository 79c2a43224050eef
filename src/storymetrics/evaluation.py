"""Statistical evaluation: tie-aware rank correlations with Fisher-Z
confidence intervals, prominence-based turning-point selection, and
salience ranking metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .model import DegenerateStatisticsError, GoldLabels, MetricSeries, ValidationError


def _check_rank_inputs(x, y, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays of one shape, holding one sequence (ndim 1)
    or one per row (ndim 2)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != ndim:
        raise ValidationError(f"rank correlation needs two equal-length {ndim}-d sequences")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValidationError("rank correlation inputs contain NaN")
    if x.shape[-1] < 2:
        raise DegenerateStatisticsError("rank correlation needs length >= 2")
    if (x == x[..., :1]).all(axis=-1).any() or (y == y[..., :1]).all(axis=-1).any():
        raise DegenerateStatisticsError("rank correlation undefined for an all-tied sequence")
    return x, y


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts, along the last axis."""
    first = np.ones(rows.shape, bool)
    first[..., 1:] = rows[..., 1:] != rows[..., :-1]
    return first


def _run_offsets(first: np.ndarray) -> np.ndarray:
    """Each position's distance from the start of its run."""
    at = np.arange(first.shape[-1])
    return at - np.maximum.accumulate(np.where(first, at, 0), axis=-1)


def _pairs_within(first: np.ndarray) -> np.ndarray:
    """Per row, the pairs inside its runs, as exact integers: each value
    pairs with the ones before it in its run."""
    return _run_offsets(first).sum(axis=-1)


def _count_inversions(values: np.ndarray) -> np.ndarray:
    """Per row of an (m, n) array of non-negative integers, the pairs
    i < j with values[i] > values[j].

    Bottom-up merge sort of all rows at once. Each row is padded with its
    maximum to a power-of-two length, which adds no inversion, so that at
    width w every row is a run of sorted blocks. Each right block counts,
    for every element, the left-block elements strictly greater than it
    (one searchsorted over pair-tagged keys), and one sort then merges
    each block pair.
    """
    rows, n = values.shape
    m = int(values.max()) + 1
    size = 1 << (n - 1).bit_length()
    values = np.concatenate((values, np.full((rows, size - n), m - 1)), axis=1).ravel()
    idx = np.arange(values.shape[0])
    inversions = np.zeros(rows, np.int64)
    width = 1
    while width < size:
        pair = idx // (2 * width)
        tag = pair * m
        keys = tag + values
        right = (idx & width) != 0
        # left blocks are full and, tagged with their pair, ascend overall;
        # the left blocks of pairs 0..p hold (p + 1) * width elements
        not_greater = np.searchsorted(keys[~right], keys[right], side="right")
        inversions += ((pair[right] + 1) * width - not_greater).reshape(rows, -1).sum(axis=1)
        keys.sort()
        values = keys - tag
        width *= 2
    return inversions


def _taus(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kendall's tau-b of each row pair, from exact integer counts of ties
    and discordant pairs. Each row is sorted by y, then stably by x, so
    that y ascends within each run of tied x, and the discordant pairs are
    the inversions of y's dense ranks. The closing floating-point
    expression is fixed: the tests require the result to equal the
    reference implementation bit for bit."""
    y = np.take_along_axis(y, order := np.argsort(y, axis=-1), -1)
    x = np.take_along_axis(x, order, -1)
    y_first = _run_starts(y)
    order = np.argsort(x, axis=-1, kind="stable")
    x_first = _run_starts(np.take_along_axis(x, order, -1))
    y = np.take_along_axis(y_first.cumsum(axis=-1), order, -1)
    joint_first = x_first.copy()
    joint_first[..., 1:] |= y[..., 1:] != y[..., :-1]
    xtie, ytie = _pairs_within(x_first), _pairs_within(y_first)
    size = x.shape[-1]
    tot = size * (size - 1) // 2
    con_minus_dis = tot - xtie - ytie + _pairs_within(joint_first) - 2 * _count_inversions(y)
    return np.clip(con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie), -1.0, 1.0)


def kendall_tau(x, y) -> float:
    """Kendall's tau-b (tie-corrected): a one-row call of kendall_taus."""
    x, y = _check_rank_inputs(x, y)
    return float(_taus(x[None], y[None])[0])


def kendall_taus(x, y) -> np.ndarray:
    """kendall_tau of each row pair of two (m, n) arrays, in one batched pass."""
    return _taus(*_check_rank_inputs(x, y, ndim=2))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """The 1-based ranks along the last axis, ties taking their mean rank."""
    order = np.argsort(values, axis=-1)
    first = _run_starts(np.take_along_axis(values, order, -1))
    last = np.ones(first.shape, bool)  # where each run ends
    last[..., :-1] = first[..., 1:]
    at = np.arange(values.shape[-1])
    start = at - _run_offsets(first)
    end = at + np.flip(_run_offsets(np.flip(last, -1)), -1)
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, 0.5 * (start + end + 2), axis=-1)
    return ranks


def _rhos(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Spearman's rho of each row pair: the Pearson correlation of the
    stacked 2 x n average ranks by np.corrcoef. A hand-written Pearson can
    differ in the last ulp; the tests require the result to equal the
    reference implementation bit for bit."""
    return np.array([np.corrcoef(np.vstack(ranks))[1, 0]
                     for ranks in zip(_average_ranks(x), _average_ranks(y))])


def spearman_rho(x, y) -> float:
    """Spearman's rho on average ranks (tie-aware): a one-row call of
    spearman_rhos."""
    x, y = _check_rank_inputs(x, y)
    return float(_rhos(x[None], y[None])[0])


def spearman_rhos(x, y) -> np.ndarray:
    """spearman_rho of each row pair of two (m, n) arrays."""
    return _rhos(*_check_rank_inputs(x, y, ndim=2))


def fisher_ci(r: float, n: int, conf: float = 0.95) -> tuple[float, float]:
    """Confidence interval for a correlation via the Fisher Z-transform."""
    if n <= 3:
        raise ValidationError("Fisher interval needs n > 3")
    if not (-1.0 < r < 1.0):
        raise ValidationError("Fisher interval undefined at |r| = 1")
    if not (0.0 < conf < 1.0):
        raise ValidationError("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 + conf / 2.0)
    center = math.atanh(r)
    half = z / math.sqrt(n - 3)
    return math.tanh(center - half), math.tanh(center + half)


@dataclass(frozen=True)
class Peak:
    index: int
    height: float
    prominence: float


def find_peaks(series) -> list[Peak]:
    """Strict local maxima with contour-line prominence.

    A flat run strictly higher than both shoulders yields one peak at the
    run's left edge. Prominence is height minus the higher of the two side
    minima, each taken between the peak and the nearest strictly higher
    value (or the boundary); a NaN, which is in no run, bounds a side too.
    """
    values = series.values if isinstance(series, MetricSeries) else np.asarray(series, float)
    n = values.shape[0]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    ends = np.concatenate((starts[1:], [n]))  # one past each run
    inner = (starts > 0) & (ends < n)
    starts, ends = starts[inner], ends[inner]
    peaks = starts[(values[starts] > values[starts - 1]) & (values[ends] < values[starts])]
    v = values.tolist()
    left, right = _side_minima(v), _side_minima(v[::-1])[::-1]
    # float arithmetic: 1e308 - -1e308 is inf, silently
    return [Peak(p, v[p], v[p] - max(left[p], right[p])) for p in peaks.tolist()]


def _side_minima(values: list) -> list:
    """For each value, the minimum of it and of the values back to the
    nearest one that is higher or NaN, by one pass over a monotonic stack of
    (value, minimum of the run it closes). A NaN is never popped and pops
    nothing."""
    stack, minima = [], []
    for x in values:
        low = x
        while stack and stack[-1][0] <= x:
            low = min(low, stack.pop()[1])
        stack.append((x, low))
        minima.append(low)
    return minima


@dataclass(frozen=True)
class TPAssignment:
    index: int
    fallback: bool  # no peak fell inside the window; midpoint used


def assign_turning_points(peaks: Sequence[Peak],
                          windows: Sequence[tuple[int, int]]) -> list[TPAssignment]:
    """Per window, the contained peak of maximal prominence (ties to the
    earlier index); an empty window falls back to its midpoint."""
    assignments = []
    for lo, hi in windows:
        if lo > hi:
            raise ValidationError(f"window ({lo}, {hi}) has lo > hi")
        contained = [p for p in peaks if lo <= p.index <= hi]
        if contained:
            best = max(contained, key=lambda p: (p.prominence, -p.index))
            assignments.append(TPAssignment(index=best.index, fallback=False))
        else:
            assignments.append(TPAssignment(index=(lo + hi) // 2, fallback=True))
    return assignments


def tp_distance(pred: Sequence[int], gold: Sequence[int], n: int) -> float:
    """Mean |predicted - gold| normalized by story length, in percentage
    points."""
    if len(pred) != 5 or len(gold) != 5:
        raise ValidationError("turning-point evaluation needs exactly 5 positions each")
    if n <= 0:
        raise ValidationError("story length must be positive")
    for p in list(pred) + list(gold):
        if not (0 <= p < n):
            raise ValidationError(f"turning-point index {p} out of bounds for length {n}")
    return 100.0 * float(np.mean([abs(p - g) for p, g in zip(pred, gold)])) / n


def _descending_ranking(scores: np.ndarray) -> list[int]:
    # ties rank the earlier sentence first
    return np.argsort(-scores, kind="stable").tolist()


def average_precision(scores, gold: GoldLabels,
                      truncate_at: Optional[int] = None) -> float:
    """AP of the descending-score ranking against the salient set.

    By default the full ranking is scored; truncate_at=K restricts to the
    top K and divides by min(|gold|, K).
    """
    if gold.kind != "salience":
        raise ValidationError("average precision needs salience gold labels")
    relevant = gold.salient_indices
    if not relevant:
        raise ValidationError("gold salient set is empty")
    values = scores.values if isinstance(scores, MetricSeries) else np.asarray(scores, float)
    ranking = _descending_ranking(values)
    if truncate_at is not None:
        if truncate_at < 1:
            raise ValidationError("truncation depth must be >= 1")
        ranking = ranking[:truncate_at]
    hits = 0
    precision_sum = 0.0
    for k, idx in enumerate(ranking, start=1):
        if idx in relevant:
            hits += 1
            precision_sum += hits / k
    denom = len(relevant) if truncate_at is None else min(len(relevant), truncate_at)
    return precision_sum / denom


def recall_at_k(scores, gold: GoldLabels, k: Optional[int] = None) -> float:
    """Fraction of gold salient sentences inside the top k; k defaults to
    the gold set size."""
    if gold.kind != "salience":
        raise ValidationError("recall@k needs salience gold labels")
    relevant = gold.salient_indices
    if not relevant:
        raise ValidationError("gold salient set is empty")
    if k is None:
        k = len(relevant)
    if k < 1:
        raise ValidationError("k must be >= 1")
    values = scores.values if isinstance(scores, MetricSeries) else np.asarray(scores, float)
    top = set(_descending_ranking(values)[:k])
    return len(top & relevant) / len(relevant)


def _lcs_length(a: Sequence, b: Sequence) -> int:
    """Exact length of the longest common subsequence: the bit-parallel LCS
    of Allison & Dix (1986) and Hyyro (2004), one big-int update per token of
    the longer sequence, about len(shorter) / 64 word operations each.
    Tokens are matched by hash and equality, so they must be hashable."""
    if len(a) > len(b):
        a, b = b, a  # the masks over the shorter sequence: measured faster
    masks: dict = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full  # after b[:j], bit i is 0 where LCS(a[:i + 1], b[:j]) > LCS(a[:i], b[:j])
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(pred_tokens: Sequence, gold_tokens: Sequence) -> float:
    """LCS-based F1 of two non-empty sequences of hashable tokens (exact LCS)."""
    if len(pred_tokens) == 0 or len(gold_tokens) == 0:
        raise ValidationError("ROUGE-L needs non-empty token sequences")
    lcs = _lcs_length(pred_tokens, gold_tokens)
    if lcs == 0:
        return 0.0
    p, r = lcs / len(pred_tokens), lcs / len(gold_tokens)
    return 2.0 * p * r / (p + r)
