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


def _check_rank_inputs(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("rank correlation needs two equal-length 1-d sequences")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValidationError("rank correlation inputs contain NaN")
    if x.shape[0] < 2:
        raise DegenerateStatisticsError("rank correlation needs length >= 2")
    if (x == x[0]).all() or (y == y[0]).all():
        raise DegenerateStatisticsError("rank correlation undefined for an all-tied sequence")
    return x, y


def _dense_ranks(sorted_values: np.ndarray) -> np.ndarray:
    """1-based dense ranks of an already sorted array."""
    return np.r_[True, sorted_values[1:] != sorted_values[:-1]].cumsum(dtype=np.intp)


def _pairs_within(counts: np.ndarray) -> int:
    """Pairs inside groups of the given sizes, as an exact integer."""
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def _count_inversions(values: np.ndarray) -> int:
    """Pairs i < j with values[i] > values[j], for non-negative integers.

    Bottom-up merge sort: at width w the array is a run of sorted blocks;
    each right block counts, for every element, the left-block elements
    strictly greater than it (one searchsorted over pair-tagged keys), and
    one sort then merges each block pair.
    """
    values = np.asarray(values, np.int64)
    n = values.shape[0]
    m = int(values.max()) + 1
    idx = np.arange(n)
    inversions = 0
    width = 1
    while width < n:
        pair = idx // (2 * width)
        tag = pair * m
        keys = tag + values
        right = (idx & width) != 0
        # left blocks are full and, tagged with their pair, ascend overall;
        # the left blocks of pairs 0..p hold (p + 1) * width elements
        not_greater = np.searchsorted(keys[~right], keys[right], side="right")
        inversions += int((pair[right] + 1).sum()) * width - int(not_greater.sum())
        keys.sort()
        values = keys - tag
        width *= 2
    return inversions


def kendall_tau(x, y) -> float:
    """Kendall's tau-b (tie-corrected) from exact integer counts of ties
    and discordant pairs. The sort order and the closing floating-point
    expression are fixed: the tests require the result to equal the
    reference implementation bit for bit."""
    x, y = _check_rank_inputs(x, y)
    perm = np.argsort(y)
    x, y = x[perm], _dense_ranks(y[perm])
    # stable on x, so y ascends within each run of tied x
    perm = np.argsort(x, kind="mergesort")
    x, y = _dense_ranks(x[perm]), y[perm]
    joint = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True]
    ntie = _pairs_within(np.diff(np.nonzero(joint)[0]))
    xtie, ytie = _pairs_within(np.bincount(x)), _pairs_within(np.bincount(y))
    size = x.shape[0]
    tot = size * (size - 1) // 2
    con_minus_dis = tot - xtie - ytie + ntie - 2 * _count_inversions(y)
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    first = np.r_[True, sorted_values[1:] != sorted_values[:-1]]
    dense = np.empty_like(order)
    dense[order] = first.cumsum()
    # the values of dense rank d fill sorted positions bounds[d-1] .. bounds[d]-1
    bounds = np.r_[np.nonzero(first)[0], first.shape[0]]
    return 0.5 * (bounds[dense] + bounds[dense - 1] + 1)


def spearman_rho(x, y) -> float:
    """Spearman's rho on average ranks (tie-aware): the Pearson correlation
    of the stacked 2 x n ranks by np.corrcoef. A hand-written Pearson can
    differ in the last ulp; the tests require the result to equal the
    reference implementation bit for bit."""
    x, y = _check_rank_inputs(x, y)
    return float(np.corrcoef(np.vstack((_average_ranks(x), _average_ranks(y))))[1, 0])


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
    value (or the boundary).
    """
    values = series.values if isinstance(series, MetricSeries) else np.asarray(series, float)
    n = values.shape[0]
    peaks: list[Peak] = []
    i = 1
    while i < n:
        if values[i] > values[i - 1]:
            j = i
            while j + 1 < n and values[j + 1] == values[i]:
                j += 1
            if j + 1 < n and values[j + 1] < values[i]:
                peaks.append(Peak(index=i, height=float(values[i]),
                                  prominence=_prominence(values, i)))
            i = j + 1
        else:
            i += 1
    return peaks


def _prominence(values: np.ndarray, peak: int) -> float:
    h = values[peak]
    left_min = h
    q = peak - 1
    while q >= 0 and values[q] <= h:
        left_min = min(left_min, values[q])
        q -= 1
    right_min = h
    q = peak + 1
    n = values.shape[0]
    while q < n and values[q] <= h:
        right_min = min(right_min, values[q])
        q += 1
    return float(h - max(left_min, right_min))


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
    return sorted(range(scores.shape[0]), key=lambda i: (-scores[i], i))


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
