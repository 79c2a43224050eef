"""Relative suspense judgments: absolute curves, normalization, and
inter-annotator agreement."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (AnnotationSet, DegenerateStatisticsError, Judgment,
                    MetricSeries, ValidationError)
from . import evaluation


@dataclass(frozen=True)
class JudgmentMapping:
    """Relative judgment -> signed increment. Same is pinned at 0 and
    adjacent magnitudes must stay at least 0.05 apart."""

    big_decrease: float = -0.2
    decrease: float = -0.1
    same: float = 0.0
    increase: float = 0.1
    big_increase: float = 0.2

    MIN_SEPARATION = 0.05

    def __post_init__(self):
        if self.same != 0.0:
            raise ValidationError("Same must map to 0")
        sep = self.MIN_SEPARATION
        if not (self.decrease <= -sep and self.big_decrease <= self.decrease - sep):
            raise ValidationError("decrease magnitudes must be negative and separated by >= 0.05")
        if not (self.increase >= sep and self.big_increase >= self.increase + sep):
            raise ValidationError("increase magnitudes must be positive and separated by >= 0.05")

    def increments(self) -> dict[Judgment, float]:
        return {
            Judgment.BIG_DECREASE: self.big_decrease,
            Judgment.DECREASE: self.decrease,
            Judgment.SAME: self.same,
            Judgment.INCREASE: self.increase,
            Judgment.BIG_INCREASE: self.big_increase,
        }


def absolute_curve(judgments: Sequence[Judgment],
                   mapping: JudgmentMapping = JudgmentMapping()) -> MetricSeries:
    """Cumulative sum of mapped relative judgments."""
    if len(judgments) == 0:
        raise ValidationError("judgment sequence is empty")
    table = mapping.increments()
    return MetricSeries(name="annotated", values=np.cumsum([table[j] for j in judgments]))


def zscore(series: MetricSeries) -> MetricSeries:
    """Center and scale to unit population variance. The values are finite,
    but their mean or spread can overflow, which is refused."""
    if len(series) < 2:
        raise DegenerateStatisticsError(f"series {series.name!r} too short to z-score")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = series.values.mean(), float(series.values.std())
        if not (np.isfinite(mean) and np.isfinite(std)):
            raise DegenerateStatisticsError(f"series {series.name!r} cannot be z-scored: its "
                                            "mean or standard deviation overflows")
        if std == 0.0:
            raise DegenerateStatisticsError(f"series {series.name!r} is constant")
        values = (series.values - mean) / std
    return MetricSeries(name=series.name, values=values, normalized=True)


_ORDINAL_VALUE = {
    Judgment.BIG_DECREASE: 0,
    Judgment.DECREASE: 1,
    Judgment.SAME: 2,
    Judgment.INCREASE: 3,
    Judgment.BIG_INCREASE: 4,
}


def krippendorff_alpha_table(data: Sequence[Sequence[Optional[float]]],
                             level: str = "ordinal") -> float:
    """Krippendorff's alpha over a coders-by-units table; None marks a
    missing value. Units with fewer than two values are unpairable and
    excluded."""
    if level not in ("nominal", "ordinal", "interval"):
        raise ValidationError(f"unknown measurement level {level!r}")
    if not data:
        raise ValidationError("no annotation data")
    n_units = max(len(row) for row in data)
    unit_values = []
    for u in range(n_units):
        vals = [row[u] for row in data if u < len(row) and row[u] is not None]
        if len(vals) >= 2:
            unit_values.append(vals)
    if not unit_values:
        raise DegenerateStatisticsError("no unit has two or more pairable values")

    categories = sorted({v for vals in unit_values for v in vals})
    cat_index = {c: i for i, c in enumerate(categories)}
    m = len(categories)
    coincidence = np.zeros((m, m))
    for vals in unit_values:
        mu = len(vals)
        for a, b in itertools.permutations(range(mu), 2):
            coincidence[cat_index[vals[a]], cat_index[vals[b]]] += 1.0 / (mu - 1)
    n_c = coincidence.sum(axis=1)
    n_total = float(n_c.sum())

    if level == "nominal":
        delta = 1.0 - np.eye(m)
    elif level == "interval":
        cats = np.asarray(categories, float)
        delta = (cats[:, None] - cats[None, :]) ** 2
    else:  # ordinal: cumulative-marginal difference
        delta = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                span = n_c[i:j + 1].sum() - (n_c[i] + n_c[j]) / 2.0
                delta[i, j] = delta[j, i] = span ** 2

    d_o = float((coincidence * delta).sum()) / n_total
    d_e = float((np.outer(n_c, n_c) * delta).sum()) / (n_total * (n_total - 1.0))
    if d_e == 0.0:
        raise DegenerateStatisticsError(
            "expected disagreement is zero (all values identical)")
    return 1.0 - d_o / d_e


def krippendorff_alpha(annotations: AnnotationSet, level: str = "ordinal") -> float:
    if len(annotations.annotators) < 2:
        raise ValidationError("agreement needs at least two annotators")
    table = [
        [float(_ORDINAL_VALUE[j]) for j in annotations.annotators[aid]]
        for aid in sorted(annotations.annotators)
    ]
    return krippendorff_alpha_table(table, level)


@dataclass(frozen=True)
class CorrelationResult:
    tau: float
    rho: float
    pairs: int
    skipped: int


def _mean_correlations(curves: Sequence[np.ndarray], groups, degenerate: str
                       ) -> list[CorrelationResult]:
    """For each group of (i, j) pairs of positions in `curves`, the mean
    (tau, rho) over the curve pairs. A pair with a constant side is skipped
    and counted; if every pair of a group is, that is an error. The groups
    are checked in order, then every tau and rho is computed in one batched
    call each."""
    constant = [float(c.std()) == 0.0 for c in curves]
    tied = [bool((c == c[0]).all()) for c in curves]
    kept = []
    for group in groups:
        pairs = [(i, j) for i, j in group if not (constant[i] or constant[j])]
        if any(tied[i] or tied[j] for i, j in pairs):
            raise DegenerateStatisticsError("rank correlation undefined for an all-tied sequence")
        if not pairs:
            raise DegenerateStatisticsError(degenerate)
        kept.append(pairs)
    rows = [pair for pairs in kept for pair in pairs]
    x = np.stack([curves[i] for i, _ in rows])
    y = np.stack([curves[j] for _, j in rows])
    taus, rhos = evaluation.kendall_taus(x, y), evaluation.spearman_rhos(x, y)
    results, at = [], 0
    for group, pairs in zip(groups, kept):
        span = slice(at, at + len(pairs))
        results.append(CorrelationResult(tau=float(np.mean(taus[span])),
                                         rho=float(np.mean(rhos[span])), pairs=len(pairs),
                                         skipped=len(group) - len(pairs)))
        at = span.stop
    return results


def _annotator_curves(annotations: AnnotationSet, mapping: JudgmentMapping) -> list[np.ndarray]:
    return [absolute_curve(annotations.annotators[aid], mapping).values
            for aid in sorted(annotations.annotators)]


def pairwise_correlations(preds: Sequence[MetricSeries], annotations: AnnotationSet,
                          mapping: JudgmentMapping = JudgmentMapping()
                          ) -> list[CorrelationResult]:
    """pairwise_correlation of each prediction, with each annotator's curve
    built once."""
    if not preds:
        return []
    for pred in preds:
        if annotations.length != len(pred):
            raise ValidationError(f"prediction length {len(pred)} differs from annotation "
                                  f"length {annotations.length}")
    curves = _annotator_curves(annotations, mapping)
    return _mean_correlations(
        [pred.values for pred in preds] + curves,
        [[(p, len(preds) + a) for a in range(len(curves))] for p in range(len(preds))],
        "every prediction/annotator pair was degenerate")


def pairwise_correlation(pred: MetricSeries, annotations: AnnotationSet,
                         mapping: JudgmentMapping = JudgmentMapping()) -> CorrelationResult:
    """Mean rank correlation between a prediction curve and each
    annotator's absolute curve. Degenerate pairs are skipped and counted."""
    return pairwise_correlations([pred], annotations, mapping)[0]


def human_upper_bound(annotations: AnnotationSet,
                      mapping: JudgmentMapping = JudgmentMapping()) -> CorrelationResult:
    """Mean pairwise rank correlation over unordered annotator pairs."""
    if len(annotations.annotators) < 2:
        raise ValidationError("upper bound needs at least two annotators")
    curves = _annotator_curves(annotations, mapping)
    return _mean_correlations(curves, [list(itertools.combinations(range(len(curves)), 2))],
                              "every annotator pair was degenerate")[0]
