"""Deletion-based salience and its variants.

The canonical measure is the coherence drop when a sentence is removed
from the conditioning context: positive salience means deleting the
sentence hurts prediction of the following window. Windows are produced
upstream; this module never re-tokenizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annotation import zscore
from .model import (Columns, DegenerateStatisticsError, MetricSeries, SentenceRecord, StoryTrace,
                    ValidationError, _Faults, _one_row, _run_sums,
                    per_sentence_series)
from .suspense import DistanceKind, _distances, consecutive_distances


@dataclass(frozen=True)
class SalienceConfig:
    measure: str = "like"
    imp_adjust: bool = False
    combine_like_clus: bool = False
    clus_per: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.clus_per < 1:
            raise ValidationError("clus_per must be >= 1")
        if self.measure not in MEASURES:
            raise ValidationError(f"unknown salience measure {self.measure!r}")


def coherence(token_loglikes) -> float:
    """Length-normalized log-likelihood of a window, nats per token."""
    vals = np.asarray(token_loglikes, float).ravel()
    if vals.size == 0:
        raise ValidationError("coherence of an empty window is undefined")
    return float(vals.mean())


def bcf_salience(c_base: float, c_variant: float) -> float:
    """Coherence with the sentence present minus with it manipulated.
    Negative values are allowed (irrelevant asides)."""
    if not (math.isfinite(c_base) and math.isfinite(c_variant)):
        raise ValidationError("coherences must be finite")
    return c_base - c_variant


def _paired(c: Columns, windows: dict, variant: str, rows: np.ndarray, what: str):
    """The first fault among the sentences `rows` (those with windows): one
    without a 'base' and a `variant` window. With it, the base and variant
    Windows, each with the positions of the windows of the rows before the
    fault (none if there are no such rows)."""
    f, pair = _Faults(len(rows)), [windows.get(name) for name in ("base", variant)]
    have = np.ones(len(rows), bool)
    for w in pair:
        have &= np.isin(rows, w.rows) if w else False
    f.check(~have, lambda k: f"sentence {c.base + rows[k]}: {what} for 'base' and "
            f"{variant!r} required")
    rows = rows[:f.end]
    return f, [(w, np.searchsorted(w.rows, rows)) for w in pair] if len(rows) else []


def _refuse_row(f: _Faults, c: Columns, rows: np.ndarray) -> None:
    """Raise the fault of `f`, whose checks ran over the sentences `rows`,
    as the error of its sentence."""
    if f.message is not None:
        raise ValidationError(f.message, c.base + int(rows[f.end]))


def variant_salience(rec: SentenceRecord, variant: str) -> float:
    """BCF salience of the window after `variant` (deleted, swapped or
    no_knowledge) is applied to the sentence."""
    return float(_variant_saliences(_one_row(rec), variant, np.zeros(1, np.intp))[0])


def _variant_saliences(c: Columns, variant: str, rows: np.ndarray) -> np.ndarray:
    """variant_salience of the sentences `rows`, from one _run_sums call
    per variant (a window's sum over its length is its np.mean). The first
    of them whose windows are missing, or whose coherences are not finite,
    raises."""
    f, pair = _paired(c, c.win_ll, variant, rows, "window log-likelihoods")
    coherences = (np.stack([(_run_sums(w.values, w.lengths) / w.lengths)[at] for w, at in pair],
                           axis=1)
                  if pair else np.zeros((0, 2)))
    f.check(~np.isfinite(coherences).all(axis=1),
            lambda k: f"sentence {c.base + rows[k]}: coherences must be finite")
    _refuse_row(f, c, rows)
    return coherences[:, 0] - coherences[:, 1]


def emb_salience(rec: SentenceRecord) -> float:
    """Cosine distance between the base and deleted window embeddings."""
    return float(_emb_saliences(_one_row(rec), np.zeros(1, np.intp))[0])


def _emb_saliences(c: Columns, rows: np.ndarray) -> np.ndarray:
    """emb_salience of the sentences `rows`, as one cosine-distance call
    over their base and deleted window embeddings."""
    f, pair = _paired(c, c.win_emb, "deleted", rows, "window embeddings")
    _refuse_row(f, c, rows)
    if not pair:
        return np.zeros(0)
    return _distances(*(w.values[at] for w, at in pair), DistanceKind.COSINE)


def imp_adjust(salience: float, sentiment: float) -> float:
    """Magnify salience by sentiment strength: salience * (1 + |sentiment|)."""
    if not (-1.0 <= sentiment <= 1.0):
        raise ValidationError(f"sentiment must lie in [-1, 1], got {sentiment}")
    return salience * (1.0 + abs(sentiment))


def _kmeans_cosine(unit: np.ndarray, k: int, max_iter: int = 100,
                   tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic Lloyd's k-means under cosine distance on unit vectors.

    Init takes k evenly spaced points in sentence order; assignment ties
    break to the lowest cluster index.
    """
    n = unit.shape[0]
    centroids = unit[[(i * n) // k for i in range(k)]].copy()
    assign = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dists = 1.0 - _cosine_to_centroids(unit, centroids)
        assign = np.argmin(dists, axis=1)
        moved = 0.0
        new_centroids = centroids.copy()
        for j in range(k):
            members = unit[assign == j]
            if members.shape[0] == 0:
                continue
            c = members.mean(axis=0)
            moved = max(moved, float(np.linalg.norm(c - centroids[j])))
            new_centroids[j] = c
        centroids = new_centroids
        if moved <= tol:
            break
    dists = 1.0 - _cosine_to_centroids(unit, centroids)
    assign = np.argmin(dists, axis=1)
    return assign, centroids


def _cosine_to_centroids(unit: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(centroids, axis=1)
    sims = unit @ centroids.T
    # A centroid of exactly cancelling members has no direction; treat as
    # maximally distant rather than failing.
    safe = np.where(norms > 0, norms, 1.0)
    sims = sims / safe
    sims[:, norms == 0] = 0.0
    return sims


def clus_salience(embeddings, cfg: SalienceConfig) -> MetricSeries:
    """Centroid-proximity salience: negated cosine distance to the assigned
    k-means centroid, one cluster per cfg.clus_per sentences."""
    embs = np.asarray(embeddings, float)
    n = embs.shape[0]
    norms = np.linalg.norm(embs, axis=1)
    if np.any(norms == 0):
        raise ValidationError("clus_salience requires non-zero embeddings")
    unit = embs / norms[:, None]
    k = min(math.ceil(n / cfg.clus_per), n)
    assign, centroids = _kmeans_cosine(unit, k)
    sims = _cosine_to_centroids(unit, centroids)
    scores = -(1.0 - sims[np.arange(n), assign])
    return MetricSeries(name="clus", values=scores)


def combine_like_clus(like: MetricSeries, clus: MetricSeries) -> MetricSeries:
    """Weighted 1:2 combination on z-scored inputs (raw scales are
    incompatible). A constant input contributes zero."""
    if len(like) != len(clus):
        raise ValidationError("series length mismatch in combination")
    scaled = []
    for series in (clus, like):
        try:
            scaled.append(zscore(series).values)
        except DegenerateStatisticsError:
            scaled.append(np.zeros(len(series)))
    values = scaled[0] + 2.0 * scaled[1]
    return MetricSeries(name="like_clus", values=values)


def positional_baseline(n: int, kind: str, seed: int = 0) -> MetricSeries:
    if n < 1:
        raise ValidationError("series length must be >= 1")
    if kind == "ascending":
        values = np.arange(n, dtype=float)
    elif kind == "descending":
        values = np.arange(n - 1, -1, -1, dtype=float)
    elif kind == "random":
        values = np.random.default_rng(seed).random(n)
    else:
        raise ValidationError(f"unknown positional baseline {kind!r}")
    return MetricSeries(name=kind, values=values)


def _window_variant(variant: str):
    def series(trace: StoryTrace, cfg: SalienceConfig) -> MetricSeries:
        # The last sentence has no following window.
        c = trace.columns
        values = np.zeros(len(trace))
        values[c.has_win_ll] = _variant_saliences(c, variant, np.flatnonzero(c.has_win_ll))
        return per_sentence_series("measure", cfg.measure, trace, values, c.has_win_ll)
    return series


def _positional(kind: str):
    return lambda trace, cfg: positional_baseline(len(trace), kind, cfg.rng_seed)


def _emb_sal(trace: StoryTrace, cfg: SalienceConfig) -> MetricSeries:
    c = trace.columns
    values = np.zeros(len(trace))
    values[c.has_win_emb] = _emb_saliences(c, np.flatnonzero(c.has_win_emb))
    return per_sentence_series("measure", cfg.measure, trace, values, c.has_win_emb)


def _clus(trace: StoryTrace, cfg: SalienceConfig) -> MetricSeries:
    # clus_salience is looked up when called, so a wrapped one is used.
    return clus_salience(trace.columns.embeddings, cfg)


# measure -> series(trace, cfg)
_MEASURES = {
    "like": _window_variant("deleted"),
    "swap": _window_variant("swapped"),
    "know_diff": _window_variant("no_knowledge"),
    # cosine distance between consecutive sentence embeddings
    "emb_surp": lambda trace, cfg: per_sentence_series(
        "measure", cfg.measure, trace, *consecutive_distances(trace, DistanceKind.COSINE)),
    "emb_sal": _emb_sal,
    "clus": _clus,
    "random": _positional("random"),
    "ascending": _positional("ascending"),
    "descending": _positional("descending"),
}
MEASURES = tuple(_MEASURES)


def salience_series(trace: StoryTrace, cfg: SalienceConfig) -> MetricSeries:
    """Per-sentence salience under cfg.measure, with optional importance
    adjustment and Clus combination."""
    # finite inputs can overflow; the series then names its first non-finite sentence
    with np.errstate(over="ignore", invalid="ignore"):
        series = _MEASURES[cfg.measure](trace, cfg)
        if cfg.imp_adjust:  # imp_adjust of each; an absent sentiment is 0
            series = MetricSeries(name=series.name + "_imp", values=series.values * (
                1.0 + np.abs(trace.columns.sentiment)))
    if cfg.combine_like_clus and cfg.measure != "clus":
        series = combine_like_clus(series, _clus(trace, cfg))
    return series
