"""Surprise and suspense measures over sentence-embedding traces.

All values are in nats. Functions are pure and horizon-agnostic: a
multi-step lookahead is expressed by which continuation set the caller
stores on the trace. Each scalar function scores one sentence as a one-row
call into the whole-trace kernel that metric_series runs, so each formula
has one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model import (Columns, ContinuationSet, MetricSeries, SentenceRecord, StoryTrace,
                    ValidationError, _distinct, _is_distribution, _one_row, _unchecked,
                    per_sentence_series)


class DistanceKind(Enum):
    L1 = "l1"
    L2 = "l2"
    SQUARED_L2 = "sql2"
    COSINE = "cosine"


@dataclass(frozen=True)
class MetricConfig:
    distance: DistanceKind = DistanceKind.SQUARED_L2
    alpha_pos_weight: float = 1.0
    alpha_neg_weight: float = 2.0
    # Additive floor so neutral sentences keep base weight; 0 matches the
    # pure multiplicative reading.
    alpha_floor: float = 0.0

    def __post_init__(self):
        if not all(w >= 0 for w in (self.alpha_pos_weight, self.alpha_neg_weight,
                                    self.alpha_floor)):  # NaN, too
            raise ValidationError("alpha weights must be non-negative")


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The two vectors as (1, d) rows, if they have the same shape."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        raise ValidationError(f"vector length mismatch: {a.shape} vs {b.shape}")
    return a.reshape(1, -1), b.reshape(1, -1)


def _check_samples(state, samples, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The state as a (1, d) row, and the (k, d) block of the samples."""
    if len(samples) == 0:
        raise ValidationError(f"{name} set is empty")
    return (np.asarray(state, float).reshape(1, -1),
            np.concatenate([_check_pair(state, s)[1] for s in samples]))


def cosine_similarity(a, b) -> float:
    return float(_cosines(*_check_pair(a, b))[0])


def distance(a, b, kind: DistanceKind) -> float:
    return float(_distances(*_check_pair(a, b), kind)[0])


def hale_surprise(p: float) -> float:
    """Negative log of the realized continuation's probability."""
    if not (0.0 < p <= 1.0):
        raise ValidationError(f"probability must lie in (0, 1], got {p}")
    return -math.log(p)


def entropy(dist) -> float:
    probs = np.asarray(dist, float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValidationError("distribution must be a non-empty 1-d vector")
    if not _is_distribution(probs):
        raise ValidationError("invalid probability distribution")
    nz = probs[probs > 0]
    return float(-np.sum(nz * np.log(nz)))


def hale_uncertainty_reduction(h_prev: float, h_curr: float) -> float:
    if not (math.isfinite(h_prev) and math.isfinite(h_curr)):
        raise ValidationError("entropies must be finite")
    return h_prev - h_curr


def continuation_distribution(e_t, continuations: Sequence) -> np.ndarray:
    """Softmax over cosine similarities between the current embedding and
    each imagined continuation."""
    return softmax(_cosines(*_check_samples(e_t, continuations, "continuation")))


def softmax(scores) -> np.ndarray:
    """Softmax along the last axis."""
    scores = np.asarray(scores, float)
    exps = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


def ely_surprise(e_t, e_prev, kind: DistanceKind) -> float:
    """Distance between the realized state and the previous state."""
    return distance(e_t, e_prev, kind)


def ely_suspense(e_t, cont: ContinuationSet, kind: DistanceKind) -> float:
    """Probability-weighted expected distance to the imagined next states:
    weighted_suspense with unit weights (probs * 1.0 == probs, bit for bit)."""
    return weighted_suspense(e_t, cont, np.ones(len(cont.samples)), kind)


def alpha_weight(sentiment: float, cfg: MetricConfig) -> float:
    """Sentiment-magnitude weight: positive and negative polarity carry
    different multipliers."""
    if not (-1.0 <= sentiment <= 1.0):
        raise ValidationError(f"sentiment must lie in [-1, 1], got {sentiment}")
    return float(_alphas(np.array([sentiment], float), np.ones(1, bool), cfg)[0])


def weighted_suspense(e_t, cont: ContinuationSet, alphas, kind: DistanceKind) -> float:
    alphas = np.asarray(alphas, float)
    if alphas.shape[0] != len(cont.samples):
        raise ValidationError("one alpha per continuation sample required")
    if np.any(alphas < 0):
        raise ValidationError("alphas must be non-negative")
    state, _ = _check_samples(e_t, cont.sample_embeddings(), "continuation")
    c = _one_row(_unchecked(SentenceRecord, 0, state[0], *[None] * 5, cont))
    return float(_weighted_distances(c, np.zeros(1, np.intp), len(cont.samples), state, kind,
                                     alphas)[0])


def sample_ely_suspense(state, samples: Sequence, kind: DistanceKind) -> float:
    """Equally weighted mean distance from the state to each sample."""
    state, block = _check_samples(state, samples, "sample")
    return float(_mean_distances(state, block[:, None], kind)[0])


def sample_ely_surprise(actual, samples: Sequence, kind: DistanceKind) -> float:
    """Distance from the realized state to the componentwise sample mean."""
    actual, block = _check_samples(actual, samples, "sample")
    return float(_distances_to_means(actual, [block], kind)[0])


def jaccard_similarity(a_tokens, b_tokens) -> float:
    a, b = set(a_tokens), set(b_tokens)
    if not a and not b:
        raise ValidationError("Jaccard similarity undefined for two empty sets")
    return len(a & b) / len(a | b)


def perplexity(avg_nll: float) -> float:
    """exp of the average negative log-likelihood in nats per token."""
    if not math.isfinite(avg_nll):
        raise ValidationError("avg_nll must be finite")
    value = _exp(avg_nll)
    if value == math.inf:
        raise ValidationError(f"perplexity of avg_nll {avg_nll} overflows a float")
    return value


def _exp(x: float) -> float:
    """math.exp (np.exp differs from it in the last bit), but inf where the
    result overflows a float, for the series check to name its sentence."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# whole-trace curves: each scores a whole trace at once and returns (values,
# available), where available marks the sentences that have the inputs (see
# model.per_sentence_series). Every curve equals pair-by-pair scoring with
# np.dot and 1-d sums bit for bit (the oracle of tests/test_suspense.py):
# np.vecdot runs the per-pair np.dot kernel on each row, and a row sum over
# the contiguous last axis adds in the order of the 1-d np.sum. (On
# one-element rows np.vecdot returns +0 where np.dot returns -0, which no
# curve can see: a zero cosine numerator comes only from a zero vector, an
# error, and a squared difference is never -0.)


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cosine_similarity of each row pair."""
    na, nb = np.sqrt(np.vecdot(a, a)), np.sqrt(np.vecdot(b, b))
    if not (na.all() and nb.all()):
        raise ValidationError("cosine similarity undefined for zero vectors")
    return np.vecdot(a, b) / (na * nb)


def _unit_rows(vectors, message: str) -> np.ndarray:
    """The rows of `vectors` scaled to unit length; a zero row is refused
    with `message`."""
    mat = np.asarray(vectors, float)
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0):
        raise ValidationError(message)
    return mat / norms[:, None]


def _distances(a: np.ndarray, b: np.ndarray, kind: DistanceKind) -> np.ndarray:
    """distance() of each row pair."""
    if kind is DistanceKind.COSINE:
        return np.fmax(0.0, 1.0 - _cosines(a, b))  # like max(0.0, x), fmax maps NaN to 0
    diff = a - b
    if kind is DistanceKind.L1:
        return np.abs(diff).sum(axis=1)
    if kind is DistanceKind.L2:
        return np.sqrt(np.vecdot(diff, diff))
    if kind is DistanceKind.SQUARED_L2:
        return np.vecdot(diff, diff)
    raise ValidationError(f"unknown distance kind {kind!r}")


def _after_first(values, available=None) -> tuple[np.ndarray, np.ndarray]:
    """The curve of a metric that needs the preceding sentence, from its
    values at sentences 1..n-1: sentence 0 has no inputs."""
    if available is None:
        available = np.ones(len(values), bool)
    return np.concatenate(([0.0], values)), np.concatenate(([False], available))


def _groups(counts: np.ndarray) -> list:
    """The rows with a continuation set, grouped by sample count: a list of
    (rows, count) pairs."""
    return [(np.flatnonzero(counts == k), k) for k in _distinct(counts[counts > 0]).tolist()]


def _slot_blocks(c: Columns, pos: np.ndarray, k: int):
    """The (m, d) block of the j-th samples of the sets of the rows `pos`,
    each of k samples, for each slot j, taken one at a time so that one
    block is alive at once."""
    starts = c.starts()[pos]
    return (c.samples[starts + j] for j in range(k))


def _weighted(c: Columns, pos: np.ndarray, k: int, states: np.ndarray, column=None):
    """The (m, k) continuation weights of the sets of the rows `pos`, each
    of k samples, whose sentences have the embeddings `states`: each set's
    stored probabilities, or else continuation_distribution, computed only
    for the sets that store none. With `column`, also the (m, k) array of
    column(block) over the slots, from the same pass over the blocks."""
    soft = ~c.has_probs[pos]
    some, every = soft.any(), soft.all()
    sims, columns = [], []
    for block in _slot_blocks(c, pos, k):
        if some:
            sims.append(_cosines(states, block) if every else _cosines(states[soft], block[soft]))
        if column is not None:
            columns.append(column(block))
    weights = np.empty((len(pos), k))
    if not every:
        stored = c.starts(c.counts * c.has_probs)[pos[~soft]]
        weights[~soft] = c.probs[stored[:, None] + np.arange(k)]
    if some:
        weights[soft] = softmax(np.stack(sims, axis=1))
    return weights, np.stack(columns, axis=1) if columns else None


def _weighted_distances(c, pos, k, states, kind, alphas=None) -> np.ndarray:
    """weighted_suspense of each state over its set, with alphas per state
    (m, 1) or per sample (k,), or ely_suspense without them."""
    weights, dists = _weighted(c, pos, k, states, lambda block: _distances(states, block, kind))
    if alphas is not None:
        weights = weights * alphas
    return (weights * dists).sum(axis=1)


def _mean_distances(states, blocks, kind) -> np.ndarray:
    """sample_ely_suspense of each state, its samples given as (m, d) slot blocks."""
    return np.stack([_distances(states, block, kind) for block in blocks], axis=1).mean(axis=1)


def _distances_to_means(states, sample_sets, kind) -> np.ndarray:
    """sample_ely_surprise of each state, its samples given as a (k, d) block
    per set: adding slot by slot differs from np.mean(axis=0) for d = 1, k >= 8."""
    means = np.stack([np.mean(samples, axis=0) for samples in sample_sets])
    return _distances(states, means, kind)


def _alphas(sentiment: np.ndarray, present: np.ndarray, cfg: MetricConfig) -> np.ndarray:
    """alpha_weight of each present sentiment, and 0 for an absent one."""
    weights = np.where(sentiment >= 0, cfg.alpha_pos_weight, cfg.alpha_neg_weight)
    return np.where(present, cfg.alpha_floor + weights * np.abs(sentiment), 0.0)


def _sentiment_alphas(trace: StoryTrace, cfg: MetricConfig) -> np.ndarray:
    # Sample sentiments are not carried in the trace, so a sentence's weight
    # also applies to each of its continuation samples.
    return _alphas(trace.columns.sentiment, trace.columns.has_sentiment, cfg)


def consecutive_distances(trace: StoryTrace, kind: DistanceKind):
    """ely_surprise of each sentence: its distance to the preceding one."""
    e = trace.columns.embeddings
    return _after_first(_distances(e[1:], e[:-1], kind))


def _alpha_ely_surprise(trace, cfg):
    values, available = consecutive_distances(trace, cfg.distance)
    return _sentiment_alphas(trace, cfg) * values, available


def _expected_distance(trace, cfg, alphas=None):
    """ely_suspense, or weighted_suspense with one alpha per sentence."""
    c = trace.columns
    values = np.zeros(len(trace))
    for pos, k in _groups(c.counts):
        values[pos] = _weighted_distances(c, pos, k, c.embeddings[pos], cfg.distance,
                                          None if alphas is None else alphas[pos, None])
    return values, c.counts > 0


def _hale_surprise(trace, cfg):
    """Surprisal of each sentence, whose probability is the weight of the
    preceding sentence's continuation sample most similar to it. A sentence
    realizing a zero-weight sample has no surprisal."""
    c = trace.columns
    e = c.embeddings
    values, available = np.zeros(len(trace) - 1), np.zeros(len(trace) - 1, bool)
    for pos, k in _groups(c.counts[:-1]):
        realized = e[pos + 1]
        weights, sims = _weighted(c, pos, k, e[pos], lambda block: _cosines(realized, block))
        p = weights[np.arange(len(pos)), sims.argmax(axis=1)]
        real = p > 0
        values[pos[real]] = [hale_surprise(x) for x in p[real].tolist()]
        available[pos[real]] = True
    return _after_first(values, available)


def _hale_uncertainty_reduction(trace, cfg):
    c = trace.columns
    has = c.counts > 0
    both = has[:-1] & has[1:]  # (t-1, t) pairs that both have continuations
    used = np.concatenate((both, [False])) | np.concatenate(([False], both))
    h = np.zeros(len(trace))
    for pos, k in _groups(c.counts * used):
        h[pos] = [entropy(w) for w in _weighted(c, pos, k, c.embeddings[pos])[0]]
    return _after_first(h[:-1] - h[1:], both)


def _sample_ely_surprise(trace, cfg):
    c = trace.columns
    values = np.zeros(len(trace) - 1)
    for pos, k in _groups(c.counts[:-1]):
        values[pos] = _distances_to_means(
            c.embeddings[pos + 1], [c.samples[at:at + k] for at in c.starts()[pos].tolist()],
            cfg.distance)
    return _after_first(values, c.counts[:-1] > 0)


def _sample_ely_suspense(trace, cfg):
    c = trace.columns
    values = np.zeros(len(trace))
    for pos, k in _groups(c.counts):
        values[pos] = _mean_distances(c.embeddings[pos], _slot_blocks(c, pos, k), cfg.distance)
    return values, c.counts > 0


def _word_overlap(trace, cfg):
    words = [None if text is None else set(text.lower().split()) for text in trace.columns.text]
    pairs = list(zip(words[1:], words[:-1]))
    available = np.array([a is not None and b is not None and bool(a or b) for a, b in pairs],
                         bool)
    return _after_first([jaccard_similarity(a, b) if ok else 0.0
                         for (a, b), ok in zip(pairs, available)], available)


def _embedding_similarity(trace, cfg):
    e = trace.columns.embeddings
    return _after_first(_cosines(e[1:], e[:-1]))


def _perplexity(trace, cfg):
    c = trace.columns
    values = np.zeros(len(trace))
    values[c.has_avg_ll] = [_exp(-ll) for ll in c.avg_ll[c.has_avg_ll].tolist()]
    return values, c.has_avg_ll


# name -> curve(trace, cfg) -> (values, available)
_METRICS = {
    "ely_surprise": lambda trace, cfg: consecutive_distances(trace, cfg.distance),
    "ely_suspense": _expected_distance,
    "alpha_ely_surprise": _alpha_ely_surprise,
    "alpha_ely_suspense": lambda trace, cfg:
        _expected_distance(trace, cfg, _sentiment_alphas(trace, cfg)),
    "hale_surprise": _hale_surprise,
    "hale_uncertainty_reduction": _hale_uncertainty_reduction,
    "sample_ely_surprise": _sample_ely_surprise,
    "sample_ely_suspense": _sample_ely_suspense,
    "word_overlap": _word_overlap,
    "embedding_similarity": _embedding_similarity,
    "alpha_sentiment": lambda trace, cfg:
        (_sentiment_alphas(trace, cfg), trace.columns.has_sentiment),
    "perplexity": _perplexity,
}
METRIC_NAMES = tuple(_METRICS)


def metric_series(trace: StoryTrace, name: str, cfg: MetricConfig) -> MetricSeries:
    """Per-sentence curve for a named metric. Sentences lacking the needed
    inputs contribute 0; if no sentence has them, that is an error."""
    return per_sentence_series("metric", _METRICS, _known_metric(name), trace, cfg)


def _known_metric(name: str) -> str:
    """`name`, if it names a metric."""
    if name not in _METRICS:
        raise ValidationError(f"unknown metric {name!r}")
    return name
