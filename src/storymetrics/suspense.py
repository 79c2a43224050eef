"""Surprise and suspense measures over sentence-embedding traces.

All values are in nats. Functions are pure and horizon-agnostic: a
multi-step lookahead is expressed by which continuation set the caller
stores on the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .model import (ContinuationSet, MetricSeries, SentenceRecord, StoryTrace,
                    ValidationError, per_sentence_series)


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
        if self.alpha_pos_weight < 0 or self.alpha_neg_weight < 0 or self.alpha_floor < 0:
            raise ValidationError("alpha weights must be non-negative")


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape:
        raise ValidationError(f"vector length mismatch: {a.shape} vs {b.shape}")
    return a, b


def cosine_similarity(a, b) -> float:
    a, b = _check_pair(a, b)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine similarity undefined for zero vectors")
    return float(np.dot(a, b) / (na * nb))


def distance(a, b, kind: DistanceKind) -> float:
    a, b = _check_pair(a, b)
    if kind is DistanceKind.L1:
        return float(np.sum(np.abs(a - b)))
    if kind is DistanceKind.L2:
        return float(np.linalg.norm(a - b))
    if kind is DistanceKind.SQUARED_L2:
        d = a - b
        return float(np.dot(d, d))
    if kind is DistanceKind.COSINE:
        return max(0.0, 1.0 - cosine_similarity(a, b))
    raise ValidationError(f"unknown distance kind {kind!r}")


def hale_surprise(p: float) -> float:
    """Negative log of the realized continuation's probability."""
    if not (0.0 < p <= 1.0):
        raise ValidationError(f"probability must lie in (0, 1], got {p}")
    return -math.log(p)


def entropy(dist) -> float:
    probs = np.asarray(dist, float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValidationError("distribution must be a non-empty 1-d vector")
    if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-9:
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
    if len(continuations) == 0:
        raise ValidationError("continuation set is empty")
    return softmax(np.array([cosine_similarity(e_t, c) for c in continuations]))


def softmax(scores) -> np.ndarray:
    scores = np.asarray(scores, float)
    shifted = scores - scores.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


def ely_surprise(e_t, e_prev, kind: DistanceKind) -> float:
    """Distance between the realized state and the previous state."""
    return distance(e_t, e_prev, kind)


def _continuation_probs(e_t, cont: ContinuationSet) -> np.ndarray:
    """The stored probabilities, or else the cosine softmax over the samples."""
    if cont.probabilities is not None:
        return cont.probabilities
    return continuation_distribution(e_t, cont.sample_embeddings())


def ely_suspense(e_t, cont: ContinuationSet, kind: DistanceKind) -> float:
    """Probability-weighted expected distance to the imagined next states:
    weighted_suspense with unit weights (probs * 1.0 == probs, bit for bit)."""
    return weighted_suspense(e_t, cont, np.ones(len(cont.samples)), kind)


def alpha_weight(sentiment: float, cfg: MetricConfig) -> float:
    """Sentiment-magnitude weight: positive and negative polarity carry
    different multipliers."""
    if not (-1.0 <= sentiment <= 1.0):
        raise ValidationError(f"sentiment must lie in [-1, 1], got {sentiment}")
    weight = cfg.alpha_pos_weight if sentiment >= 0 else cfg.alpha_neg_weight
    return cfg.alpha_floor + weight * abs(sentiment)


def weighted_surprise(alpha: float, surprise: float) -> float:
    if alpha < 0:
        raise ValidationError("alpha must be non-negative")
    return alpha * surprise


def weighted_suspense(e_t, cont: ContinuationSet, alphas, kind: DistanceKind) -> float:
    alphas = np.asarray(alphas, float)
    if alphas.shape[0] != len(cont.samples):
        raise ValidationError("one alpha per continuation sample required")
    if np.any(alphas < 0):
        raise ValidationError("alphas must be non-negative")
    probs = _continuation_probs(e_t, cont)
    dists = np.array([distance(e_t, s.embedding, kind) for s in cont.samples])
    return float(np.sum(probs * alphas * dists))


def sample_ely_suspense(state, samples: Sequence, kind: DistanceKind) -> float:
    """Equally weighted mean distance from the state to each sample."""
    if len(samples) == 0:
        raise ValidationError("sample set is empty")
    return float(np.mean([distance(state, s, kind) for s in samples]))


def sample_ely_surprise(actual, samples: Sequence, kind: DistanceKind) -> float:
    """Distance from the realized state to the componentwise sample mean."""
    if len(samples) == 0:
        raise ValidationError("sample set is empty")
    mean = np.mean(np.stack([np.asarray(s, float) for s in samples]), axis=0)
    return distance(actual, mean, kind)


def jaccard_similarity(a_tokens, b_tokens) -> float:
    a, b = set(a_tokens), set(b_tokens)
    if not a and not b:
        raise ValidationError("Jaccard similarity undefined for two empty sets")
    return len(a & b) / len(a | b)


def perplexity(avg_nll: float) -> float:
    """exp of the average negative log-likelihood in nats per token."""
    if not math.isfinite(avg_nll):
        raise ValidationError("avg_nll must be finite")
    return math.exp(avg_nll)


def _alpha(rec: SentenceRecord, cfg: MetricConfig) -> float:
    # Sample sentiments are not carried in the trace, so a sentence's weight
    # also applies to each of its continuation samples.
    return alpha_weight(rec.sentiment, cfg) if rec.sentiment is not None else 0.0


def _hale_surprise(rec: SentenceRecord, prev: Optional[SentenceRecord], cfg) -> Optional[float]:
    """Surprisal of the realized sentence, whose probability is the weight of
    the previous continuation sample most similar to it."""
    if prev is None or prev.continuations is None:
        return None
    cont = prev.continuations
    probs = _continuation_probs(prev.embedding, cont)
    sims = [cosine_similarity(rec.embedding, emb) for emb in cont.sample_embeddings()]
    p = float(probs[int(np.argmax(sims))])
    return hale_surprise(p) if p > 0 else None


def _word_overlap(rec: SentenceRecord, prev: Optional[SentenceRecord], cfg) -> Optional[float]:
    if prev is None or rec.text is None or prev.text is None:
        return None
    a, b = set(rec.text.lower().split()), set(prev.text.lower().split())
    return jaccard_similarity(a, b) if a or b else None


# name -> value(rec, prev, cfg): the metric at one sentence, None where the
# sentence lacks the inputs (see model.per_sentence_series).
_METRICS = {
    "ely_surprise": lambda rec, prev, cfg: None if prev is None else
        ely_surprise(rec.embedding, prev.embedding, cfg.distance),
    "ely_suspense": lambda rec, prev, cfg: None if rec.continuations is None else
        ely_suspense(rec.embedding, rec.continuations, cfg.distance),
    "alpha_ely_surprise": lambda rec, prev, cfg: None if prev is None else
        weighted_surprise(_alpha(rec, cfg),
                          ely_surprise(rec.embedding, prev.embedding, cfg.distance)),
    "alpha_ely_suspense": lambda rec, prev, cfg: None if rec.continuations is None else
        weighted_suspense(rec.embedding, rec.continuations,
                          np.full(len(rec.continuations.samples), _alpha(rec, cfg)),
                          cfg.distance),
    "hale_surprise": _hale_surprise,
    "hale_uncertainty_reduction": lambda rec, prev, cfg:
        None if prev is None or prev.continuations is None or rec.continuations is None else
        hale_uncertainty_reduction(
            entropy(_continuation_probs(prev.embedding, prev.continuations)),
            entropy(_continuation_probs(rec.embedding, rec.continuations))),
    "sample_ely_surprise": lambda rec, prev, cfg:
        None if prev is None or prev.continuations is None else
        sample_ely_surprise(rec.embedding, prev.continuations.sample_embeddings(),
                            cfg.distance),
    "sample_ely_suspense": lambda rec, prev, cfg: None if rec.continuations is None else
        sample_ely_suspense(rec.embedding, rec.continuations.sample_embeddings(),
                            cfg.distance),
    "word_overlap": _word_overlap,
    "embedding_similarity": lambda rec, prev, cfg: None if prev is None else
        cosine_similarity(rec.embedding, prev.embedding),
    "alpha_sentiment": lambda rec, prev, cfg: None if rec.sentiment is None else
        alpha_weight(rec.sentiment, cfg),
    "perplexity": lambda rec, prev, cfg: None if rec.avg_log_likelihood is None else
        perplexity(-rec.avg_log_likelihood),
}
METRIC_NAMES = tuple(_METRICS)


def metric_series(trace: StoryTrace, name: str, cfg: MetricConfig) -> MetricSeries:
    """Per-sentence curve for a named metric. Sentences lacking the needed
    inputs contribute 0; if no sentence has them, that is an error."""
    if name not in _METRICS:
        raise ValidationError(f"unknown metric {name!r}")
    value = _METRICS[name]
    return per_sentence_series("metric", name, trace, lambda rec, prev: value(rec, prev, cfg))
