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

from .model import ContinuationSet, MetricSeries, StoryTrace, ValidationError


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


def continuation_distribution(e_t, continuations: Sequence, sim: str = "cosine") -> np.ndarray:
    """Softmax over cosine similarities between the current embedding and
    each imagined continuation."""
    if len(continuations) == 0:
        raise ValidationError("continuation set is empty")
    if sim != "cosine":
        raise ValidationError(f"unknown similarity {sim!r}")
    return softmax(np.array([cosine_similarity(e_t, c) for c in continuations]))


def softmax(scores) -> np.ndarray:
    scores = np.asarray(scores, float)
    shifted = scores - scores.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


def ely_surprise(e_t, e_prev, kind: DistanceKind) -> float:
    """Distance between the realized state and the previous state."""
    return distance(e_t, e_prev, kind)


def _continuation_probs(e_t, cont: ContinuationSet, sim: Optional[str]) -> np.ndarray:
    if cont.probabilities is not None:
        return cont.probabilities
    if sim is None:
        raise ValidationError("continuation set has no probabilities and no similarity configured")
    return continuation_distribution(e_t, cont.sample_embeddings(), sim)


def ely_suspense(e_t, cont: ContinuationSet, kind: DistanceKind,
                 sim: Optional[str] = None) -> float:
    """Probability-weighted expected distance to the imagined next states:
    weighted_suspense with unit weights (probs * 1.0 == probs, bit for bit)."""
    return weighted_suspense(e_t, cont, np.ones(len(cont.samples)), kind, sim)


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


def weighted_suspense(e_t, cont: ContinuationSet, alphas, kind: DistanceKind,
                      sim: Optional[str] = None) -> float:
    alphas = np.asarray(alphas, float)
    if alphas.shape[0] != len(cont.samples):
        raise ValidationError("one alpha per continuation sample required")
    if np.any(alphas < 0):
        raise ValidationError("alphas must be non-negative")
    probs = _continuation_probs(e_t, cont, sim)
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


def embedding_cosine_baseline(a, b) -> float:
    return cosine_similarity(a, b)


def perplexity(avg_nll: float) -> float:
    """exp of the average negative log-likelihood in nats per token."""
    if not math.isfinite(avg_nll):
        raise ValidationError("avg_nll must be finite")
    return math.exp(avg_nll)


METRIC_NAMES = (
    "ely_surprise",
    "ely_suspense",
    "alpha_ely_surprise",
    "alpha_ely_suspense",
    "hale_surprise",
    "hale_uncertainty_reduction",
    "sample_ely_surprise",
    "sample_ely_suspense",
    "word_overlap",
    "embedding_similarity",
    "alpha_sentiment",
    "perplexity",
)


def _tokens(text: str) -> set[str]:
    return set(text.lower().split())


def _realized_probability(prev_rec, e_t) -> Optional[float]:
    """Probability assigned to the realized sentence: the weight of the
    previous continuation sample most similar to it."""
    cont = prev_rec.continuations
    if cont is None:
        return None
    probs = _continuation_probs(prev_rec.embedding, cont, "cosine")
    sims = [cosine_similarity(e_t, emb) for emb in cont.sample_embeddings()]
    best = int(np.argmax(sims))
    p = float(probs[best])
    return p if p > 0 else None


def metric_series(trace: StoryTrace, name: str, cfg: MetricConfig) -> MetricSeries:
    """Per-sentence curve for a named metric. Sentences lacking the needed
    inputs contribute 0; if no sentence has them, that is an error."""
    if name not in METRIC_NAMES:
        raise ValidationError(f"unknown metric {name!r}")
    n = len(trace)
    values = np.zeros(n)
    available = 0
    recs = trace.sentences

    for t, rec in enumerate(recs):
        prev = recs[t - 1] if t > 0 else None
        v = None
        if name in ("ely_surprise", "alpha_ely_surprise"):
            if prev is not None:
                v = ely_surprise(rec.embedding, prev.embedding, cfg.distance)
                if name == "alpha_ely_surprise":
                    alpha = alpha_weight(rec.sentiment, cfg) if rec.sentiment is not None else 0.0
                    v = weighted_surprise(alpha, v)
        elif name in ("ely_suspense", "alpha_ely_suspense"):
            if rec.continuations is not None:
                if name == "ely_suspense":
                    v = ely_suspense(rec.embedding, rec.continuations, cfg.distance,
                                     "cosine")
                else:
                    # Sample sentiments are not carried in the trace; the
                    # current sentence's weight applies to every sample.
                    alpha = alpha_weight(rec.sentiment, cfg) if rec.sentiment is not None else 0.0
                    alphas = np.full(len(rec.continuations.samples), alpha)
                    v = weighted_suspense(rec.embedding, rec.continuations, alphas,
                                          cfg.distance, "cosine")
        elif name == "hale_surprise":
            if prev is not None:
                p = _realized_probability(prev, rec.embedding)
                if p is not None:
                    v = hale_surprise(p)
        elif name == "hale_uncertainty_reduction":
            if prev is not None and prev.continuations is not None and rec.continuations is not None:
                h_prev = entropy(_continuation_probs(prev.embedding, prev.continuations,
                                                     "cosine"))
                h_curr = entropy(_continuation_probs(rec.embedding, rec.continuations,
                                                     "cosine"))
                v = hale_uncertainty_reduction(h_prev, h_curr)
        elif name == "sample_ely_surprise":
            if prev is not None and prev.continuations is not None:
                v = sample_ely_surprise(rec.embedding,
                                        prev.continuations.sample_embeddings(), cfg.distance)
        elif name == "sample_ely_suspense":
            if rec.continuations is not None:
                v = sample_ely_suspense(rec.embedding,
                                        rec.continuations.sample_embeddings(), cfg.distance)
        elif name == "word_overlap":
            if prev is not None and rec.text is not None and prev.text is not None:
                a, b = _tokens(rec.text), _tokens(prev.text)
                if a or b:
                    v = jaccard_similarity(a, b)
        elif name == "embedding_similarity":
            if prev is not None:
                v = embedding_cosine_baseline(rec.embedding, prev.embedding)
        elif name == "alpha_sentiment":
            if rec.sentiment is not None:
                v = alpha_weight(rec.sentiment, cfg)
        elif name == "perplexity":
            if rec.avg_log_likelihood is not None:
                v = perplexity(-rec.avg_log_likelihood)
        if v is not None:
            values[t] = v
            available += 1
    if available == 0:
        raise ValidationError(
            f"metric {name!r}: required inputs absent for every sentence of {trace.story_id!r}")
    return MetricSeries(name=name, values=values)
