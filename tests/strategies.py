"""Hypothesis strategies for valid storymetrics inputs.

`traces()` draws the structure of a trace: its length and dimension, its
meta, which optional fields each sentence carries (window log-likelihoods
and embeddings under known and other variant keys among them), sample
counts, horizons and scores, duplicate samples, stored probabilities (with
zeros), zero embeddings, and text with non-ASCII words. The vectors come
from a numpy generator seeded by a drawn integer, so that long traces of
wide vectors stay cheap to draw.
"""

import numpy as np
from hypothesis import strategies as st

from storymetrics.model import (KNOWN_VARIANTS, ContinuationSample, ContinuationSet,
                                SentenceRecord, StoryTrace)

# From 16 on, a BLAS matrix product no longer adds a row's products in the
# order np.dot does, so a fast path built on one shows.
DIMS = (1, 2, 3, 16, 24)
WORDS = ("the", "storm", "door", "night", "river", "Café", "ночь", "北京", "😀")
VARIANTS = st.sampled_from((*KNOWN_VARIANTS, "ключ"))
META = st.dictionaries(st.sampled_from(("corpus", "model", "名前")), st.text(max_size=4),
                       max_size=2)


@st.composite
def continuation_sets(draw, rng: np.random.Generator, d: int) -> ContinuationSet:
    # From 8 samples on, np.sum adds a row pairwise, so leaving out or
    # keeping a zero weight changes the order of the additions.
    k = draw(st.integers(1, 12))
    samples = []
    for _ in range(k):
        if samples and draw(st.booleans()):  # equal samples tie hale_surprise's argmax
            samples.append(samples[draw(st.integers(0, len(samples) - 1))])
        else:
            samples.append(ContinuationSample(rng.standard_normal(d),
                                              raw_score=draw(st.none() | st.floats(-50, 50))))
    probs = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                                         min_size=k, max_size=k)))
        weights[draw(st.integers(0, k - 1))] += 1.0  # at least one positive weight
        probs = weights / weights.sum()
    return ContinuationSet(horizon=draw(st.integers(1, 3)), samples=tuple(samples),
                           probabilities=probs)


@st.composite
def windows(draw, rng: np.random.Generator, size=None):
    """Per-variant vectors: of `size` entries (an embedding), or of 1 to 4
    token log-likelihoods."""
    return {variant: rng.standard_normal(size) if size else -rng.random(draw(st.integers(1, 4)))
            for variant in sorted(draw(st.sets(VARIANTS, max_size=3)))}


@st.composite
def traces(draw, max_sentences: int = 40) -> StoryTrace:
    n = draw(st.integers(1, max_sentences))
    d = draw(st.sampled_from(DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Zero embeddings: mostly on sentences that store their weights, whose
    # curves need no cosine of them; rarely on those that do, which is an error.
    zeros = draw(st.booleans())
    records = []
    for t in range(n):
        cont = draw(st.none() | continuation_sets(rng, d))
        zero = zeros and cont is not None and draw(
            st.booleans() if cont.probabilities is not None else st.integers(0, 7).map(lambda i: i == 0))
        records.append(SentenceRecord(
            index=t,
            embedding=np.zeros(d) if zero else rng.standard_normal(d),
            text=draw(st.none() | st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)),
            avg_log_likelihood=draw(st.none() | st.floats(-8.0, 0.0)),
            window_token_loglikes=draw(st.none() | windows(rng)),
            window_embedding=draw(st.none() | windows(rng, d)),
            sentiment=draw(st.none() | st.floats(-1.0, 1.0)),
            continuations=cont))
    return StoryTrace(story_id="drawn", sentences=tuple(records), embedding_dim=d,
                      meta=draw(META))
