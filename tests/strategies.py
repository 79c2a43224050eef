"""Hypothesis strategies for valid storymetrics inputs.

`traces()` draws the structure of a trace: its length and dimension, its
meta, which optional fields each sentence carries (window log-likelihoods
and embeddings under known and other variant keys among them), sample
counts, horizons and scores, duplicate samples, stored probabilities (with
zeros), zero embeddings, and text with non-ASCII words. The vectors, and
the choices that depend on a drawn value (which sample a duplicate repeats,
the stored weights, the window lengths), come from a numpy generator
seeded by a drawn integer, so that long traces of wide vectors stay cheap
to draw.

`series_columns()` draws the named float columns of a series CSV.

`annotation_sets()`, `gold_labels()` and `passage_stores()` draw the
contents of the other line files: annotators with any names a line can
hold, salience index sets (the empty one too) and turning points with and
without windows, and passages of every field, with the float keys that
series_columns draws.

`line_mutants(lines)` gives every one-token change of a line file, and
every file with one line dropped or duplicated.
"""

import re

import numpy as np
from hypothesis import strategies as st

from storymetrics.model import (KNOWN_VARIANTS, AnnotationSet, ContinuationSample,
                                ContinuationSet, GoldLabels, Judgment, SentenceRecord,
                                StoryTrace)
from storymetrics.retrieval import Passage, PassageStore

# From 16 on, a BLAS matrix product no longer adds a row's products in the
# order np.dot does, so a fast path built on one shows.
DIMS = (1, 2, 3, 16, 24)
WORDS = ("the", "storm", "door", "night", "river", "Café", "ночь", "北京", "😀")
VARIANTS = st.sampled_from((*KNOWN_VARIANTS, "ключ"))
META = st.dictionaries(st.sampled_from(("corpus", "model", "名前")), st.text(max_size=4),
                       max_size=2)


# Strategies that depend on no drawn value are built once, here: building
# one inside every draw cost more than drawing from it.
SCORES = st.none() | st.floats(-50, 50)
TEXTS = st.none() | st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)
AVG_LLS = st.none() | st.floats(-8.0, 0.0)
SENTIMENTS = st.none() | st.floats(-1.0, 1.0)
VARIANT_SETS = st.sets(VARIANTS, max_size=3)
WEIGHTS = (0.0, 0.25, 1.0, 3.0)


def _continuation_set(draw, rng: np.random.Generator, d: int) -> ContinuationSet:
    """A continuation set, drawn inside a composite strategy: the choices
    that depend on a drawn value come from `rng`."""
    # From 8 samples on, np.sum adds a row pairwise, so leaving out or
    # keeping a zero weight changes the order of the additions.
    k = draw(st.integers(1, 12))
    samples = []
    for _ in range(k):
        if samples and rng.random() < 0.5:  # equal samples tie hale_surprise's argmax
            samples.append(samples[rng.integers(len(samples))])
        else:
            samples.append(ContinuationSample(rng.standard_normal(d), raw_score=draw(SCORES)))
    probs = None
    if draw(st.booleans()):
        weights = rng.choice(WEIGHTS, k)
        weights[rng.integers(k)] += 1.0  # at least one positive weight
        probs = weights / weights.sum()
    return ContinuationSet(horizon=draw(st.integers(1, 3)), samples=tuple(samples),
                           probabilities=probs)


def _windows(draw, rng: np.random.Generator, size=None) -> dict:
    """Per-variant vectors, drawn inside a composite strategy: of `size`
    entries (an embedding), or of 1 to 4 token log-likelihoods."""
    return {variant: rng.standard_normal(size) if size else -rng.random(rng.integers(1, 5))
            for variant in sorted(draw(VARIANT_SETS))}


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
        cont = _continuation_set(draw, rng, d) if draw(st.booleans()) else None
        zero = zeros and cont is not None and (
            draw(st.booleans()) if cont.probabilities is not None
            else draw(st.integers(0, 7)) == 0)
        records.append(SentenceRecord(
            index=t,
            embedding=np.zeros(d) if zero else rng.standard_normal(d),
            text=draw(TEXTS),
            avg_log_likelihood=draw(AVG_LLS),
            window_token_loglikes=_windows(draw, rng) if draw(st.booleans()) else None,
            window_embedding=_windows(draw, rng, d) if draw(st.booleans()) else None,
            sentiment=draw(SENTIMENTS),
            continuations=cont))
    return StoryTrace(story_id="drawn", sentences=tuple(records), embedding_dim=d,
                      meta=draw(META))


# any character a series name may hold: not the separator or a line end
SERIES_NAMES = st.text(
    st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)), min_size=1,
    max_size=8).filter(lambda name: name.strip() and name != "sentence")
# finite floats, with the signed zeros, the smallest subnormals and the
# largest floats drawn often
FINITE = (st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                           -1.7976931348623157e308))
          | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def series_columns(draw) -> dict[str, np.ndarray]:
    """1 to 3 distinct series names, each with a column of 1 to 50 finite floats."""
    names = draw(st.lists(SERIES_NAMES, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 50))
    return {name: np.array(draw(st.lists(FINITE, min_size=n, max_size=n))) for name in names}


# text a line file can hold: no surrogate, which UTF-8 cannot encode
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
# an annotator name: no tab, which ends it, and no line end
ANNOTATORS = st.text(st.characters(blacklist_characters="\t\r\n",
                                   blacklist_categories=("Cs",)), max_size=6)


@st.composite
def annotation_sets(draw) -> AnnotationSet:
    """1 to 4 annotators, each with the same number (1 to 12) of judgments."""
    n = draw(st.integers(1, 12))
    judgments = st.lists(st.sampled_from(Judgment), min_size=n, max_size=n).map(tuple)
    return AnnotationSet(story_id=draw(TEXT), annotators=draw(
        st.dictionaries(ANNOTATORS, judgments, min_size=1, max_size=4)))


@st.composite
def gold_labels(draw) -> GoldLabels:
    """A salience index set, or 5 turning-point positions with or without
    windows around them (a window may start below 0)."""
    if draw(st.booleans()):
        return GoldLabels(kind="salience",
                          salient_indices=draw(st.frozensets(st.integers(0, 10**6))))
    positions = draw(st.lists(st.integers(0, 1000), min_size=5, max_size=5))
    windows = None
    if draw(st.booleans()):
        windows = [(p - draw(st.integers(0, 3)), p + draw(st.integers(0, 3))) for p in positions]
    return GoldLabels(kind="turning_points", tp_positions=tuple(positions),
                      tp_windows=windows and tuple(windows))


@st.composite
def passage_stores(draw) -> PassageStore:
    """0 to 5 passages of one key dimension (1 to 6), each with or without
    a position and a token distribution (zeros among its weights)."""
    dim = draw(st.integers(1, 6))
    passages = []
    for _ in range(draw(st.integers(0, 5))):
        dist = None
        if draw(st.booleans()):
            weights = np.array(draw(st.lists(st.sampled_from(WEIGHTS), min_size=1, max_size=5)))
            weights[draw(st.integers(0, len(weights) - 1))] += 1.0  # a positive weight
            dist = weights / weights.sum()
        passages.append(Passage(
            id=draw(TEXT), key=np.array(draw(st.lists(FINITE, min_size=dim, max_size=dim))),
            payload=draw(TEXT), source=draw(st.sampled_from(("kb", "memory"))),
            position=draw(st.none() | st.integers(0, 2**63)), token_dist=dist))
    return PassageStore(dim=dim, passages=passages)


# what line_mutants puts in place of one token; the last is an integer too
# large for a float
TOKEN_MUTANTS = ("x", "", "-1", "1.5", "1e999", "nan", "1" + "0" * 400)


def line_mutants(lines: list[str]):
    """(case, lines) for `lines` with one token (a run of characters other
    than white space, commas and JSON punctuation) replaced by each of
    TOKEN_MUTANTS, and with one line dropped or duplicated."""
    for at, line in enumerate(lines):
        for token in re.finditer(r'[^\s,"{}:\[\]]+', line):
            for value in TOKEN_MUTANTS:
                changed = line[:token.start()] + value + line[token.end():]
                yield (f"line {at + 1}: {token.group()!r} -> {value!r:.12}",
                       lines[:at] + [changed] + lines[at + 1:])
        yield f"line {at + 1} dropped", lines[:at] + lines[at + 1:]
        yield f"line {at + 1} duplicated", lines[:at + 1] + lines[at:]
