"""Deterministic hashed embeddings and the smoothed n-gram trace builder."""

import hashlib
import json
import math
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storymetrics import baseline
from storymetrics.baseline import (HashEmbedder, NgramLM, _log_quotients, build_trace,
                                   lm_loglik, tokenize)
from storymetrics.model import ValidationError, write_trace
from storymetrics.salience import SalienceConfig, salience_series


# --- embedder ---------------------------------------------------------------------

def test_embed_deterministic():
    embedder = HashEmbedder(dim=8, seed=1)
    np.testing.assert_array_equal(embedder.embed("the quiet harbor"),
                                  embedder.embed("the quiet harbor"))


def test_embed_unit_norm():
    embedder = HashEmbedder(dim=8, seed=1)
    for text in ("a", "a b c", "storm harbor letter storm"):
        assert float(np.linalg.norm(embedder.embed(text))) == pytest.approx(1.0, abs=1e-12)


def test_embed_seed_collision_rate():
    a = HashEmbedder(dim=16, seed=1)
    b = HashEmbedder(dim=16, seed=2)
    collisions = 0
    for i in range(1000):
        text = f"token{i} word{i * 7} item{i * 13}"
        if np.allclose(a.embed(text), b.embed(text)):
            collisions += 1
    assert collisions / 1000 < 0.01


def test_embed_rejects_empty_and_small_dim():
    with pytest.raises(ValidationError):
        HashEmbedder(dim=1)
    with pytest.raises(ValidationError):
        HashEmbedder(dim=8).embed("   ")


def _loop_embed(embedder: HashEmbedder, text: str) -> np.ndarray:
    """The embedding as a per-token loop: each token adds its sign at its
    hashed slot, one scalar at a time (the oracle of embed's bincount)."""
    vec, slots = np.zeros(embedder.dim), []
    for token in text.lower().split():
        digest = hashlib.sha256(f"{embedder.seed}|{token}".encode("utf-8")).digest()
        index = int.from_bytes(digest[:8], "big") % embedder.dim
        vec[index] += 1.0 if digest[8] % 2 == 0 else -1.0
        slots.append(index)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[slots[0]] = 1.0
        norm = 1.0
    return vec / norm


def test_embed_cancelled_tokens_fall_back_to_first_slot():
    # at seed 1 and dim 8, t0 and t2 hash to slot 4 with opposite signs
    embedder = HashEmbedder(dim=8, seed=1)
    assert embedder.embed("t0 t2").tolist() == np.eye(8)[4].tolist()


_TOKENS = st.sampled_from(["t0", "t1", "t2", "T2", "t3", "storm", "Door", "ß"])


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.lists(_TOKENS, min_size=1, max_size=24).flatmap(
           lambda toks: st.permutations(toks + toks[:len(toks) // 2])).map(" ".join),
           min_size=1, max_size=4),
       dim=st.integers(2, 9), seed=st.integers(0, 3))
@example(texts=["t0 t2", "t2 t0 t0", "t0 t2 t0 t2"], dim=8, seed=1)
def test_embed_equals_per_token_loop(texts, dim, seed):
    embedder = HashEmbedder(dim=dim, seed=seed)  # one embedder: its slot table is reused
    for text in texts:
        got, want = embedder.embed(text), _loop_embed(embedder, text)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# --- n-gram language model -----------------------------------------------------------

def _trained(vocab: str, *sentences: str) -> tuple[NgramLM, dict[str, int]]:
    """A bigram LM over the words of `vocab` (ids in that order), trained
    on `sentences` as one chain, and the word -> id map."""
    ids = {word: i for i, word in enumerate(vocab.split())}
    lm = NgramLM(len(ids))
    lm.train([np.array([ids[w] for w in s.split()]) for s in sentences])
    return lm, ids


def _score(lm: NgramLM, ids: dict[str, int], text: str, prev=None) -> list[float]:
    return lm_loglik(np.array([ids[w] for w in text.split()]), lm,
                     None if prev is None else ids[prev])


def test_unigram_add_one_probabilities():
    lm, ids = _trained("a b", "a a b")
    # with no previous token the first token is scored by its unigram count
    assert _score(lm, ids, "a")[0] == pytest.approx(math.log(0.6), abs=1e-12)
    assert lm.unigram_loglik(np.array([ids["a"], ids["b"]])) == pytest.approx(
        [math.log(0.6), math.log(2 / 5)], abs=1e-12)


def test_unseen_token_smoothing():
    lm, ids = _trained("a b c", "a a b")
    # N=3, V=3: an unseen token gets the add-one mass 1/(N+V)
    assert _score(lm, ids, "c")[0] == pytest.approx(math.log(1 / 6), abs=1e-12)


def test_empty_corpus_uniform_with_explicit_vocab():
    lm = NgramLM(2)
    assert lm_loglik(np.array([0]), lm) == pytest.approx([math.log(0.5)], abs=1e-12)


def test_empty_vocabulary_rejected():
    with pytest.raises(ValidationError):
        NgramLM(0)
    with pytest.raises(ValidationError):
        lm_loglik(np.array([], dtype=int), NgramLM(2))


def test_bigram_conditional_probability():
    lm, ids = _trained("a b", "a b a b")
    # c(a->b)=2, c(a as context)=2, V=2
    assert _score(lm, ids, "b", prev="a")[0] == pytest.approx(math.log(3 / 4), abs=1e-12)
    assert _score(lm, ids, "a", prev="a")[0] == pytest.approx(math.log(1 / 4), abs=1e-12)


def test_conditional_probabilities_sum_to_one():
    lm, ids = _trained("a b c", "a b b c a c b a")
    for prev in (None, "a", "b", "c"):
        total = sum(math.exp(_score(lm, ids, tok, prev)[0]) for tok in ids)
        assert total == pytest.approx(1.0, abs=1e-12)


def _index_arrays(lm: NgramLM) -> list[np.ndarray]:
    return [lm.pairs, lm.unigrams.entries, lm.unigrams.begins,
            lm.bigrams.entries, lm.bigrams.begins]


def test_scoring_does_not_mutate_counts():
    lm, ids = _trained("a b other unseen", "a b a b")
    before = [a.copy() for a in _index_arrays(lm)]
    for prev in (None, "a", "b", "unseen"):
        for token in ("a", "b", "other"):
            _score(lm, ids, token, prev)
        lm.unigram_loglik(np.array([ids["a"], ids["other"]]))
    for got, want in zip(_index_arrays(lm), before, strict=True):
        np.testing.assert_array_equal(got, want)
    assert lm.total == 4


def test_lm_loglik_threads_context():
    lm, ids = _trained("a b", "a b a b")
    logliks = _score(lm, ids, "b a", prev="a")
    assert logliks[0] == _score(lm, ids, "b", prev="a")[0]
    assert logliks[1] == _score(lm, ids, "a", prev="b")[0]
    # with no previous token, only the first token falls back to its unigram count
    assert _score(lm, ids, "b a").tolist() == [lm.unigram_loglik(np.array([ids["b"]]))[0],
                                               logliks[1]]


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400)), min_size=1,
                      max_size=40).flatmap(lambda ps: st.permutations(ps + ps[:len(ps) // 2])),
       v=st.integers(1, 400))
@example(pairs=[(2, 2), (2, 2), (0, 1)], v=351)  # 3/353, twice
@example(pairs=[(0, 0), (1, 2), (2, 5), (0, 1)], v=1)  # 1/1, and 1/2 from two pairs
def test_log_quotients_are_math_log_of_each_quotient(pairs, v):
    counts, totals = np.array(pairs, dtype=np.int64).T
    want = [math.log(q) for q in ((counts + 1) / (totals + v)).tolist()]
    got = _log_quotients(counts, totals, v)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()


def test_logprobs_are_math_log_of_the_exact_quotient():
    # 3/353 is a quotient whose np.log is one ulp away from its math.log
    assert np.log(3 / 353) != math.log(3 / 353)
    unigram = NgramLM(351)
    unigram.train([np.array([0, 0])])  # count 2 of 2 tokens, V = 351
    assert lm_loglik(np.array([0]), unigram) == [math.log(3 / 353)]
    bigram = NgramLM(351)
    bigram.train([np.array([0, 0, 0])])  # 0 -> 0 twice, 0 as a context twice
    assert lm_loglik(np.array([0]), bigram, prev=0) == [math.log(3 / 353)]


# --- trace builder ------------------------------------------------------------------

def test_build_trace_minimal_two_sentences():
    embedder = HashEmbedder(dim=4, seed=0)
    trace = build_trace(["the storm came", "the harbor waited"], embedder)
    assert len(trace) == 2
    first = trace.sentences[0]
    assert set(first.window_token_loglikes) == {"base", "deleted", "swapped", "no_knowledge"}
    assert set(first.window_embedding) == {"base", "deleted"}
    # the final sentence has no following window
    assert trace.sentences[1].window_token_loglikes is None


def test_built_windows_iterate_and_are_written_sorted(tmp_path):
    """build_trace holds its variants in KNOWN_VARIANTS order; its records
    and its file give them sorted, as those of a trace that was read."""
    trace = build_trace(["the storm came", "the harbor waited"], HashEmbedder(dim=4, seed=0))
    assert list(trace.columns.win_ll) != sorted(trace.columns.win_ll)
    for name in ("window_token_loglikes", "window_embedding"):
        variants = list(getattr(trace.sentences[0], name))
        assert variants == sorted(variants)
    write_trace(trace, tmp_path / "t.trace")
    record = json.loads((tmp_path / "t.trace").read_text().splitlines()[1])
    assert list(record["win_ll"]) == sorted(record["win_ll"])


def test_build_trace_rejects_short_or_empty():
    embedder = HashEmbedder(dim=4, seed=0)
    with pytest.raises(ValidationError):
        build_trace(["only one"], embedder)
    with pytest.raises(ValidationError):
        build_trace(["fine", "   "], embedder)


def _assert_same_windows(got, want):
    """Per-variant window log-likelihoods, equal value for value."""
    if want is None:
        assert got is None
        return
    assert set(got) == set(want)
    for variant, vals in want.items():
        assert got[variant].tolist() == np.asarray(vals, float).tolist()


def test_build_trace_deterministic():
    embedder = HashEmbedder(dim=8, seed=3)
    sentences = ["storm on the river", "the letter burned", "silence returned again"]
    a = build_trace(sentences, embedder, seed=3)
    b = build_trace(sentences, embedder, seed=3)
    for ra, rb in zip(a.sentences, b.sentences):
        np.testing.assert_array_equal(ra.embedding, rb.embedding)
        _assert_same_windows(ra.window_token_loglikes, rb.window_token_loglikes)
        assert ra.sentiment == rb.sentiment
        np.testing.assert_array_equal(ra.continuations.sample_embeddings() if ra.continuations else np.zeros(1),
                                      rb.continuations.sample_embeddings() if rb.continuations else np.zeros(1))


def test_build_trace_window_capped():
    embedder = HashEmbedder(dim=4, seed=0)
    sentences = ["one two three four", "five six seven eight", "nine ten"]
    trace = build_trace(sentences, embedder, window_tokens=3)
    assert len(trace.sentences[0].window_token_loglikes["base"]) == 3


def test_build_trace_pivot_sentence_dominates_like_salience():
    # the third sentence alone introduces the rare bigrams that dominate its
    # following window; removing it from the conditioning prefix must hurt
    # prediction more than removing any other sentence
    embedder = HashEmbedder(dim=8, seed=0)
    sentences = [
        "the night was calm",
        "a letter arrived",
        "first spoke zarkon vellum zarkon vellum zarkon",
        "vellum zarkon vellum zarkon vellum answered",
        "vellum zarkon vellum kept the secret",
        "the garden gate stood open",
        "rain fell on the river",
    ]
    trace = build_trace(sentences, embedder, window_tokens=24)
    values = salience_series(trace, SalienceConfig(measure="like")).values
    assert int(np.argmax(values)) == 2
    assert values[2] > 0.0
    assert values[2] > max(v for i, v in enumerate(values) if i != 2)


def test_build_trace_continuations_include_true_next():
    embedder = HashEmbedder(dim=6, seed=2)
    sentences = ["storm night", "harbor door", "river fire"]
    trace = build_trace(sentences, embedder, n_continuations=3, seed=2)
    cont = trace.sentences[0].continuations
    np.testing.assert_array_equal(cont.samples[0].embedding, trace.sentences[1].embedding)
    assert len(cont.samples) == 3
    assert trace.sentences[2].continuations is None


def _counted_loglik(prefix, window, prev, vocab_size, unigram=False):
    """Oracle: add-one smoothed log-likelihoods of the tokens `window`
    after counting the token lists `prefix` as one bigram chain, with
    Counters, Python int division and math.log, one token at a time."""
    unigrams, bigrams, contexts = Counter(), Counter(), Counter()
    before = None
    for token in (tok for sent in prefix for tok in sent):
        unigrams[token] += 1
        if before is not None:
            bigrams[before, token] += 1
            contexts[before] += 1
        before = token
    total, out = sum(unigrams.values()), []
    for token in window:
        if unigram or prev is None:
            out.append(math.log((unigrams[token] + 1) / (total + vocab_size)))
        else:
            out.append(math.log((bigrams[prev, token] + 1) / (contexts[prev] + vocab_size)))
        prev = token
    return out


def _retrained_trace(sentences, embedder, window_tokens, n_continuations, seed):
    """Reference: recount every variant's LM from scratch on its prefix."""
    token_sents = [tokenize(s) for s in sentences]
    n = len(sentences)
    v = len({tok for sent in token_sents for tok in sent})
    rng = np.random.default_rng(seed)
    embeddings = [_loop_embed(embedder, s) for s in sentences]

    out = []
    for t in range(n):
        window = [tok for sent in token_sents[t + 1:] for tok in sent][:window_tokens]
        prev = token_sents[t - 1][-1] if t > 0 else None
        avg_ll = float(np.mean(_counted_loglik(token_sents[:t], token_sents[t], prev, v)))
        win_ll = win_emb = None
        if window:
            prefix = token_sents[:t + 1]
            swapped = prefix[:t - 1] + [prefix[t], prefix[t - 1]] if t > 0 else prefix
            win_ll = {
                "base": _counted_loglik(prefix, window, token_sents[t][-1], v),
                "deleted": _counted_loglik(token_sents[:t], window, prev, v),
                "swapped": _counted_loglik(swapped, window, swapped[-1][-1], v),
                "no_knowledge": _counted_loglik(prefix, window, None, v, unigram=True),
            }
            text = " ".join(window)
            win_emb = {"base": _loop_embed(embedder, sentences[t] + " " + text),
                       "deleted": _loop_embed(embedder, text)}
        conts = None
        if t + 1 < n:
            others = [i for i in range(n) if i != t + 1]
            conts = [embeddings[t + 1]] + [
                embeddings[others[int(rng.integers(0, len(others)))]]
                for _ in range(n_continuations - 1)]
        out.append((avg_ll, win_ll, win_emb, conts))
    return out


def _assert_matches_reference(sentences, window_tokens, n_continuations, seed, dim=6):
    embedder = HashEmbedder(dim=dim, seed=seed)
    trace = build_trace(sentences, embedder, window_tokens=window_tokens,
                        n_continuations=n_continuations, seed=seed)
    reference = _retrained_trace(sentences, embedder, window_tokens, n_continuations, seed)
    for rec, (avg_ll, win_ll, win_emb, conts) in zip(trace.sentences, reference, strict=True):
        np.testing.assert_array_equal(rec.embedding, _loop_embed(embedder, rec.text))
        assert rec.avg_log_likelihood == avg_ll
        _assert_same_windows(rec.window_token_loglikes, win_ll)
        if win_emb is None:
            assert rec.window_embedding is None
        else:
            assert set(rec.window_embedding) == set(win_emb)
            for key, vec in win_emb.items():
                np.testing.assert_array_equal(rec.window_embedding[key], vec)
        if conts is None:
            assert rec.continuations is None
        else:
            np.testing.assert_array_equal(rec.continuations.sample_embeddings(),
                                          np.asarray(conts))
    # the trace holds each vector once, in its columns: its records are views
    assert all(np.shares_memory(rec.embedding, trace.columns.embeddings)
               and all(np.shares_memory(s.embedding, trace.columns.samples)
                       for s in (rec.continuations.samples if rec.continuations else ()))
               for rec in trace.sentences)


_WORDS = st.sampled_from(["a", "b", "c", "storm", "door"])
_SENTENCES = st.lists(st.lists(_WORDS, min_size=1, max_size=4).map(" ".join),
                      min_size=2, max_size=9)


@settings(max_examples=150, deadline=None)
@given(sentences=_SENTENCES, window_tokens=st.integers(1, 12),
       n_continuations=st.integers(1, 4), seed=st.integers(0, 3))
@example(sentences=["a", "b"], window_tokens=1, n_continuations=2, seed=0)
@example(sentences=["a a", "a a", "a"], window_tokens=4, n_continuations=3, seed=0)
@example(sentences=["a b", "b a", "a b", "b a"], window_tokens=8, n_continuations=4, seed=1)
@example(sentences=["storm", "door", "storm", "door", "storm"], window_tokens=2,
         n_continuations=4, seed=2)
@example(sentences=["a b c storm", "c b a door", "a"], window_tokens=2,
         n_continuations=1, seed=3)
# a token repeated inside one sentence (a fancy-index += would count it once)
@example(sentences=["storm a storm a a", "a a door", "storm storm"], window_tokens=6,
         n_continuations=2, seed=0)
# swap boundary bigrams the story never contains: "c a" at t = 1, "a c" and "b b" at t = 2
@example(sentences=["a b", "c", "b a", "door"], window_tokens=3, n_continuations=1, seed=1)
# a one-token sentence at t = 1
@example(sentences=["a b c", "storm", "door a", "b"], window_tokens=2, n_continuations=3,
         seed=2)
# windows that run off the story's end
@example(sentences=["a b", "b c", "c storm", "door"], window_tokens=12, n_continuations=4,
         seed=3)
# one-token windows, three sentences to a 3-token block: the swaps at t = 3
# and t = 6 open a block and take t - 1 and t - 2 from the one before
@example(sentences=["a b", "b a", "c", "a c", "b", "c a", "a", "b b"], window_tokens=1,
         n_continuations=2, seed=0)
# windows that end inside a later block
@example(sentences=["a b", "c", "a", "b c", "door storm", "a"], window_tokens=7,
         n_continuations=3, seed=1)
# t = 0 and t = 1 only
@example(sentences=["a a", "a b"], window_tokens=3, n_continuations=1, seed=2)
# at seed 1 and dim 6, "b" and "door" hash to slot 1 with opposite signs, and
# "storm" and "x" to slot 3: sentences, deleted windows and base windows that
# cancel out, and fall back to their first token's slot, not their last's
@example(sentences=["b door", "door b", "a", "b"], window_tokens=2, n_continuations=2,
         seed=1)
@example(sentences=["b door storm x", "storm x b door", "a"], window_tokens=4,
         n_continuations=2, seed=1)
# a final capital sigma (lowercased to ς) ends a sentence, and İ lowercases
# to two code points: window embeddings come from token spans, not from
# re-tokenized text
@example(sentences=["ΟΔΟΣ", "İ a ΑΣ", "b İ", "ΣΑΣ"], window_tokens=3, n_continuations=2,
         seed=0)
def test_build_trace_matches_retrained_reference(sentences, window_tokens,
                                                 n_continuations, seed):
    for block_tokens in (1, 3, baseline._BLOCK_TOKENS):
        with patch.object(baseline, "_BLOCK_TOKENS", block_tokens):
            _assert_matches_reference(sentences, window_tokens, n_continuations, seed)


def test_build_trace_matches_retrained_reference_on_a_long_story():
    # 60 sentences over a power-law vocabulary of 199 words: deep counts and
    # many distinct quotients
    rng = np.random.default_rng(2024)
    lengths = rng.integers(1, 17, size=60)
    weights = 1 / np.arange(1, 401) ** 0.8
    words = [f"w{i}" for i in rng.choice(400, size=lengths.sum(), p=weights / weights.sum())]
    ends = np.cumsum(lengths)
    sentences = [" ".join(words[end - k:end]) for end, k in zip(ends, lengths)]
    assert len(set(words)) == 199
    _assert_matches_reference(sentences, window_tokens=40, n_continuations=4, seed=5, dim=16)


@pytest.mark.parametrize("argument, value", [("window_tokens", 0), ("window_tokens", -2),
                                             ("n_continuations", 0), ("n_continuations", -5)])
def test_build_trace_rejects_sizes_below_one(argument, value):
    with pytest.raises(ValidationError, match=argument):
        build_trace(["the storm came", "the harbor waited"], HashEmbedder(dim=4),
                    **{argument: value})
