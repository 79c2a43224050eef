"""Deterministic hashed embeddings and the smoothed n-gram trace builder."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storymetrics.baseline import (HashEmbedder, NgramLM, build_trace,
                                   lm_loglik, tokenize)
from storymetrics.model import ValidationError
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


# --- n-gram language model -----------------------------------------------------------

def test_unigram_add_one_probabilities():
    lm = NgramLM(order=1)
    lm.train([tokenize("a a b")])
    assert lm.token_logprob("a") == pytest.approx(math.log(0.6), abs=1e-12)
    assert lm.token_logprob("b") == pytest.approx(math.log(2 / 5), abs=1e-12)


def test_unseen_token_smoothing():
    lm = NgramLM(order=1)
    lm.train([tokenize("a a b")])
    # N=3, V=2: unseen mass is 1/(N+V)
    assert lm.token_logprob("c") == pytest.approx(math.log(1 / 5), abs=1e-12)


def test_empty_corpus_uniform_with_explicit_vocab():
    lm = NgramLM(order=1, vocabulary={"a", "b"})
    assert lm.token_logprob("a") == pytest.approx(math.log(0.5), abs=1e-12)


def test_empty_vocabulary_rejected():
    lm = NgramLM(order=1)
    with pytest.raises(ValidationError):
        lm.token_logprob("a")


def test_bigram_conditional_probability():
    lm = NgramLM(order=2)
    lm.train([tokenize("a b a b")])
    # c(a->b)=2, c(a as context)=2, V=2
    assert lm.token_logprob("b", prev="a") == pytest.approx(math.log(3 / 4), abs=1e-12)
    assert lm.token_logprob("a", prev="a") == pytest.approx(math.log(1 / 4), abs=1e-12)


def test_conditional_probabilities_sum_to_one():
    lm = NgramLM(order=2)
    lm.train([tokenize("a b b c a c b a")])
    for prev in (None, "a", "b", "c"):
        total = sum(math.exp(lm.token_logprob(tok, prev)) for tok in sorted(lm.vocabulary))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_scoring_does_not_mutate_counts():
    lm = NgramLM(order=2)
    lm.train([tokenize("a b a b")])
    bigrams = {k: dict(v) for k, v in lm.bigram_counts.items()}
    contexts = dict(lm.context_counts)
    for prev in ("a", "b", "unseen"):
        for token in ("a", "b", "other"):
            lm.token_logprob(token, prev)
    assert {k: dict(v) for k, v in lm.bigram_counts.items()} == bigrams
    assert dict(lm.context_counts) == contexts


def test_lm_loglik_threads_context():
    lm = NgramLM(order=2)
    lm.train([tokenize("a b a b")])
    logliks = lm_loglik(tokenize("b a"), lm, prev="a")
    assert logliks[0] == pytest.approx(lm.token_logprob("b", prev="a"))
    assert logliks[1] == pytest.approx(lm.token_logprob("a", prev="b"))


def test_oov_sentence_is_invisible_to_training():
    # a sentence whose tokens fall outside the fixed vocabulary contributes no
    # counts, so deleting it cannot change window likelihood: Like-Sal is 0
    vocab = {"x", "y"}
    window = tokenize("x y x y")
    base_lm = NgramLM(order=1, vocabulary=vocab)
    base_lm.train([tokenize("x y"), tokenize("q q q")])
    deleted_lm = NgramLM(order=1, vocabulary=vocab)
    deleted_lm.train([tokenize("x y")])
    assert lm_loglik(window, base_lm) == lm_loglik(window, deleted_lm)


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


def _retrained_trace(sentences, embedder, window_tokens, n_continuations, seed):
    """Reference: retrain every variant's LM from scratch on its prefix."""
    token_sents = [tokenize(s) for s in sentences]
    n = len(sentences)
    vocab = {tok for sent in token_sents for tok in sent}
    rng = np.random.default_rng(seed)
    embeddings = [embedder.embed(s) for s in sentences]

    def trained(prefix, order=2):
        lm = NgramLM(order=order, vocabulary=vocab)
        lm.train(prefix)
        return lm

    out = []
    for t in range(n):
        window = [tok for sent in token_sents[t + 1:] for tok in sent][:window_tokens]
        prev = token_sents[t - 1][-1] if t > 0 else None
        avg_ll = float(np.mean(lm_loglik(token_sents[t], trained(token_sents[:t]), prev=prev)))
        win_ll = win_emb = None
        if window:
            prefix = token_sents[:t + 1]
            swapped = prefix[:t - 1] + [prefix[t], prefix[t - 1]] if t > 0 else prefix
            win_ll = {
                "base": tuple(lm_loglik(window, trained(prefix), prev=token_sents[t][-1])),
                "deleted": tuple(lm_loglik(window, trained(token_sents[:t]), prev=prev)),
                "swapped": tuple(lm_loglik(window, trained(swapped), prev=swapped[-1][-1])),
                "no_knowledge": tuple(lm_loglik(window, trained(prefix, order=1))),
            }
            text = " ".join(window)
            win_emb = {"base": embedder.embed(sentences[t] + " " + text),
                       "deleted": embedder.embed(text)}
        conts = None
        if t + 1 < n:
            others = [i for i in range(n) if i != t + 1]
            conts = [embeddings[t + 1]] + [
                embeddings[others[int(rng.integers(0, len(others)))]]
                for _ in range(max(0, n_continuations - 1))]
        out.append((avg_ll, win_ll, win_emb, conts))
    return out


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
def test_build_trace_matches_retrained_reference(sentences, window_tokens,
                                                 n_continuations, seed):
    embedder = HashEmbedder(dim=6, seed=seed)
    trace = build_trace(sentences, embedder, window_tokens=window_tokens,
                        n_continuations=n_continuations, seed=seed)
    reference = _retrained_trace(sentences, embedder, window_tokens, n_continuations, seed)
    for rec, (avg_ll, win_ll, win_emb, conts) in zip(trace.sentences, reference):
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
