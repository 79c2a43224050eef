"""Self-contained deterministic stand-in for the LM backend.

Produces complete traces (embeddings, likelihood windows, manipulation
variants, continuations) from raw sentences so the full pipeline runs
with no external model. A story's tokens are mapped to integer ids once;
the n-gram counts are arrays indexed by id (bigrams sparse, keyed by
`prev * V + token`), and each window is scored as one array expression.
The deleted/swapped variants are small deltas on one set of running
counts, so removing a sentence removes its n-gram evidence for the
following window at a cost linear in story length.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Optional, Sequence

import numpy as np

from .model import (ContinuationSample, ContinuationSet, SentenceRecord,
                    StoryTrace, ValidationError)


def tokenize(text: str) -> list[str]:
    return text.lower().split()


class _SlotTable(dict):
    """token -> signed hash slot of one embedder: the slot index, plus
    `dim` when the token's sign is negative; hashed on first use."""

    def __init__(self, seed: int, dim: int):
        super().__init__()
        self.seed, self.dim = seed, dim

    def __missing__(self, token: str) -> int:
        digest = hashlib.sha256(f"{self.seed}|{token}".encode("utf-8")).digest()
        code = int.from_bytes(digest[:8], "big") % self.dim + digest[8] % 2 * self.dim
        self[token] = code
        return code


@dataclass(frozen=True)
class HashEmbedder:
    """Deterministic hashed bag-of-tokens projection, L2-normalized."""

    dim: int
    seed: int = 0
    _slots: _SlotTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError("embedder dimension must be >= 2")
        object.__setattr__(self, "_slots", _SlotTable(self.seed, self.dim))

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        if not tokens:
            raise ValidationError("cannot embed empty text")
        codes = np.fromiter(map(self._slots.__getitem__, tokens), np.intp, len(tokens))
        signed = np.bincount(codes, minlength=2 * self.dim)
        counts = signed[:self.dim] - signed[self.dim:]
        norm = math.sqrt(counts @ counts)  # exact: the squares are small integers
        if norm == 0.0:
            # opposing tokens cancelled out; fall back to the first token's slot
            counts[codes[0] % self.dim] = 1
            norm = 1.0
        return counts / norm


def _bigrams(tokens: np.ndarray, prev: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """The (contexts, tokens) of the bigrams in a run of token ids that
    follows `prev`; with no `prev` the first token starts none."""
    if prev is None:
        return tokens[:-1], tokens[1:]
    return np.concatenate(([prev], tokens[:-1])), tokens


def _log_quotients(counts: np.ndarray, totals, v: int) -> list[float]:
    """log((c + 1) / (n + v)) per element: one exact division of integer
    arrays, then math.log, which np.log does not match in the last bit."""
    return list(map(math.log, ((counts + 1) / (totals + v)).tolist()))


class NgramLM:
    """Add-one smoothed bigram model over the token ids 0..vocab_size-1.

    Unigram and context counts are arrays indexed by id; bigram counts are
    sparse, keyed by `prev * vocab_size + token`.
    """

    def __init__(self, vocab_size: int):
        if vocab_size < 1:
            raise ValidationError("language model has an empty vocabulary")
        self.vocab_size = vocab_size
        self.unigram_counts = np.zeros(vocab_size, dtype=np.int64)
        self.context_counts = np.zeros(vocab_size, dtype=np.int64)
        self.bigram_counts: Counter = Counter()
        self.total = 0

    def train(self, sentences: Sequence[np.ndarray]) -> None:
        prev: Optional[int] = None
        for tokens in sentences:
            prev = self.add(tokens, prev)

    def add(self, tokens: np.ndarray, prev: Optional[int]) -> int:
        """Count one more sentence of token ids whose first token follows
        `prev`; returns the id the next sentence follows."""
        np.add.at(self.unigram_counts, tokens, 1)
        self.total += len(tokens)
        prevs, nexts = _bigrams(tokens, prev)
        np.add.at(self.context_counts, prevs, 1)
        self.bigram_counts.update((prevs * self.vocab_size + nexts).tolist())
        return int(tokens[-1])

    def unigram_loglik(self, tokens: np.ndarray) -> list[float]:
        return _log_quotients(self.unigram_counts[tokens], self.total, self.vocab_size)


def lm_loglik(tokens: np.ndarray, lm: NgramLM,
              prev: Optional[int] = None) -> list[float]:
    """Per-token conditional log-likelihoods (nats) of an array of token
    ids, each under the token before it; the first under `prev`, or under
    the unigram counts when `prev` is None."""
    if not len(tokens):
        raise ValidationError("cannot score an empty token sequence")
    prevs, nexts = _bigrams(tokens, prev)
    keys = (prevs * lm.vocab_size + nexts).tolist()
    counts = np.fromiter(map(lm.bigram_counts.get, keys, repeat(0)), np.int64, len(keys))
    head = lm.unigram_loglik(tokens[:1]) if prev is None else []
    return head + _log_quotients(counts, lm.context_counts[prevs], lm.vocab_size)


def _pseudo_sentiment(text: str, seed: int) -> float:
    digest = hashlib.sha256(f"{seed}|sent|{text}".encode("utf-8")).digest()
    raw = int.from_bytes(digest[:4], "big") % 2001
    return (raw - 1000) / 1000.0


def build_trace(sentences: Sequence[str], embedder: HashEmbedder,
                window_tokens: int = 128, n_continuations: int = 4,
                seed: int = 0, story_id: str = "synthetic") -> StoryTrace:
    """Fully populated, deterministic trace for a story.

    The reader model is incremental: the window after sentence t is scored
    under a bigram LM whose counts come from the prefix through t (base),
    the prefix with t removed (deleted) or swapped with its predecessor
    (swapped), or the unigram view of the base counts (no_knowledge). All
    variants share the full-story vocabulary so smoothing denominators stay
    comparable. One running count store is the deleted model before t is
    added and the base model after; the swapped model differs from the base
    only in the boundary bigrams around t-1 and t, changed then restored.
    Tokens are mapped to ids once, and `lm_loglik` scores each window (and
    each sentence, for avg_ll) as arrays.
    """
    if window_tokens < 1:
        raise ValidationError(f"window_tokens must be >= 1, got {window_tokens}")
    if n_continuations < 1:
        raise ValidationError(f"n_continuations must be >= 1, got {n_continuations}")
    if len(sentences) < 2:
        raise ValidationError("variant windows need at least 2 sentences")
    token_sents = [tokenize(s) for s in sentences]
    if any(not t for t in token_sents):
        raise ValidationError("sentences must be non-empty")
    n = len(sentences)
    flat = [tok for sent in token_sents for tok in sent]
    vocab: dict[str, int] = {}
    ids = np.array([vocab.setdefault(tok, len(vocab)) for tok in flat])
    ends = list(accumulate(len(sent) for sent in token_sents))
    starts = [0] + ends[:-1]
    first = [vocab[sent[0]] for sent in token_sents]
    last = [vocab[sent[-1]] for sent in token_sents]
    rng = np.random.default_rng(seed)
    embeddings = [embedder.embed(s) for s in sentences]
    lm = NgramLM(len(vocab))

    def shift_bigrams(delta, sign: int) -> None:
        for prev, token, step in delta:
            lm.bigram_counts[prev * len(vocab) + token] += sign * step
            lm.context_counts[prev] += sign * step

    records = []
    for t in range(n):
        window = ids[ends[t]:ends[t] + window_tokens]
        sent_tokens = ids[starts[t]:ends[t]]
        prev_of_sentence = last[t - 1] if t > 0 else None
        avg_ll = float(np.mean(lm_loglik(sent_tokens, lm, prev=prev_of_sentence)))
        deleted = lm_loglik(window, lm, prev=prev_of_sentence) if len(window) else None
        lm.add(sent_tokens, prev_of_sentence)

        win_ll = win_emb = None
        if len(window):
            base = lm_loglik(window, lm, prev=last[t])
            swapped = base
            if t > 0:
                # ... S(t-2) S(t-1) S(t) becomes ... S(t-2) S(t) S(t-1)
                delta = [(last[t - 1], first[t], -1), (last[t], first[t - 1], 1)]
                if t > 1:
                    delta += [(last[t - 2], first[t - 1], -1), (last[t - 2], first[t], 1)]
                shift_bigrams(delta, 1)
                swapped = lm_loglik(window, lm, prev=last[t - 1])
                shift_bigrams(delta, -1)
            win_ll = {
                "base": base,
                "deleted": deleted,
                "swapped": swapped,
                "no_knowledge": lm.unigram_loglik(window),
            }
            window_text = " ".join(flat[ends[t]:ends[t] + window_tokens])
            win_emb = {
                "base": embedder.embed(sentences[t] + " " + window_text),
                "deleted": embedder.embed(window_text),
            }

        continuations = None
        if t + 1 < n:
            sample_embs = [embeddings[t + 1]]
            for _ in range(n_continuations - 1):
                k = int(rng.integers(0, n - 1))  # an index other than t + 1
                sample_embs.append(embeddings[k if k < t + 1 else k + 1])
            continuations = ContinuationSet(
                horizon=1,
                samples=tuple(ContinuationSample(embedding=e) for e in sample_embs),
            )

        records.append(SentenceRecord(
            index=t,
            embedding=embeddings[t],
            text=sentences[t],
            avg_log_likelihood=avg_ll,
            window_token_loglikes=win_ll,
            window_embedding=win_emb,
            sentiment=_pseudo_sentiment(sentences[t], seed),
            continuations=continuations,
        ))
    return StoryTrace(story_id=story_id, sentences=tuple(records),
                      embedding_dim=embedder.dim,
                      meta={"source": "baseline-provider", "seed": str(seed)})
