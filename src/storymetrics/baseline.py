"""Self-contained deterministic stand-in for the LM backend.

Produces complete traces (embeddings, likelihood windows, manipulation
variants, continuations) from raw sentences so the full pipeline runs
with no external model. The deleted/swapped variants are small deltas on
one set of running n-gram counts, so removing a sentence removes its n-gram
evidence for the following window at a cost linear in story length.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .model import (ContinuationSample, ContinuationSet, SentenceRecord,
                    StoryTrace, ValidationError)


def tokenize(text: str) -> list[str]:
    return text.lower().split()


@lru_cache(maxsize=1 << 16)  # bounded memo: a story reuses a small vocabulary
def _token_slot(seed: int, dim: int, token: str) -> tuple[int, float]:
    digest = hashlib.sha256(f"{seed}|{token}".encode("utf-8")).digest()
    index = int.from_bytes(digest[:8], "big") % dim
    sign = 1.0 if digest[8] % 2 == 0 else -1.0
    return index, sign


@dataclass(frozen=True)
class HashEmbedder:
    """Deterministic hashed bag-of-tokens projection, L2-normalized."""

    dim: int
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError("embedder dimension must be >= 2")

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        if not tokens:
            raise ValidationError("cannot embed empty text")
        vec = np.zeros(self.dim)
        for token in tokens:
            index, sign = _token_slot(self.seed, self.dim, token)
            vec[index] += sign
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            # opposing tokens cancelled out; fall back to the first token's slot
            index, _ = _token_slot(self.seed, self.dim, tokens[0])
            vec[index] = 1.0
            norm = 1.0
        return vec / norm


class NgramLM:
    """Add-one smoothed unigram or bigram model.

    With an explicit vocabulary, out-of-vocabulary tokens are not counted
    during training and score as unseen events.
    """

    def __init__(self, order: int = 2, vocabulary: Optional[set[str]] = None,
                 add_one: bool = True):
        if order not in (1, 2):
            raise ValidationError("order must be 1 or 2")
        self.order = order
        self.add_one = add_one
        self._explicit_vocab = vocabulary is not None
        self.vocabulary: set[str] = set(vocabulary) if vocabulary else set()
        self.unigram_counts: Counter = Counter()
        self.bigram_counts: defaultdict = defaultdict(Counter)
        self.context_counts: Counter = Counter()
        self.total = 0

    def train(self, sentences: Sequence[Sequence[str]]) -> None:
        prev: Optional[str] = None
        for tokens in sentences:
            prev = self.add(tokens, prev)

    def add(self, tokens: Sequence[str], prev: Optional[str]) -> Optional[str]:
        """Count one more sentence whose first token follows `prev`;
        returns the token the next sentence follows."""
        for token in tokens:
            if self._explicit_vocab and token not in self.vocabulary:
                prev = None
                continue
            if not self._explicit_vocab:
                self.vocabulary.add(token)
            self.unigram_counts[token] += 1
            self.total += 1
            if self.order == 2 and prev is not None:
                self.bigram_counts[prev][token] += 1
                self.context_counts[prev] += 1
            prev = token
        return prev

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def token_logprob(self, token: str, prev: Optional[str] = None) -> float:
        v = self.vocab_size
        if v == 0:
            raise ValidationError("language model has an empty vocabulary")
        if not self.add_one:
            if self.order == 1 or prev is None:
                c, n = self.unigram_counts[token], self.total
            else:
                c, n = self.bigram_counts.get(prev, {}).get(token, 0), self.context_counts[prev]
            if c == 0 or n == 0:
                raise ValidationError(f"zero probability for token {token!r} without smoothing")
            return math.log(c / n)
        if self.order == 1 or prev is None or self._oov(prev):
            return math.log((self.unigram_counts[token] + 1) / (self.total + v))
        # .get: indexing the defaultdict would insert a key for an unseen prev
        return math.log((self.bigram_counts.get(prev, {}).get(token, 0) + 1)
                        / (self.context_counts[prev] + v))

    def _oov(self, token: str) -> bool:
        return self._explicit_vocab and token not in self.vocabulary


def lm_loglik(tokens: Sequence[str], lm: NgramLM,
              prev: Optional[str] = None) -> list[float]:
    """Per-token conditional log-likelihoods (nats), threading the
    previous token through the sequence."""
    if not tokens:
        raise ValidationError("cannot score an empty token sequence")
    out = []
    for token in tokens:
        out.append(lm.token_logprob(token, prev))
        prev = token
    return out


def _pseudo_sentiment(text: str, seed: int) -> float:
    digest = hashlib.sha256(f"{seed}|sent|{text}".encode("utf-8")).digest()
    raw = int.from_bytes(digest[:4], "big") % 2001
    return (raw - 1000) / 1000.0


def build_trace(sentences: Sequence[str], embedder: HashEmbedder,
                window_tokens: int = 128, n_continuations: int = 4,
                seed: int = 0, story_id: str = "synthetic") -> StoryTrace:
    """Fully populated, deterministic trace for a story.

    The reader model is incremental: the window after sentence t is scored
    under an n-gram LM whose counts come from the prefix through t (base),
    the prefix with t removed (deleted) or swapped with its predecessor
    (swapped), or the unigram view of the base counts (no_knowledge). All
    variants share the full-story vocabulary so smoothing denominators stay
    comparable. One running count store is the deleted model before t is
    added and the base model after; the swapped model differs from the base
    only in the boundary bigrams around t-1 and t, changed then restored.
    """
    if len(sentences) < 2:
        raise ValidationError("variant windows need at least 2 sentences")
    token_sents = [tokenize(s) for s in sentences]
    if any(not t for t in token_sents):
        raise ValidationError("sentences must be non-empty")
    n = len(sentences)
    flat = [tok for sent in token_sents for tok in sent]
    ends = list(accumulate(len(sent) for sent in token_sents))
    first = [sent[0] for sent in token_sents]
    last = [sent[-1] for sent in token_sents]
    rng = np.random.default_rng(seed)
    embeddings = [embedder.embed(s) for s in sentences]
    lm = NgramLM(order=2, vocabulary=set(flat))

    def shift_bigrams(delta, sign: int) -> None:
        for prev, token, step in delta:
            lm.bigram_counts[prev][token] += sign * step
            lm.context_counts[prev] += sign * step

    records = []
    for t in range(n):
        window = flat[ends[t]:ends[t] + window_tokens]
        sent_tokens = token_sents[t]
        prev_of_sentence = last[t - 1] if t > 0 else None
        avg_ll = float(np.mean(lm_loglik(sent_tokens, lm, prev=prev_of_sentence)))
        deleted = tuple(lm_loglik(window, lm, prev=prev_of_sentence)) if window else None
        lm.add(sent_tokens, prev_of_sentence)

        win_ll = win_emb = None
        if window:
            base = tuple(lm_loglik(window, lm, prev=last[t]))
            swapped = base
            if t > 0:
                # ... S(t-2) S(t-1) S(t) becomes ... S(t-2) S(t) S(t-1)
                delta = [(last[t - 1], first[t], -1), (last[t], first[t - 1], 1)]
                if t > 1:
                    delta += [(last[t - 2], first[t - 1], -1), (last[t - 2], first[t], 1)]
                shift_bigrams(delta, 1)
                swapped = tuple(lm_loglik(window, lm, prev=last[t - 1]))
                shift_bigrams(delta, -1)
            win_ll = {
                "base": base,
                "deleted": deleted,
                "swapped": swapped,
                "no_knowledge": tuple(lm.token_logprob(tok) for tok in window),
            }
            window_text = " ".join(window)
            win_emb = {
                "base": embedder.embed(sentences[t] + " " + window_text),
                "deleted": embedder.embed(window_text),
            }

        continuations = None
        if t + 1 < n:
            sample_embs = [embeddings[t + 1]]
            for _ in range(max(0, n_continuations - 1)):
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
