"""Self-contained deterministic stand-in for the LM backend.

Produces complete traces (embeddings, likelihood windows, manipulation
variants, continuations) from raw sentences so the full pipeline runs
with no external model. A story's tokens are mapped to integer ids once,
and the n-gram model is a prefix-count index over that id stream: any
count over the first L tokens is one binary search. So every variant's
counts (the prefix through a sentence, the prefix without it, and the
prefix with it swapped, which differs from the first in four boundary
bigrams) are read straight off one index, and the sentences are scored
and embedded in blocks, as arrays over token spans.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import (KNOWN_VARIANTS, Columns, StoryTrace, ValidationError, Windows, _distinct,
                    _run_sums, _trace_of, each_distinct)


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


def _spans(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The positions start..stop-1 of every span, concatenated in order."""
    lengths = stops - starts
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


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

    def codes(self, tokens: Sequence[str]) -> np.ndarray:
        """The signed slot of each token."""
        return np.fromiter(map(self._slots.__getitem__, tokens), np.intp, len(tokens))

    def embed_spans(self, codes: np.ndarray, starts: np.ndarray,
                    stops: np.ndarray) -> np.ndarray:
        """One row per non-empty span codes[start:stop] of signed slots: each
        token adds its sign at its slot, and the row is L2-normalized."""
        d2 = 2 * self.dim
        rows = np.repeat(np.arange(len(starts)), stops - starts)
        signed = np.bincount(rows * d2 + codes[_spans(starts, stops)],
                             minlength=len(starts) * d2).reshape(-1, d2)
        counts = signed[:, :self.dim] - signed[:, self.dim:]
        norms = np.sqrt((counts * counts).sum(axis=1))  # exact: small integers
        # opposing tokens cancelled out; fall back to the span's first slot
        cancelled = np.flatnonzero(norms == 0.0)
        counts[cancelled, codes[starts[cancelled]] % self.dim] = 1
        norms[cancelled] = 1.0
        return counts / norms[:, None]

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        if not tokens:
            raise ValidationError("cannot embed empty text")
        return self.embed_spans(self.codes(tokens), np.array([0]), np.array([len(tokens)]))[0]


def _log_quotients(counts: np.ndarray, totals: np.ndarray, v: int) -> np.ndarray:
    """log((c + 1) / (n + v)) per element: one exact division of integer
    arrays, then math.log, which np.log does not match in the last bit,
    once per distinct quotient."""
    return each_distinct(math.log, (counts + 1) / (totals + v), float)


class _PrefixCounts:
    """Entries (key, position) sorted as `key * stride + position`, with
    stride above every position, so that the entries of a key among the
    first L positions are those below `key * stride + L`."""

    def __init__(self, keys: np.ndarray, positions: np.ndarray, n_keys: int, stride: int):
        self.stride = stride
        self.entries = np.sort(keys * stride + positions)
        # where each key's entries begin
        per_key = np.bincount(keys, minlength=n_keys)
        self.begins = np.cumsum(per_key) - per_key

    def count(self, keys: np.ndarray, upto: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.entries, keys * self.stride + upto) - self.begins[keys]


class NgramLM:
    """Add-one smoothed bigram model over the token ids 0..vocab_size-1,
    as a prefix-count index over the id stream it was trained on.

    A token's position is its place in the stream, a bigram's that of its
    second token; a bigram's key is its rank in `pairs`, the sorted
    distinct `prev * vocab_size + token` of the stream. So every count is
    of the first L tokens of the stream, for any L.
    """

    def __init__(self, vocab_size: int):
        if vocab_size < 1:
            raise ValidationError("language model has an empty vocabulary")
        self.vocab_size = vocab_size
        self._index(np.zeros(0, np.int64))

    def train(self, sentences: Sequence[np.ndarray]) -> None:
        """Index the token ids of `sentences`, read as one chain, in place
        of whatever was indexed before."""
        self._index(np.concatenate([np.zeros(0, np.int64), *sentences], dtype=np.int64))

    def _index(self, stream: np.ndarray) -> None:
        self.total = len(stream)
        keys = stream[:-1] * self.vocab_size + stream[1:]
        # the end sentinel keeps every key's insertion point inside the array
        self.pairs = _distinct(np.append(keys, self.vocab_size ** 2))
        positions = np.arange(self.total)
        self.unigrams = _PrefixCounts(stream, positions, self.vocab_size, self.total + 1)
        self.bigrams = _PrefixCounts(np.searchsorted(self.pairs, keys), positions[1:],
                                     len(self.pairs), self.total + 1)

    def counts(self, contexts: np.ndarray, tokens: np.ndarray,
               upto) -> tuple[np.ndarray, np.ndarray]:
        """Over the first `upto` tokens of the stream: the count of each
        bigram (context, token) and of its context's bigrams, or where the
        context is -1, the token's count and `upto`."""
        unigram = contexts < 0
        # a context starts as many bigrams as it has tokens, bar the last
        seen = self.unigrams.count(np.where(unigram, tokens, contexts),
                                   np.where(unigram, upto, np.maximum(upto - 1, 0)))
        keys = contexts * self.vocab_size + tokens
        pair = np.searchsorted(self.pairs, keys)
        bigram = np.where(self.pairs[pair] == keys, self.bigrams.count(pair, upto), 0)
        return np.where(unigram, seen, bigram), np.where(unigram, upto, seen)

    def unigram_loglik(self, tokens: np.ndarray) -> np.ndarray:
        return lm_loglik(tokens, self, np.full(len(tokens), -1))


def lm_loglik(tokens: np.ndarray, lm: NgramLM, prev=None, upto=None,
              shift=(0, 0)) -> np.ndarray:
    """Per-token conditional log-likelihoods (nats) of an array of token ids.

    As one row: each token under the token before it, the first under
    `prev` (or under the unigram counts when `prev` is None), all under
    every count of the stream `lm` indexes. As a block: `prev` is an array
    of each token's context (-1: the unigram count), `upto` the length of
    the stream prefix each token is scored under, and `shift` the changes
    to each token's bigram and context counts.
    """
    if not len(tokens):
        raise ValidationError("cannot score an empty token sequence")
    if np.ndim(prev) == 0:
        prev = np.concatenate(([-1 if prev is None else prev], tokens[:-1]))
    counts, totals = lm.counts(prev, tokens, lm.total if upto is None else upto)
    return _log_quotients(counts + shift[0], totals + shift[1], lm.vocab_size)


def _pseudo_sentiment(text: str, seed: int) -> float:
    digest = hashlib.sha256(f"{seed}|sent|{text}".encode("utf-8")).digest()
    raw = int.from_bytes(digest[:4], "big") % 2001
    return (raw - 1000) / 1000.0


# Sentences are scored and embedded in blocks whose windows hold at most
# this many tokens. Smaller blocks pay numpy's per-call cost more often,
# larger ones keep larger temporaries: the three 100- to 400-sentence
# stories of perfbench's `build` (128-token windows) were built in 191,
# 156, 135, 142 and 146 ms at 512, 1024, 2048, 4096 and 8192 (medians of
# 12 alternating runs; 2-core VM, Python 3.11, numpy 2.4).
_BLOCK_TOKENS = 2048


def build_trace(sentences: Sequence[str], embedder: HashEmbedder,
                window_tokens: int = 128, n_continuations: int = 4,
                seed: int = 0, story_id: str = "synthetic") -> StoryTrace:
    """Fully populated, deterministic trace for a story.

    The reader model is incremental: the window after sentence t is scored
    under a bigram LM whose counts come from the prefix through t (base),
    the prefix with t removed (deleted) or swapped with its predecessor
    (swapped), or the unigram view of the base counts (no_knowledge). All
    variants share the full-story vocabulary so smoothing denominators stay
    comparable. One index of the story's id stream gives the counts of
    every prefix; the swapped counts are the base counts plus the changes
    to the boundary bigrams around t-1 and t. Each block of sentences is
    scored by one `lm_loglik` call, and its sentence and window embeddings
    come from one `embed_spans` call over token spans. The results are
    written into the trace's columns, in which each block's sentences and
    windows are runs; its sentences are records built on first use.
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
    vocab: dict[str, int] = {}
    ids = np.array([vocab.setdefault(tok, len(vocab)) for sent in token_sents for tok in sent])
    lm = NgramLM(len(vocab))
    lm.train([ids])
    codes = embedder.codes(list(vocab))[ids]
    ends = np.cumsum([len(sent) for sent in token_sents])
    starts = np.concatenate(([0], ends[:-1]))
    first, last = ids[starts], ids[ends - 1]

    has = ends < len(ids)  # only the story's last sentence has no window
    widths = np.minimum(ends + window_tokens, len(ids)) - ends
    embeddings, avg_lls = np.empty((n, embedder.dim)), np.empty(n)
    win_ll = {variant: np.empty(int(widths.sum())) for variant in KNOWN_VARIANTS}
    win_emb = {variant: np.empty((int(has.sum()), embedder.dim)) for variant in ("base", "deleted")}
    at = w_at = 0  # where the block's windows and window embeddings start in their columns
    step = max(1, _BLOCK_TOKENS // window_tokens)
    for b in range(0, n, step):
        t = np.arange(b, min(b + step, n))
        lo, hi = starts[t], ends[t]
        stop = np.minimum(hi + window_tokens, len(ids))  # window t is ids[hi:stop]
        sent, win = _spans(lo, hi), _spans(hi, stop)
        row = np.repeat(np.arange(len(t)), stop - hi)  # each window token's t
        window, chained = ids[win], ids[win - 1]  # window tokens, their story contexts
        opens = win == hi[row]
        # the deleted and swapped windows open after S(t-1); for t = 0 the
        # deleted one opens the story and the swapped one is the base one
        before = np.where(t > 0, last[t - 1], -1)
        swapped = np.where(opens, np.where(t > 0, before, last[t])[row], chained)
        # ... S(t-2) S(t-1) S(t) becomes ... S(t-2) S(t) S(t-1): these four
        # bigrams are taken out (-1) or put in (+1)
        pm, pmm = np.maximum(t - 1, 0), np.maximum(t - 2, 0)
        bigram_shift = context_shift = 0
        for p, x, sign, live in ((last[pm], first[t], -1, t > 0), (last[t], first[pm], 1, t > 0),
                                 (last[pmm], first[pm], -1, t > 1), (last[pmm], first[t], 1, t > 1)):
            hit = sign * ((swapped == p[row]) & live[row])
            context_shift = context_shift + hit
            bigram_shift = bigram_shift + hit * (window == x[row])
        # sentences, then the base, deleted, swapped and no_knowledge windows
        unshifted = np.zeros(len(sent) + 2 * len(win), np.int64)
        scores = lm_loglik(
            np.concatenate([ids[sent], np.tile(window, 4)]), lm,
            np.concatenate([np.where(sent > 0, ids[sent - 1], -1), chained,
                            np.where(opens, before[row], chained), swapped,
                            np.full(len(win), -1)]),
            np.concatenate([np.repeat(lo, hi - lo), hi[row], lo[row], hi[row], hi[row]]),
            (np.concatenate([unshifted, bigram_shift, unshifted[:len(win)]]),
             np.concatenate([unshifted, context_shift, unshifted[:len(win)]])))
        avg_lls[t] = _run_sums(scores, hi - lo) / (hi - lo)  # each as np.mean gives it
        for k, variant in enumerate(KNOWN_VARIANTS):
            win_ll[variant][at:at + len(win)] = scores[len(sent) + k * len(win):][:len(win)]
        at += len(win)
        windowed = stop > hi
        rows = embedder.embed_spans(codes, np.concatenate([lo, lo[windowed], hi[windowed]]),
                                    np.concatenate([hi, stop[windowed], stop[windowed]]))
        embeddings[t] = rows[:len(t)]
        for variant, block in zip(("base", "deleted"), np.split(rows[len(t):], 2)):
            win_emb[variant][w_at:w_at + len(block)] = block
        w_at += int(windowed.sum())

    rng = np.random.default_rng(seed)
    chosen = []  # each set's samples: the next sentence's embedding, then others at random
    for t in range(n - 1):
        chosen.append(t + 1)
        for _ in range(n_continuations - 1):
            k = int(rng.integers(0, n - 1))  # an index other than t + 1
            chosen.append(k if k < t + 1 else k + 1)
    win_rows, present = np.flatnonzero(has), np.ones(n, bool)
    columns = Columns(
        0, embeddings, tuple(sentences), avg_lls, present,
        np.array([_pseudo_sentiment(text, seed) for text in sentences]), present,
        has, {variant: Windows(win_rows, values, widths[has]) for variant, values in win_ll.items()},
        has, {variant: Windows(win_rows, values, np.full(len(win_rows), embedder.dim))
              for variant, values in win_emb.items()},
        np.where(np.arange(n) < n - 1, n_continuations, 0), (1,) * (n - 1) + (0,),
        np.zeros(n, bool), embeddings[chosen], np.zeros(len(chosen)), np.zeros(len(chosen), bool),
        np.empty(0))
    return _trace_of(story_id, columns, embedder.dim,
                     {"source": "baseline-provider", "seed": str(seed)})
