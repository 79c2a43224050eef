"""Seeded input generator for the storymetrics benchmark.

Every file the program reads during a benchmark run is written here, from
the workload seed alone: the same seed gives byte-identical files. The
generator does not import storymetrics, so a change to the program cannot
change its own inputs.

Inputs per workload:

- build: plain-text stories of 100, 200 and 400 sentences, one sentence
  per line, for the bundled provider.
- corpus: 16 traces of 200 sentences, each with a 3-annotator ``.ann``
  file, a turning-point gold file and a salience gold file over 10% of
  the sentences.
- longform: one 1600-sentence chapter trace, a 160-sentence summary trace
  whose embeddings are noisy copies of every 10th chapter sentence, and a
  500-passage knowledgebase file.

Traces use the file format documented in the storymetrics README.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

VOCAB_SIZE = 2000
ZIPF_EXPONENT = 1.05
MIN_TOKENS, MAX_TOKENS = 5, 15
DIM = 64
WINDOW_TOKENS = 128
N_CONTINUATIONS = 4
POOL = 4096
VARIANTS = ("base", "deleted", "no_knowledge", "swapped")
JUDGMENTS = ("BD", "D", "S", "I", "BI")

BUILD_SIZES = (100, 200, 400)
CORPUS_STORIES, CORPUS_SENTENCES = 16, 200
CHAPTER_SENTENCES, SUMMARY_EVERY = 1600, 10
KB_PASSAGES = 500

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "sh", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


class Language:
    """A Zipf-distributed vocabulary of made-up words."""

    def __init__(self, rng: np.random.Generator):
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < VOCAB_SIZE:
            n_syll = int(rng.integers(1, 4))
            word = "".join(_ONSETS[int(rng.integers(len(_ONSETS)))]
                           + _VOWELS[int(rng.integers(len(_VOWELS)))]
                           for _ in range(n_syll))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        weights = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT
        self.probs = weights / weights.sum()

    def sentences(self, rng: np.random.Generator, n: int) -> list[str]:
        # The seed permutes a fixed multiset of lengths, so every seed gives
        # the same token count and the work per pass does not vary by seed.
        lengths = rng.permutation(np.resize(np.arange(MIN_TOKENS, MAX_TOKENS + 1), n))
        ids = rng.choice(VOCAB_SIZE, size=int(lengths.sum()), p=self.probs)
        out, pos = [], 0
        for length in lengths:
            out.append(" ".join(self.words[i] for i in ids[pos:pos + length]))
            pos += length
        return out


def _embedding_walk(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit embeddings that drift slowly, so neighbours are similar."""
    steps = rng.normal(size=(n, DIM))
    walk = np.empty((n, DIM))
    walk[0] = steps[0]
    for t in range(1, n):
        walk[t] = 0.8 * walk[t - 1] + 0.6 * steps[t]
    return _unit(walk)


def _header(story_id: str, seed: int) -> str:
    return _dump({"story_id": story_id, "embedding_dim": DIM,
                  "meta": {"provider": "perfbench", "seed": str(seed)}})


def _pool(values: np.ndarray) -> list[str]:
    return [repr(v) for v in values.tolist()]


def _trace_lines(rng: np.random.Generator, seed: int, story_id: str, sentences: list[str],
                 emb: np.ndarray) -> list[str]:
    """Sentence embeddings are exact, so alignment and retrieval see the
    intended structure. Windows and continuations hold most of a trace's
    numbers, and formatting a float costs about a microsecond, so they
    draw pre-formatted values from pools of POOL numbers."""
    n = len(sentences)
    n_tokens = np.array([len(s.split()) for s in sentences])
    tokens_after = np.cumsum(n_tokens[::-1])[::-1] - n_tokens
    ll_pool = _pool(-rng.gamma(2.0, 2.0, size=POOL))
    vec_pool = _pool(rng.normal(size=POOL) / np.sqrt(DIM))

    def vectors(pool: list[str], rows: int, width: int) -> list[str]:
        picks = rng.integers(POOL, size=(rows, width)).tolist()
        return ["[" + ",".join(map(pool.__getitem__, row)) + "]" for row in picks]

    lines = [_header(story_id, seed)]
    for t in range(n):
        parts = [_dump({"index": t, "text": sentences[t], "e": emb[t].tolist(),
                        "avg_ll": -float(rng.uniform(3.0, 8.0)),
                        "sentiment": float(rng.uniform(-1.0, 1.0))})[:-1]]
        width = int(min(WINDOW_TOKENS, tokens_after[t]))
        if width:
            win_ll = vectors(ll_pool, len(VARIANTS), width)
            parts.append('"win_ll":{' + ",".join(f'"{v}":{x}' for v, x in zip(VARIANTS, win_ll))
                         + "}")
            base, deleted = vectors(vec_pool, 2, DIM)
            parts.append(f'"win_emb":{{"base":{base},"deleted":{deleted}}}')
        if t + 1 < n:
            samples = vectors(vec_pool, N_CONTINUATIONS, DIM)
            parts.append('"cont":{"n":1,"samples":['
                         + ",".join(f'{{"e":{e}}}' for e in samples) + "]}")
        lines.append(",".join(parts) + "}")
    return lines


def _write(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _annotation_lines(rng: np.random.Generator, story_id: str, n: int) -> list[str]:
    latent = np.cumsum(rng.normal(size=n))
    lines = [_dump({"story_id": story_id})]
    for a in range(3):
        noisy = np.diff(latent + rng.normal(0.0, 0.5, size=n), prepend=latent[0])
        bins = np.digitize(noisy, (-1.0, -0.3, 0.3, 1.0))
        lines.append(f"annotator_{a + 1}\t" + " ".join(JUDGMENTS[b] for b in bins))
    return lines


def _tp_gold_lines(rng: np.random.Generator, n: int) -> list[str]:
    anchors = np.array((0.1, 0.3, 0.5, 0.75, 0.9)) * (n - 1)
    positions = np.clip(np.round(anchors + rng.normal(0.0, 0.02 * n, size=5)), 0, n - 1)
    return [_dump({"kind": "turning_points"})] + [str(int(p)) for p in positions]


def _salience_gold_lines(rng: np.random.Generator, n: int) -> list[str]:
    chosen = np.sort(rng.choice(n, size=n // 10, replace=False))
    return [_dump({"kind": "salience"}), " ".join(str(int(i)) for i in chosen)]


def generate_build(out: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    lang = Language(rng)
    stories = {}
    for n in BUILD_SIZES:
        path = out / f"story_{n}.txt"
        _write(path, lang.sentences(rng, n))
        stories[f"story_{n}"] = path
    return {"stories": stories}


def generate_corpus(out: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    lang = Language(rng)
    ids = [f"story_{i:02d}" for i in range(CORPUS_STORIES)]
    for story_id in ids:
        n = CORPUS_SENTENCES
        _write(out / f"{story_id}.trace",
               _trace_lines(rng, seed, story_id, lang.sentences(rng, n), _embedding_walk(rng, n)))
        _write(out / f"{story_id}.ann", _annotation_lines(rng, story_id, n))
        _write(out / f"{story_id}_tp.txt", _tp_gold_lines(rng, n))
        _write(out / f"{story_id}_gold.txt", _salience_gold_lines(rng, n))
    return {"story_ids": ids}


def generate_longform(out: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    lang = Language(rng)
    n = CHAPTER_SENTENCES
    sentences = lang.sentences(rng, n)
    emb = _embedding_walk(rng, n)
    _write(out / "chapter.trace", _trace_lines(rng, seed, "chapter", sentences, emb))

    picked = np.arange(0, n, SUMMARY_EVERY)
    summary_emb = _unit(emb[picked] + 0.5 * rng.normal(size=(picked.size, DIM)) / np.sqrt(DIM))
    lines = [_header("summary", seed)]
    lines += [_dump({"index": i, "text": sentences[t], "e": summary_emb[i].tolist()})
              for i, t in enumerate(picked)]
    _write(out / "summary.trace", lines)

    anchors = rng.choice(n, size=KB_PASSAGES, replace=False)
    keys = _unit(emb[anchors] + rng.normal(size=(KB_PASSAGES, DIM)) / np.sqrt(DIM))
    lines = [_dump({"dim": DIM})]
    lines += [_dump({"id": f"kb-{j:04d}", "source": "kb", "key": keys[j].tolist(),
                     "payload": sentences[int(anchors[j])]})
              for j in range(KB_PASSAGES)]
    _write(out / "kb.passages", lines)
    return {"queries": emb, "texts": sentences, "kb_keys": keys}


GENERATORS = {"build": generate_build, "corpus": generate_corpus,
              "longform": generate_longform}


def generate(workload: str, out: Path, seed: int) -> dict:
    """Write the workload's inputs under ``out`` and return what the
    benchmark needs to drive them (paths, ids, retrieval queries)."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](out, seed)
