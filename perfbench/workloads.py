"""The benchmark's three workloads.

Each workload prepares once (imports and a small warm-up, after the
inputs are generated) and then runs timed passes. A pass returns one `Op`
per operation: one CLI command, one story built or one retrieval query.
The timed region of a pass runs from its first call into storymetrics to
its last output written; digests and checks happen after it.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import gen

EMBED_DIM = 64
WINDOW_TOKENS = 128
# The CLI's default metrics and salience measures, fixed here so that a
# change of defaults does not silently change the workload.
METRICS = ("ely_surprise,ely_suspense,alpha_ely_suspense,hale_surprise,"
           "sample_ely_suspense,embedding_similarity")
MEASURES = "like,swap,know_diff,emb_surp,emb_sal,clus"
# k_kb = k_mem = z, so retrieve's merged list is the exact top z of the
# KB plus the cache, which the brute-force check recomputes.
RETRIEVAL_K = 8
CACHE_CAPACITY = 128
CHECK_EVERY = 50  # every 50th retrieval query is checked by brute force
CLI_TIMEOUT_S = 170


@dataclass
class Op:
    name: str
    error: Optional[str] = None
    outputs: tuple[Path, ...] = ()  # files this op wrote
    result: Optional[tuple] = None  # in-memory result (retrieval)

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.outputs):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        if self.result is not None:
            h.update(repr(self.result).encode())
        return h.hexdigest()


class Cli:
    """Runs a storymetrics command as a fresh `python -m storymetrics.cli`
    process, or in this process through `cli.main`."""

    def __init__(self, in_process: bool):
        self.in_process = in_process

    def __call__(self, name: str, argv: list[str], outputs: list[Path]) -> Op:
        argv = [str(a) for a in argv]
        stderr = ""
        if self.in_process:
            from storymetrics import cli
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # a traceback is a failed op, not a crash
                return Op(name, error=f"raised {exc!r}")
        else:
            try:
                proc = subprocess.run([sys.executable, "-m", "storymetrics.cli", *argv],
                                      capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return Op(name, error=f"no exit within {CLI_TIMEOUT_S} s")
            code, stderr = proc.returncode, proc.stderr.strip()
        if code != 0:
            return Op(name, error=f"exit code {code}: {stderr[-500:]}")
        missing = [p.name for p in outputs if not p.is_file()]
        if missing:
            return Op(name, error=f"missing outputs {missing}")
        return Op(name, outputs=tuple(outputs))


class Workload:
    name: str
    sentences_per_pass: int

    def prepare(self, inputs: dict, seed: int, cli: Cli) -> None:
        """Imports and warm-up, timed once as part of set-up."""

    def run(self, out: Path, cli: Cli) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Mark ops whose in-memory results are wrong (files are checked
        by digest)."""


class Build(Workload):
    """The bundled provider: build_trace then write_trace, per story."""

    name = "build"
    sentences_per_pass = sum(gen.BUILD_SIZES)

    def prepare(self, inputs: dict, seed: int, cli: Cli) -> None:
        from storymetrics import baseline, model  # noqa: F401  (import cost is set-up)
        self.seed = seed
        self.stories = {sid: path.read_text(encoding="utf-8").splitlines()
                        for sid, path in inputs["stories"].items()}
        first = next(iter(self.stories.values()))
        baseline.build_trace(first[:10], baseline.HashEmbedder(dim=EMBED_DIM, seed=seed),
                             window_tokens=WINDOW_TOKENS, seed=seed)

    def run(self, out: Path, cli: Cli) -> list[Op]:
        from storymetrics import baseline, model
        embedder = baseline.HashEmbedder(dim=EMBED_DIM, seed=self.seed)
        ops = []
        for story_id, sentences in self.stories.items():
            path = out / f"{story_id}.trace"
            try:
                trace = baseline.build_trace(sentences, embedder, window_tokens=WINDOW_TOKENS,
                                             seed=self.seed, story_id=story_id)
                model.write_trace(trace, path)
            except Exception as exc:
                ops.append(Op(story_id, error=f"raised {exc!r}"))
            else:
                ops.append(Op(story_id, outputs=(path,)))
        return ops


class Corpus(Workload):
    """Batch CLI scoring: analyze, three evaluate modes and plot over 16
    traces."""

    name = "corpus"
    sentences_per_pass = gen.CORPUS_STORIES * gen.CORPUS_SENTENCES

    def prepare(self, inputs: dict, seed: int, cli: Cli) -> None:
        self.dir = inputs["dir"]
        self.ids = inputs["story_ids"]
        if cli.in_process:
            import storymetrics.cli  # noqa: F401  (import cost is set-up)
            return
        # Compiles the package's bytecode and loads the interpreter, numpy
        # and scipy into the page cache, as a user's earlier runs would.
        warm = cli("warm-up", ["--help"], [])
        if warm.error is not None:
            raise RuntimeError(f"warm-up failed: {warm.error}")

    def run(self, out: Path, cli: Cli) -> list[Op]:
        d, ids = self.dir, self.ids
        traces = [d / f"{s}.trace" for s in ids]
        curves = [out / "curves" / f"{s}.csv" for s in ids]
        ev = out / "eval"

        def repeat(flag, paths):
            return [a for p in paths for a in (flag, p)]

        ops = [cli("analyze", ["analyze", *repeat("--trace", traces), "--metrics", METRICS,
                               "--measures", MEASURES, "--out", out / "curves"], curves)]
        ops.append(cli("evaluate-suspense", [
            "evaluate", *curves, "--mode", "suspense",
            *repeat("--annotations", [d / f"{s}.ann" for s in ids]),
            "--out", ev / "suspense.csv"], [ev / "suspense.csv"]))
        ops.append(cli("evaluate-turning-points", [
            "evaluate", *curves, "--mode", "turning-points",
            *repeat("--gold", [d / f"{s}_tp.txt" for s in ids]),
            "--out", ev / "turning_points.csv"], [ev / "turning_points.csv"]))
        ops.append(cli("evaluate-salience", [
            "evaluate", *curves, "--mode", "salience",
            *repeat("--gold", [d / f"{s}_gold.txt" for s in ids]),
            *repeat("--trace", traces),
            "--out", ev / "salience.csv"], [ev / "salience.csv"]))
        ops.append(cli("plot", ["plot", *curves, "--gold", d / f"{ids[0]}_gold.txt",
                                "--out", out / "plots"],
                       [out / "plots" / f"{s}.svg" for s in ids]))
        return ops


class Longform(Workload):
    """One 1600-sentence chapter: analyze, align, evaluate salience, then
    a retrieval stream over a KB and an episodic memory cache."""

    name = "longform"
    sentences_per_pass = gen.CHAPTER_SENTENCES

    def prepare(self, inputs: dict, seed: int, cli: Cli) -> None:
        import storymetrics.cli  # noqa: F401  (import cost is set-up)
        from storymetrics import retrieval
        self.dir = inputs["dir"]
        self.queries = inputs["queries"]
        self.texts = inputs["texts"]
        self.kb_keys = inputs["kb_keys"]
        self.kb = retrieval.read_passages(self.dir / "kb.passages")

    def run(self, out: Path, cli: Cli) -> list[Op]:
        from storymetrics import retrieval
        d = self.dir
        chapter, summary = d / "chapter.trace", d / "summary.trace"
        curve = out / "curves" / "chapter.csv"
        gold = out / "align" / "chapter_gold.txt"
        ops = [
            cli("analyze", ["analyze", "--trace", chapter, "--measures", MEASURES,
                            "--out", out / "curves"], [curve]),
            cli("align", ["align", "--trace", summary, "--trace", chapter,
                          "--out", out / "align"],
                [gold, out / "align" / "chapter_report.csv"]),
            cli("evaluate-salience", ["evaluate", curve, "--mode", "salience",
                                      "--gold", gold, "--trace", chapter,
                                      "--out", out / "salience.csv"],
                [out / "salience.csv"]),
        ]
        cache = retrieval.MemoryCache(CACHE_CAPACITY, "LRU")
        for i, query in enumerate(self.queries):
            name = f"query-{i:04d}"
            try:
                merged, weights = retrieval.retrieve(query, self.kb, cache,
                                                     RETRIEVAL_K, RETRIEVAL_K, RETRIEVAL_K)
                cache.add(retrieval.Passage(id=f"mem-{i:04d}", key=query, payload=self.texts[i],
                                            source="memory", position=i))
            except Exception as exc:
                ops.append(Op(name, error=f"raised {exc!r}"))
                continue
            ops.append(Op(name, result=(tuple(p.id for p, _ in merged),
                                        tuple(s for _, s in merged), tuple(weights))))
        return ops

    def check(self, ops: list[Op]) -> None:
        """Every CHECK_EVERY-th query against a brute-force scan of the KB
        plus the cache contents, which under LRU with distinct ids are the
        last CACHE_CAPACITY queries. Ties order by score, then KB before
        memory, then id, as the retrieval module documents."""
        queries = [op for op in ops if op.name.startswith("query-")]
        for i in range(0, len(queries), CHECK_EVERY):
            op = queries[i]
            if op.error is not None:
                continue
            q = self.queries[i]
            lo = max(0, i - CACHE_CAPACITY)
            hits = [(-float(s), 0, f"kb-{j:04d}") for j, s in enumerate(self.kb_keys @ q)]
            hits += [(-float(s), 1, f"mem-{lo + j:04d}")
                     for j, s in enumerate(self.queries[lo:i] @ q)]
            best = sorted(hits)[:RETRIEVAL_K]
            ids, scores, weights = op.result
            want = np.array([-h[0] for h in best])
            want_w = np.exp(want - want.max())
            if (list(ids) != [h[2] for h in best]
                    or not np.allclose(scores, want, rtol=1e-9, atol=1e-12)
                    or not np.allclose(weights, want_w / want_w.sum(), rtol=1e-9, atol=1e-12)):
                op.error = "differs from the brute-force top-z"


WORKLOADS = {"build": Build, "corpus": Corpus, "longform": Longform}
