"""Command-line front end: analyze traces into metric CSVs, evaluate
predictions against annotations or gold labels, align summaries to full
text, plot curves as SVG, and run a fully synthetic demo pipeline.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 degenerate
statistics.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread, unless the user set a count. The commands run in
# parallel through forked processes, and forking with a live BLAS pool is a
# known hazard. The largest matrix products (align's and clus's on a
# 1,600-sentence chapter, 160 x 64 by 64 x 1,600) gain no wall time from a
# pool, whose threads spin and cost CPU in every process: on a 2-vCPU VM,
# medians of 8 fresh processes each, one thread against two cut the CPU of
# `import storymetrics.cli` from 0.32 to 0.20 s, of align on that chapter
# from 0.86 to 0.72 s and of analyze from 1.86 to 1.75 s. numpy reads the
# variable when it is first imported, which is below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Not used here. perfbench's traced run patches cli.ThreadPoolExecutor and
# fails with a KeyError when the name is missing.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from functools import cache, partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import alignment, annotation, baseline, evaluation, salience, suspense, svgplot
from .model import (AnnotationSet, DegenerateStatisticsError, GoldLabels, Judgment,
                    MetricSeries, ParseError, StoryTrace, ValidationError, _Faults,
                    _entry_line, _map, _write_lines, content_lines, read_annotations,
                    read_gold, read_trace, write_annotations, write_gold, write_trace)

DEFAULT_METRICS = ("ely_surprise", "ely_suspense", "alpha_ely_suspense",
                   "hale_surprise", "sample_ely_suspense", "embedding_similarity")
DEFAULT_MEASURES = ("like", "swap", "know_diff", "emb_surp", "emb_sal", "clus")


# the errors main() reports with an exit code
_USER_ERRORS = (ValidationError, DegenerateStatisticsError, OSError)


def _write_series_csv(path, columns: dict[str, np.ndarray]) -> None:
    cells = [map(float.__repr__, np.asarray(col, float).tolist()) for col in columns.values()]
    lines = ["sentence," + ",".join(columns)]
    lines.extend(f"{i},{','.join(row)}" for i, row in enumerate(zip(*cells)))
    _write_lines(path, lines)


def read_series_csv(path) -> dict[str, np.ndarray]:
    """The named columns of a series CSV. The data rows are checked as whole
    columns; a faulty file raises the error of its first faulty line."""
    lines = content_lines(path)
    head_no, head = next(lines, (None, None))
    if head is None:
        raise ValidationError(f"{path}: empty series CSV")
    header = head.split(",")
    if header[0] != "sentence" or len(header) < 2:
        raise ValidationError(f"{path} line {head_no}: expected header 'sentence,<series...>'")
    for j, name in enumerate(header):
        if not name.strip() or name in header[:j]:
            fault = "duplicate" if name.strip() else "empty"
            raise ValidationError(f"{path} line {head_no}: {fault} column name {name!r}")
    nos, texts, unreadable = [], [], None
    try:
        for no, text in lines:
            nos.append(no)
            texts.append(text)
    except ParseError as exc:  # a fault of its line, after those of the lines read
        unreadable = exc
    width, f = len(header) - 1, _Faults(len(texts))
    f.check((text.count(",") != width for text in texts), lambda k: "wrong column count")
    cells = ",".join(texts[:f.end]).split(",") if f.end else []
    ids = cells[::width + 1]
    del cells[::width + 1]
    f.check((cell.strip() != str(row) for row, cell in enumerate(ids)),
            lambda k: f"sentence {ids[k]!r} in row {k}")
    del cells[f.end * width:]
    try:
        values = np.array(list(map(float, cells)))
    except ValueError:
        f.check(map(_not_a_float, cells), lambda k: str(_not_a_float(cells[k])),
                np.arange(len(cells)) // width)
        values = np.array(list(map(float, cells[:f.end * width])))
    values = values.reshape(f.end, width)
    f.check(~np.isfinite(values).all(axis=1), lambda k: f"non-finite value in {texts[k]!r}")
    if f.message is not None:
        raise ValidationError(f"{path} line {nos[f.end]}: {f.message}")
    if unreadable is not None:
        raise unreadable
    if not texts:
        raise ValidationError(f"{path}: series CSV has no data rows")
    return {name: values[:, j] for j, name in enumerate(header[1:])}


def _not_a_float(cell: str) -> Optional[ValueError]:
    """The error float() raises on `cell`, or None."""
    try:
        float(cell)
    except ValueError as exc:
        return exc
    return None


def _columns(trace: StoryTrace, metrics: Sequence[str], measures: Sequence[str],
             cfg: suspense.MetricConfig, seed: int, zscore: bool) -> tuple[str, dict]:
    """The trace's story_id and its analyze columns."""
    cols = {name: suspense.metric_series(trace, name, cfg).values for name in metrics}
    for measure in measures:
        scfg = salience.SalienceConfig(measure=measure, rng_seed=seed)
        cols[measure] = salience.salience_series(trace, scfg).values
    if zscore:
        cols = {name: annotation.zscore(MetricSeries(name, vals)).values
                for name, vals in cols.items()}
    return trace.story_id, cols


def _job(read, score, paths: tuple):
    """score(read(*paths)) for one story's input files. A reading error is
    raised, so _map raises the first in input order; a scoring error is
    returned, prefixed with paths[0] and, if it is about one sentence, that
    sentence's line there, for the caller to raise after every story is read."""
    inputs = read(*paths)
    try:
        return score(inputs)
    except _USER_ERRORS as exc:
        where, sentence = paths[0], getattr(exc, "sentence", None)
        if sentence is not None:
            where = f"{where} line {_entry_line(where, lambda j, _: j == sentence)[0]}"
        return type(exc)(f"{where}: {exc}")


def analyze(trace_paths: Sequence, out_dir, metrics: Sequence[str],
            measures: Sequence[str], cfg: suspense.MetricConfig, seed: int,
            zscore: bool) -> list[dict[str, np.ndarray]]:
    """Write `<story_id>.csv` per trace file into out_dir: one column per
    metric, then one per salience measure (seeded by `seed`), all z-scored
    if asked. Returns the columns, in trace order. Every trace is read
    before any error of a computation is reported."""
    score = partial(_columns, metrics=metrics, measures=measures, cfg=cfg, seed=seed,
                    zscore=zscore)
    results = _map(partial(_job, read_trace, score), [(path,) for path in trace_paths])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        if isinstance(result, Exception):
            raise result
    outs = _outputs(trace_paths, [out_dir / f"{story_id}.csv" for story_id, _ in results])
    for out, (_, cols) in zip(outs, results):
        _write_series_csv(out, cols)
    return [cols for _, cols in results]


def _outputs(inputs: Sequence, outs: list) -> list:
    """`outs`, the file each of `inputs` writes; two inputs that would write
    one file are refused, naming both."""
    writer = {}
    for path, out in zip(inputs, outs):
        if out in writer:
            raise ValidationError(f"{writer[out]} and {path} would both write {out}")
        writer[out] = path
    return outs


def cmd_analyze(args) -> int:
    metrics = [m for m in args.metrics.split(",") if m]
    measures = [m for m in args.measures.split(",") if m]
    if not metrics and not measures:
        metrics = list(DEFAULT_METRICS)
    cfg = suspense.MetricConfig(distance=suspense.DistanceKind(args.distance))
    analyze(args.trace, args.out, metrics, measures, cfg, args.seed, args.zscore)
    return 0


RESULT_HEADER = ("story_id,measure,tau,rho,tau_lo,tau_hi,rho_lo,rho_hi,"
                 "tp_distance,map,recall_at_k,rouge_l,n")


def _result_line(story_id: str, measure: str, values: dict) -> str:
    """One row of the results table: each float by float.__repr__, n as an
    integer, and an absent value empty."""
    cells = (repr(float(values[key])) if key in values else ""
             for key in RESULT_HEADER.split(",")[2:-1])
    return ",".join([story_id, measure, *cells, str(values["n"])])


def _fisher_bounds(name: str, r: float, n: int) -> dict:
    """The 95% Fisher interval of the correlation `name`, or {} where it is undefined."""
    if n > 3 and -1.0 < r < 1.0:
        lo, hi = evaluation.fisher_ci(r, n, 0.95)
        return {f"{name}_lo": lo, f"{name}_hi": hi}
    return {}


def _eval_suspense(pred: dict[str, np.ndarray], annotations: AnnotationSet,
                   *_) -> list[tuple[str, dict]]:
    n = annotations.length
    results = annotation.pairwise_correlations(
        [MetricSeries(name, values) for name, values in pred.items()], annotations)
    rows = [(name, {"tau": r.tau, "rho": r.rho, **_fisher_bounds("tau", r.tau, n),
                    **_fisher_bounds("rho", r.rho, n), "n": n})
            for name, r in zip(pred, results)]
    human = annotation.human_upper_bound(annotations)
    return rows + [("human_upper_bound", {"tau": human.tau, "rho": human.rho, "n": n})]


def _derive_windows(gold: GoldLabels, n: int) -> list[tuple[int, int]]:
    if gold.tp_windows is not None:
        return list(gold.tp_windows)
    half = max(1, round(0.1 * n))
    return [(max(0, p - half), min(n - 1, p + half)) for p in gold.tp_positions]


def _eval_turning_points(pred: dict[str, np.ndarray], gold: GoldLabels,
                         *_) -> list[tuple[str, dict]]:
    rows = []
    for name, values in pred.items():
        n = values.shape[0]
        windows = _derive_windows(gold, n)
        peaks = evaluation.find_peaks(values)
        assigned = evaluation.assign_turning_points(peaks, windows)
        dist = evaluation.tp_distance([a.index for a in assigned], gold.tp_positions, n)
        rows.append((name, {"tp_distance": dist, "n": n}))
    return rows


def _eval_salience(pred: dict[str, np.ndarray], gold: GoldLabels,
                   trace: Optional[StoryTrace], k: Optional[int]) -> list[tuple[str, dict]]:
    gold_tokens = None  # ROUGE-L needs every sentence's text; each is tokenized once, if read
    if trace is not None and None not in trace.columns.text:
        tokens = cache(lambda i: baseline.tokenize(trace.columns.text[i]))
        gold_tokens = [tok for i in sorted(gold.salient_indices) for tok in tokens(i)]
    rows = []
    for name, values in pred.items():
        series = MetricSeries(name, values)
        row = {"map": evaluation.average_precision(series, gold),
               "recall_at_k": evaluation.recall_at_k(series, gold, k), "n": values.shape[0]}
        if gold_tokens:
            order = evaluation._descending_ranking(values)[:k or len(gold.salient_indices)]
            pred_tokens = [tok for i in sorted(order) for tok in tokens(i)]
            if pred_tokens:
                row["rouge_l"] = evaluation.rouge_l(pred_tokens, gold_tokens)
        rows.append((name, row))
    return rows


def _aggregate_rows(rows: list[tuple]) -> list[tuple]:
    """The ALL row of each measure, in name order: the mean of each value
    over the story rows (story_id, measure, values) that have it, and their count n."""
    by_measure: dict[str, list[dict]] = {}
    for _, measure, values in rows:
        by_measure.setdefault(measure, []).append(values)
    agg = []
    for measure in sorted(by_measure):
        group = by_measure[measure]
        means = {field: np.mean(vals) for field in ("tau", "rho", "tp_distance", "map",
                                                     "recall_at_k", "rouge_l")
                 if (vals := [values[field] for values in group if field in values])}
        agg.append(("ALL", measure, {**means, "n": len(group)}))
    return agg


def _evaluation_mode(mode: str) -> tuple:
    """(options the mode reads, the reference-file option first; loader;
    required gold kind; per-story scorer). Built per call, so the readers
    are looked up when the command runs."""
    return {
        "suspense": (("--annotations",), read_annotations, None, _eval_suspense),
        "turning-points": (("--gold",), read_gold, "turning_points", _eval_turning_points),
        "salience": (("--gold", "--trace", "--k"), read_gold, "salience", _eval_salience),
    }[mode]


def _read_story(mode: str, pred_path, ref_path, trace_path) -> tuple:
    """One story's prediction columns, reference and trace (or None), each
    checked against the others."""
    _, load, gold_kind, _ = _evaluation_mode(mode)
    pred = read_series_csv(pred_path)
    ref = load(ref_path)
    if gold_kind is not None and ref.kind != gold_kind:
        raise ValidationError(f"{mode} mode needs {gold_kind} gold labels")
    n_rows = len(next(iter(pred.values())))
    if gold_kind is None and ref.length != n_rows:
        raise ValidationError(f"{pred_path} has {n_rows} rows but {ref_path} has "
                              f"{ref.length} judgments per annotator")
    if gold_kind is None and len(ref.annotators) < 2:
        raise ValidationError(f"{ref_path}: upper bound needs at least two annotators")
    if gold_kind == "turning_points":
        # the windows first: each contains its position
        spans = [("window", w, w[1], k) for k, w in enumerate(ref.tp_windows or ())]
        spans += [("position", p, p, k) for k, p in enumerate(ref.tp_positions)]
        for what, label, last, k in spans:
            if last >= n_rows:
                no, _ = _entry_line(ref_path, lambda j, _: j == k)
                raise ValidationError(f"{ref_path} line {no}: gold {what} {label} is out of "
                                      f"range for the {n_rows} sentences of {pred_path}")
    trace = None if trace_path is None else read_trace(trace_path, full=False)
    if trace is not None and n_rows != len(trace):
        raise ValidationError(f"{pred_path} has {n_rows} rows but {trace_path} "
                              f"has {len(trace)} sentences")
    if gold_kind == "salience" and (last := max(ref.salient_indices, default=-1)) >= n_rows:
        no, _ = _entry_line(ref_path, lambda _, raw: last in map(int, raw.split()))
        raise ValidationError(f"{ref_path} line {no}: gold index {last} is beyond the "
                              f"{n_rows} sentences of {trace_path or pred_path}")
    if gold_kind == "salience" and not ref.salient_indices:
        raise ValidationError(f"{ref_path}: gold salient set is empty")
    return pred, ref, trace


def evaluate(mode: str, preds: Sequence, out, annotations: Optional[Sequence] = None,
             gold: Optional[Sequence] = None, traces: Optional[Sequence] = None,
             k: Optional[int] = None) -> None:
    """Score each prediction CSV against its reference file and write one
    row per story and measure, then the per-measure means, to `out`. Every
    story is read before any error of a computation is reported."""
    given = {"--annotations": annotations, "--gold": gold, "--trace": traces, "--k": k}
    reads, *_, score = _evaluation_mode(mode)
    stray = [option for option, value in given.items()
             if value is not None and option not in reads]
    if stray:
        raise ValidationError(f"--mode {mode} does not read {', '.join(stray)}")
    if k is not None and k < 1:
        raise ValidationError(f"--k must be >= 1, got {k}")
    refs = given[reads[0]]
    if not refs or len(refs) != len(preds):
        raise ValidationError(f"one {reads[0]} file per prediction CSV required")
    if traces and len(traces) != len(preds):
        raise ValidationError("one --trace per prediction CSV required when given")
    results = _map(partial(_job, partial(_read_story, mode), lambda story: score(*story, k)),
                   list(zip(preds, refs, traces or [None] * len(preds))))
    rows = []
    for pred, result in zip(preds, results):
        if isinstance(result, Exception):
            raise result
        rows += [(Path(pred).stem, measure, values) for measure, values in result]
    rows.extend(_aggregate_rows(rows))
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_lines(out_path, [RESULT_HEADER, *(_result_line(*row) for row in rows)])


def cmd_evaluate(args) -> int:
    evaluate(args.mode, args.pred, args.out, annotations=args.annotations,
             gold=args.gold, traces=args.trace, k=args.k)
    return 0


def cmd_align(args) -> int:
    if len(args.trace) != 2:
        raise ValidationError("align needs exactly two --trace files: summary then full text")
    summary = read_trace(args.trace[0], full=False)
    fulltext = read_trace(args.trace[1], full=False)
    cfg = alignment.AlignConfig(window_fraction=args.rho, min_sim=args.mu,
                                slack=args.theta, max_matches=args.max_matches)
    result = alignment.align(summary.columns.embeddings, fulltext.columns.embeddings, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_gold(result.labels, out_dir / f"{fulltext.story_id}_gold.txt")
    report = alignment.alignment_report(result.labels, len(fulltext))
    _write_lines(out_dir / f"{fulltext.story_id}_report.csv", [
        "label_count,fulltext_sentences,coverage,empty_windows",
        f"{report['label_count']},{report['fulltext_sentences']},"
        f"{float(report['coverage'])!r},{result.empty_windows}"])
    return 0


def plot(preds: Sequence, out, gold_path=None) -> None:
    """One SVG per series CSV, marking the gold positions and the peaks of
    the first series in name order."""
    out_dir = Path(out)
    outs = _outputs(preds, [out_dir / (Path(path).stem + ".svg") for path in preds])
    out_dir.mkdir(parents=True, exist_ok=True)
    gold_indices: list[int] = []
    if gold_path is not None:
        gold = read_gold(gold_path)
        gold_indices = (sorted(gold.salient_indices) if gold.kind == "salience"
                        else list(gold.tp_positions))
    for path, out_path in zip(preds, outs):
        columns = read_series_csv(path)
        first = columns[sorted(columns)[0]]
        peaks = [p.index for p in evaluation.find_peaks(first)]
        svg = svgplot.render_svg(columns, gold_indices=gold_indices, peak_indices=peaks)
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)


def cmd_plot(args) -> int:
    if args.gold and len(args.gold) > 1:
        raise ValidationError("plot reads one --gold file")
    plot(args.pred, args.out, args.gold[0] if args.gold else None)
    return 0


# ---------------------------------------------------------------------------
# demo corpus

_VOCAB = ("storm", "harbor", "letter", "garden", "night", "train", "door",
          "river", "fire", "silence", "watched", "waited", "opened", "burned",
          "returned", "slowly", "again", "north", "old", "quiet")


def demo_sentences(seed: int) -> dict[str, list[str]]:
    """Deterministic synthetic corpus. The pivot story embeds a sentence
    that alone introduces the dominant bigrams of its following window."""
    rng = np.random.default_rng(seed)
    stories: dict[str, list[str]] = {}
    pivot = [
        "the harbor was quiet at night",
        "an old letter waited by the door",
        "first spoke zarkon vellum zarkon vellum zarkon",
        "vellum zarkon vellum zarkon vellum answered the call zarkon",
        "vellum zarkon vellum zarkon vellum kept the secret",
        "the garden gate stood open",
        "rain fell on the river slowly",
        "the fire burned low and the silence returned",
    ]
    stories["pivot"] = pivot
    for s in range(2):
        n_sentences = 18 + 2 * s
        sents = []
        for _ in range(n_sentences):
            length = int(rng.integers(4, 9))
            words = [str(_VOCAB[int(rng.integers(0, len(_VOCAB)))]) for _ in range(length)]
            sents.append(" ".join(words))
        stories[f"wp_{s + 1:03d}"] = sents
    return stories


def _synth_annotations(story_id: str, curve: np.ndarray, n_annotators: int,
                       seed: int) -> AnnotationSet:
    rng = np.random.default_rng(seed)
    scale = float(curve.std()) or 1.0
    annotators = {}
    for a in range(n_annotators):
        noisy = curve + rng.normal(0.0, 0.3 * scale, size=curve.shape[0])
        diffs = np.diff(noisy)
        cuts = np.array([0.25, 0.75]) * (float(np.std(diffs)) or 1.0)
        # -2 .. 2 indexes Judgment in declaration order, BIG_DECREASE .. BIG_INCREASE
        levels = (diffs[:, None] >= cuts).sum(1) - (diffs[:, None] <= -cuts).sum(1)
        annotators[f"annotator_{a + 1}"] = (Judgment.SAME,
                                            *(list(Judgment)[lv + 2] for lv in levels))
    return AnnotationSet(story_id=story_id, annotators=annotators)


def cmd_demo(args) -> int:
    out_dir = Path(args.out)
    seed = args.seed
    traces_dir = out_dir / "traces"
    curves_dir = out_dir / "curves"
    eval_dir = out_dir / "eval"
    for d in (traces_dir, eval_dir):
        d.mkdir(parents=True, exist_ok=True)

    embedder = baseline.HashEmbedder(dim=16, seed=seed)
    stories = demo_sentences(seed)
    traces = {}
    for story_id, sentences in stories.items():
        trace = baseline.build_trace(sentences, embedder, window_tokens=32,
                                     seed=seed, story_id=story_id)
        traces[story_id] = trace
        write_trace(trace, traces_dir / f"{story_id}.trace")

    columns = analyze([traces_dir / f"{sid}.trace" for sid in traces], curves_dir,
                      DEFAULT_METRICS, DEFAULT_MEASURES, suspense.MetricConfig(), seed,
                      zscore=False)

    # suspense evaluation against synthetic annotators
    ann_paths = []
    for story_id, cols in zip(traces, columns):
        path = eval_dir / f"{story_id}.ann"
        write_annotations(_synth_annotations(story_id, cols["ely_suspense"], 3, seed + 1), path)
        ann_paths.append(path)
    evaluate("suspense", [curves_dir / f"{sid}.csv" for sid in traces],
             eval_dir / "suspense_results.csv", annotations=ann_paths)

    # salience evaluation with alignment-derived silver labels on the pivot story
    pivot = traces["pivot"]
    # chosen so the summary sentences sit at matching relative positions
    summary_idx = [0, 4]
    embeddings = pivot.columns.embeddings
    result = alignment.align(embeddings[summary_idx], embeddings, alignment.AlignConfig())
    gold_path = eval_dir / "pivot_gold.txt"
    write_gold(result.labels, gold_path)
    evaluate("salience", [curves_dir / "pivot.csv"], eval_dir / "salience_results.csv",
             gold=[gold_path], traces=[traces_dir / "pivot.trace"])

    # turning-point evaluation on the longest story
    tp_story = "wp_002"
    n = len(traces[tp_story])
    positions = [round(f * (n - 1)) for f in (0.1, 0.3, 0.5, 0.75, 0.9)]
    windows = [(max(0, p - 2), min(n - 1, p + 2)) for p in positions]
    tp_gold = GoldLabels(kind="turning_points", tp_positions=tuple(positions),
                         tp_windows=tuple(windows))
    tp_path = eval_dir / f"{tp_story}_tp.txt"
    write_gold(tp_gold, tp_path)
    evaluate("turning-points", [curves_dir / f"{tp_story}.csv"], eval_dir / "tp_results.csv",
             gold=[tp_path])

    plot([curves_dir / f"{sid}.csv" for sid in sorted(traces)], out_dir / "plots")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="storymetrics")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="compute metric curves from traces")
    an.add_argument("--trace", action="append", required=True)
    an.add_argument("--metrics", default="")
    an.add_argument("--measures", default="")
    an.add_argument("--distance", choices=[kind.value for kind in suspense.DistanceKind],
                    default="sql2")
    an.add_argument("--zscore", action="store_true")
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--out", required=True)
    an.set_defaults(func=cmd_analyze)

    ev = sub.add_parser("evaluate", help="score prediction CSVs against references")
    ev.add_argument("pred", nargs="+")
    ev.add_argument("--mode", choices=("suspense", "turning-points", "salience"),
                    required=True)
    ev.add_argument("--annotations", action="append")
    ev.add_argument("--gold", action="append")
    ev.add_argument("--trace", action="append")
    ev.add_argument("--k", type=int, default=None)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)

    al = sub.add_parser("align", help="silver salience labels from a summary trace")
    al.add_argument("--trace", action="append", required=True,
                    help="give twice: summary trace, then full-text trace")
    al.add_argument("--rho", type=float, default=0.10)
    al.add_argument("--mu", type=float, default=0.35)
    al.add_argument("--theta", type=float, default=0.05)
    al.add_argument("--max-matches", type=int, default=3)
    al.add_argument("--out", required=True)
    al.set_defaults(func=cmd_align)

    pl = sub.add_parser("plot", help="render series CSVs as SVG")
    pl.add_argument("pred", nargs="+")
    pl.add_argument("--gold", action="append")
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_plot)

    demo = sub.add_parser("demo", help="synthetic end-to-end pipeline")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--out", required=True)
    demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateStatisticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # the last resort for a bad input no check names
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
