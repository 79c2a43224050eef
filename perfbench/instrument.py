"""Which storymetrics functions the traced run wraps, and the counters it
records at each of them.

Span names are `<module>.<function>` (with the metric, measure or
evaluation mode appended where one function serves several); the
per-layer metrics are `<span>.s` for self time and `<span>.calls` plus
the counters named below.
"""

from __future__ import annotations

import os

from spans import Patcher, Recorder, counted, propagating_executor, spanned


def instrument(rec: Recorder) -> Patcher:
    """Wrap the public functions of every layer; the returned patcher
    restores them."""
    from storymetrics import (alignment, annotation, baseline, cli, evaluation, model,
                              retrieval, salience, suspense, svgplot)

    def size_of(counter: str, path_arg: int):
        def after(result, *args, **kwargs):
            rec.count(counter, os.path.getsize(args[path_arg]))
        return after

    def count_result(counter: str, measure):
        def after(result, *args, **kwargs):
            rec.count(counter, measure(result, *args))
        return after

    def retrieve_hits(result, *args, **kwargs):
        merged, _ = result
        rec.count("retrieval.merged_hits", len(merged))
        rec.count("retrieval.memory_hits", sum(p.source == "memory" for p, _ in merged))

    def align_counts(result, *args, **kwargs):
        rec.count("alignment.align.empty_windows", result.empty_windows)
        rec.count("alignment.align.labels", len(result.labels.salient_indices))

    p = Patcher()
    fn = p.function
    fn(cli, "cmd_analyze", spanned(rec, "cli.cmd_analyze"))
    fn(cli, "cmd_evaluate", spanned(rec, lambda args: f"cli.cmd_evaluate.{args.mode}"))
    fn(cli, "cmd_align", spanned(rec, "cli.cmd_align"))
    fn(cli, "cmd_plot", spanned(rec, "cli.cmd_plot"))
    fn(cli, "read_series_csv", spanned(rec, "cli.read_series_csv"))
    p.attribute(cli, "ThreadPoolExecutor", propagating_executor(rec))

    fn(model, "write_trace", spanned(rec, "model.write_trace",
                                     size_of("model.write_trace.bytes", 1)))
    fn(model, "read_trace", spanned(rec, "model.read_trace",
                                    size_of("model.read_trace.bytes", 0)))
    fn(model, "read_annotations", spanned(rec, "model.read_annotations"))
    fn(model, "read_gold", spanned(rec, "model.read_gold"))

    fn(baseline, "build_trace", spanned(rec, "baseline.build_trace"))
    p.method(baseline.NgramLM, "train", spanned(
        rec, "baseline.NgramLM.train",
        count_result("baseline.NgramLM.train.tokens",
                     lambda r, lm, sents: sum(len(s) for s in sents))))
    fn(baseline, "lm_loglik", spanned(
        rec, "baseline.lm_loglik",
        count_result("baseline.lm_loglik.tokens", lambda r, tokens, *a: len(tokens))))
    p.method(baseline.HashEmbedder, "embed", spanned(rec, "baseline.HashEmbedder.embed"))

    fn(suspense, "metric_series", spanned(
        rec, lambda trace, name, *a: f"suspense.metric_series.{name}"))
    fn(salience, "salience_series", spanned(
        rec, lambda trace, cfg: f"salience.salience_series.{cfg.measure}"))
    fn(salience, "clus_salience", spanned(rec, "salience.clus_salience"))

    fn(annotation, "pairwise_correlation", spanned(
        rec, "annotation.pairwise_correlation",
        count_result("annotation.pairwise_correlation.skipped", lambda r, *a: r.skipped)))
    fn(annotation, "human_upper_bound", spanned(rec, "annotation.human_upper_bound"))

    fn(evaluation, "kendall_tau", spanned(rec, "evaluation.kendall_tau"))
    fn(evaluation, "spearman_rho", spanned(rec, "evaluation.spearman_rho"))
    fn(evaluation, "find_peaks", spanned(rec, "evaluation.find_peaks"))
    fn(evaluation, "assign_turning_points", spanned(
        rec, "evaluation.assign_turning_points",
        count_result("evaluation.assign_turning_points.fallbacks",
                     lambda r, *a: sum(t.fallback for t in r))))
    fn(evaluation, "average_precision", spanned(rec, "evaluation.average_precision"))
    fn(evaluation, "recall_at_k", spanned(rec, "evaluation.recall_at_k"))
    fn(evaluation, "rouge_l", spanned(
        rec, "evaluation.rouge_l",
        count_result("evaluation.rouge_l.cells", lambda r, pred, gold: len(pred) * len(gold))))

    fn(alignment, "align", spanned(rec, "alignment.align", align_counts))

    fn(retrieval, "retrieve", spanned(rec, "retrieval.retrieve", retrieve_hits))
    p.method(retrieval.PassageStore, "top_k", spanned(rec, "retrieval.PassageStore.top_k"))
    p.method(retrieval.MemoryCache, "top_k", spanned(rec, "retrieval.MemoryCache.top_k"))
    p.method(retrieval.MemoryCache, "add", spanned(rec, "retrieval.MemoryCache.add"))
    fn(retrieval, "score", counted(rec, "retrieval.score.calls"))

    fn(svgplot, "render_svg", spanned(rec, "svgplot.render_svg"))
    return p


def derived(counts: dict[str, float]) -> dict[str, float]:
    """Ratios computed from the raw counters."""
    merged = counts.get("retrieval.merged_hits", 0)
    return {"retrieval.memory_share":
            counts.get("retrieval.memory_hits", 0) / merged if merged else 0.0}
