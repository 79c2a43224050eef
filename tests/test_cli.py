"""Command-line pipelines: exit codes, determinism, and file round-trips."""

import json

import numpy as np
import pytest

from storymetrics import baseline
from storymetrics.cli import main, read_series_csv
from storymetrics.model import (AnnotationSet, GoldLabels, Judgment,
                                read_gold, write_annotations, write_gold,
                                write_trace)


@pytest.fixture()
def demo_trace(tmp_path):
    embedder = baseline.HashEmbedder(dim=8, seed=1)
    sentences = [
        "the storm broke over the harbor",
        "an old letter waited by the door",
        "the river rose slowly in the night",
        "fire took the garden and the silence",
        "the train returned north again",
        "quiet watched the burned door",
    ]
    trace = baseline.build_trace(sentences, embedder, window_tokens=16,
                                 seed=1, story_id="story")
    path = tmp_path / "story.trace"
    write_trace(trace, path)
    return path


def test_analyze_writes_selected_columns(tmp_path, demo_trace):
    out = tmp_path / "curves"
    code = main(["analyze", "--trace", str(demo_trace),
                 "--metrics", "ely_surprise,ely_suspense",
                 "--measures", "like", "--out", str(out)])
    assert code == 0
    columns = read_series_csv(out / "story.csv")
    assert set(columns) == {"ely_surprise", "ely_suspense", "like"}
    assert all(len(v) == 6 for v in columns.values())


def test_analyze_deterministic_bytes(tmp_path, demo_trace):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["analyze", "--trace", str(demo_trace), "--out", str(out)]) == 0
    assert (out_a / "story.csv").read_bytes() == (out_b / "story.csv").read_bytes()


def test_analyze_zscore_flag(tmp_path, demo_trace):
    out = tmp_path / "z"
    code = main(["analyze", "--trace", str(demo_trace),
                 "--metrics", "ely_surprise", "--zscore", "--out", str(out)])
    assert code == 0
    values = read_series_csv(out / "story.csv")["ely_surprise"]
    assert abs(float(values.mean())) < 1e-12
    assert abs(float(values.std()) - 1.0) < 1e-12


def test_analyze_unknown_metric_exit_2(tmp_path, demo_trace):
    code = main(["analyze", "--trace", str(demo_trace),
                 "--metrics", "nonsense", "--out", str(tmp_path / "x")])
    assert code == 2


def test_missing_trace_exit_3(tmp_path):
    code = main(["analyze", "--trace", str(tmp_path / "absent.trace"),
                 "--out", str(tmp_path / "x")])
    assert code == 3


@pytest.mark.parametrize("case", ["index_not_int", "win_ll_list", "csv_not_numeric"])
def test_malformed_input_exit_2_names_line(tmp_path, demo_trace, capsys, case):
    if case == "csv_not_numeric":
        csv = tmp_path / "story.csv"
        csv.write_text("sentence,ely_surprise\n0,0.5\n1,abc\n")
        argv = ["plot", str(csv), "--out", str(tmp_path / "plots")]
    else:
        field, value = {"index_not_int": ("index", "abc"),
                        "win_ll_list": ("win_ll", [1, 2])}[case]
        lines = demo_trace.read_text().splitlines()
        record = json.loads(lines[2])
        record[field] = value
        lines[2] = json.dumps(record)
        demo_trace.write_text("\n".join(lines) + "\n")
        argv = ["analyze", "--trace", str(demo_trace), "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "line 3" in capsys.readouterr().err


def test_evaluate_suspense_perfect_prediction(tmp_path, demo_trace):
    out = tmp_path / "curves"
    main(["analyze", "--trace", str(demo_trace), "--metrics", "ely_surprise",
          "--out", str(out)])
    values = read_series_csv(out / "story.csv")["ely_surprise"]
    # annotator whose absolute curve ranks exactly like the prediction
    order = np.argsort(np.argsort(values))
    judgments = [Judgment.SAME]
    for prev, curr in zip(order, order[1:]):
        judgments.append(Judgment.INCREASE if curr > prev else Judgment.DECREASE)
    # rebuild cumulative ranks equal to prediction ranks only if increments
    # match sign of rank difference; verify via the result instead of construction
    annotations = AnnotationSet(story_id="story", annotators={"a1": tuple(judgments)})
    ann_path = tmp_path / "story.ann"
    write_annotations(annotations, ann_path)
    result_path = tmp_path / "results.csv"
    code = main(["evaluate", str(out / "story.csv"), "--mode", "suspense",
                 "--annotations", str(ann_path), "--out", str(result_path)])
    # a single annotator cannot produce a human upper bound
    assert code == 2

    annotations = AnnotationSet(story_id="story", annotators={
        "a1": tuple(judgments), "a2": tuple(judgments)})
    write_annotations(annotations, ann_path)
    code = main(["evaluate", str(out / "story.csv"), "--mode", "suspense",
                 "--annotations", str(ann_path), "--out", str(result_path)])
    assert code == 0
    lines = result_path.read_text().splitlines()
    assert lines[0].startswith("story_id,measure,tau")
    human = [ln for ln in lines if ln.startswith("story,human_upper_bound,")]
    assert len(human) == 1
    assert float(human[0].split(",")[2]) == pytest.approx(1.0)


def test_evaluate_requires_matching_annotations(tmp_path, demo_trace):
    out = tmp_path / "curves"
    main(["analyze", "--trace", str(demo_trace), "--out", str(out)])
    code = main(["evaluate", str(out / "story.csv"), "--mode", "suspense",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2


def test_evaluate_turning_points(tmp_path, demo_trace):
    out = tmp_path / "curves"
    main(["analyze", "--trace", str(demo_trace), "--metrics",
          "ely_surprise,ely_suspense", "--out", str(out)])
    gold = GoldLabels(kind="turning_points", tp_positions=(0, 1, 2, 3, 5),
                      tp_windows=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    gold_path = tmp_path / "tp.txt"
    write_gold(gold, gold_path)
    result_path = tmp_path / "tp_results.csv"
    code = main(["evaluate", str(out / "story.csv"), "--mode", "turning-points",
                 "--gold", str(gold_path), "--out", str(result_path)])
    assert code == 0
    rows = result_path.read_text().splitlines()[1:]
    assert any(row.split(",")[1] == "ely_surprise" for row in rows)
    dists = [float(row.split(",")[8]) for row in rows if row.split(",")[8]]
    assert all(d >= 0.0 for d in dists)


def test_evaluate_salience_with_rouge(tmp_path, demo_trace):
    out = tmp_path / "curves"
    main(["analyze", "--trace", str(demo_trace), "--metrics", "ely_surprise",
          "--out", str(out)])
    gold_path = tmp_path / "gold.txt"
    write_gold(GoldLabels(kind="salience", salient_indices=frozenset({1, 3})), gold_path)
    result_path = tmp_path / "sal.csv"
    code = main(["evaluate", str(out / "story.csv"), "--mode", "salience",
                 "--gold", str(gold_path), "--trace", str(demo_trace),
                 "--out", str(result_path)])
    assert code == 0
    row = result_path.read_text().splitlines()[1].split(",")
    assert 0.0 <= float(row[9]) <= 1.0   # map
    assert 0.0 <= float(row[10]) <= 1.0  # recall
    assert 0.0 <= float(row[11]) <= 1.0  # rouge_l


def test_align_and_plot(tmp_path, demo_trace):
    embedder = baseline.HashEmbedder(dim=8, seed=1)
    summary = baseline.build_trace(
        ["the storm broke over the harbor", "quiet watched the burned door"],
        embedder, window_tokens=16, seed=1, story_id="summary")
    summary_path = tmp_path / "summary.trace"
    write_trace(summary, summary_path)
    out = tmp_path / "aligned"
    code = main(["align", "--trace", str(summary_path), "--trace", str(demo_trace),
                 "--rho", "0.4", "--mu", "0.2", "--out", str(out)])
    assert code == 0
    labels = read_gold(out / "story_gold.txt")
    assert labels.kind == "salience"
    assert len(labels.salient_indices) >= 1
    report = (out / "story_report.csv").read_text().splitlines()
    assert report[0] == "label_count,fulltext_sentences,coverage,empty_windows"

    curves = tmp_path / "curves"
    main(["analyze", "--trace", str(demo_trace), "--out", str(curves)])
    plots = tmp_path / "plots"
    code = main(["plot", str(curves / "story.csv"),
                 "--gold", str(out / "story_gold.txt"), "--out", str(plots)])
    assert code == 0
    svg = (plots / "story.svg").read_text()
    assert svg.startswith("<svg")
    assert "<text" not in svg
    assert svg.count("<polyline") == 6  # one per default metric


def test_plot_deterministic(tmp_path, demo_trace):
    curves = tmp_path / "curves"
    main(["analyze", "--trace", str(demo_trace), "--out", str(curves)])
    a, b = tmp_path / "p1", tmp_path / "p2"
    for out in (a, b):
        assert main(["plot", str(curves / "story.csv"), "--out", str(out)]) == 0
    assert (a / "story.svg").read_bytes() == (b / "story.svg").read_bytes()


def test_worker_count_does_not_change_results(tmp_path, demo_trace, monkeypatch):
    outs = []
    for threads in ("1", "8"):
        monkeypatch.setenv("NARR_THREADS", threads)
        out = tmp_path / f"t{threads}"
        assert main(["analyze", "--trace", str(demo_trace), "--out", str(out)]) == 0
        outs.append((out / "story.csv").read_bytes())
    assert outs[0] == outs[1]
