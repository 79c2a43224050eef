"""Command-line pipelines: exit codes, determinism, and file round-trips."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storymetrics import baseline, cli, model, salience, suspense
from storymetrics.cli import build_parser, main, read_series_csv
from storymetrics.model import (KNOWN_VARIANTS, AnnotationSet, ContinuationSample,
                                ContinuationSet, GoldLabels, Judgment, SentenceRecord,
                                StoryTrace, ValidationError, content_lines, read_gold,
                                write_annotations, write_gold, write_trace)
from strategies import line_mutants, series_columns


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


_BAD_RECORDS = {"index_not_int": ("index", "abc"),
                "win_ll_list": ("win_ll", [1, 2]),
                "sentiment_out_of_range": ("sentiment", 2.0),
                "win_ll_base_empty": ("win_ll", {"base": [], "deleted": [-1.0]}),
                "index_negative": ("index", -1),
                "text_not_str": ("text", 5),
                "index_not_contiguous": ("index", 5),
                # numbers of the wrong JSON type are refused, not coerced
                "index_fraction": ("index", 1.7),
                "index_numeric_string": ("index", "1"),
                "sentiment_bool": ("sentiment", True),
                "avg_ll_bool": ("avg_ll", False),
                "cont_n_fraction": ("cont", {"n": 1.5, "samples": [{"e": [0.5] * 8}]}),
                "cont_score_bool": ("cont", {"n": 1, "samples": [{"e": [0.5] * 8, "score": True}]}),
                "cont_sample_length": ("cont", {"n": 1, "samples": [{"e": [0.5] * 3}]}),
                # a string or bool inside a vector is refused, not converted
                "e_numeric_string": ("e", ["1.5"] + [0.5] * 7),
                "e_bool": ("e", [True] + [0.5] * 7),
                "win_ll_numeric_string": ("win_ll", {"base": ["-1"]}),
                "win_emb_bool": ("win_emb", {"base": [False] + [0.5] * 7}),
                "cont_sample_e_string": ("cont", {"n": 1, "samples": [{"e": ["0.5"] * 8}]}),
                "cont_probs_bool": ("cont", {"n": 1, "samples": [{"e": [0.5] * 8}],
                                             "probs": [True]}),
                "win_emb_short": ("win_emb", {"base": [0.5] * 8, "deleted": [0.5] * 2})}

# header fields of the trace, on line 1
_BAD_HEADERS = {"header_dim_float": ("embedding_dim", 8.0),
                "header_dim_fraction": ("embedding_dim", 8.9),
                # story_id names output files, so it must be a plain file name
                "header_id_parent_path": ("story_id", "../escaped"),
                "header_id_dir_path": ("story_id", "sub/story"),
                "header_id_backslash": ("story_id", "sub\\story"),
                "header_id_nul": ("story_id", "st\0ory"),
                "header_id_dot": ("story_id", "."),
                "header_id_dotdot": ("story_id", ".."),
                "header_id_empty": ("story_id", ""),
                "header_id_int": ("story_id", 5),
                # meta maps names to strings
                "header_meta_nested": ("meta", {"k": [1, {"x": None}]}),
                "header_meta_pairs": ("meta", [["a", "b"]]),
                "header_meta_number": ("meta", {"k": 1}),
                "header_dim_zero": ("embedding_dim", 0),
                "header_dim_negative": ("embedding_dim", -1)}


_BAD_CELLS = {"csv_not_numeric": "abc", "csv_nan": "nan", "csv_inf": "inf"}

# series CSV text, and what its error names: the header's line for a header
# that does not start with sentence or has a duplicate or empty name, a row's
# line for a sentence cell that is not its 0-based position
_BAD_CSVS = {
    "csv_header_not_sentence": ("\nstory,a\n0,0.5\n", "line 2: expected header"),
    "csv_duplicate_name": ("sentence,a,a\n0,0.5,0.25\n", "line 1: duplicate column name 'a'"),
    "csv_duplicate_sentence": ("sentence,a,sentence\n0,0.5,0\n",
                               "line 1: duplicate column name 'sentence'"),
    "csv_empty_name": ("sentence,,b\n0,0.5,0.25\n", "line 1: empty column name ''"),
    "csv_blank_name": ("\nsentence,a, \n0,0.5,0.25\n", "line 2: empty column name ' '"),
    "csv_rows_misnumbered": ("sentence,a\n2,0.5\n0,0.5\nx,0.5\n",
                             "line 2: sentence '2' in row 0"),
    "csv_row_not_integer": ("sentence,a\n0,0.5\n\n1,0.5\nx,0.5\n",
                            "line 5: sentence 'x' in row 2"),
    "csv_row_float": ("sentence,a\n0.0,0.5\n", "line 2: sentence '0.0'"),
}


# the annotator lines of a .ann read against the 2-row CSV of the test below
_ANN_LINES = {"csv_nan": "a1\tS I\na2\tS D",
              "ann_lengths_differ": "a1\tS I\na2\tS",
              "ann_duplicate_annotator": "a1\tS I\na1\tS D\na2\tS I",
              "ann_no_judgments": "a1\t\na2\t",
              "ann_longer_than_csv": "a1\tS I D\na2\tS D I",
              "ann_no_annotators": ""}


_TP = '{"kind": "turning_points"}\n'
# gold file text, and the line (or, from ":", the file-level message) the error names
_BAD_GOLD = {
    "gold_kind_unknown": ('{"kind": 5}\n1\n', "line 1"),
    "gold_salient_negative": ('{"kind": "salience"}\n0\n1 -2\n',
                              "line 3: salient indices must be >= 0"),
    "gold_tp_negative": (_TP + "0\n-1\n2\n3\n4\n",
                         "line 3: turning-point positions must be >= 0"),
    "gold_window_lo_above_hi": (_TP + "0\n1 3 2\n2\n3\n4\n", "line 3: window (3, 2) has lo > hi"),
    "gold_window_misses_position": (_TP + "0\n1\n2\n3\n4 0 3\n",
                                    "line 6: window (0, 3) does not contain its position 4"),
    "gold_one_window_among_bare": (_TP + "0\n1 0 1\n2\n3\n4\n",
                                   ": turning-point windows need exactly 5 entries, got 1"),
    "gold_three_positions": (_TP + "0\n1\n2\n",
                             ": turning-point labels need exactly 5 positions, got 3"),
}


@pytest.mark.parametrize("case", [*_BAD_RECORDS, *_BAD_HEADERS, "blank_line_before_bad_record",
                                  *_BAD_CELLS, *_BAD_CSVS,
                                  *_BAD_GOLD,
                                  *(c for c in _ANN_LINES if c.startswith("ann_"))])
def test_malformed_input_exit_2_names_line(tmp_path, demo_trace, capsys, case):
    line, named = "line 3", None
    if case in _BAD_RECORDS or case in _BAD_HEADERS or case == "blank_line_before_bad_record":
        at, (field, value) = ((0, _BAD_HEADERS[case]) if case in _BAD_HEADERS
                              else (2, _BAD_RECORDS.get(case, ("index", "abc"))))
        line = f"line {at + 1}"
        good = tmp_path / "good.trace"  # read first: the message must name the bad file
        good.write_text(demo_trace.read_text())
        lines = demo_trace.read_text().splitlines()
        record = json.loads(lines[at])
        record[field] = value
        lines[at] = json.dumps(record)
        if case == "blank_line_before_bad_record":
            lines.insert(2, "")
            line = "line 4"
        demo_trace.write_text("\n".join(lines) + "\n")
        argv = ["analyze", "--trace", str(good), "--trace", str(demo_trace),
                "--out", str(tmp_path / "x")]
        named = demo_trace
    else:
        csv = tmp_path / "story.csv"
        if case in _BAD_CSVS:
            text, line = _BAD_CSVS[case]
        else:
            text = f"sentence,ely_surprise\n0,0.5\n1,{_BAD_CELLS.get(case, '0.25')}\n"
        csv.write_text(text)
        argv, named = ["plot", str(csv), "--out", str(tmp_path / "plots")], csv
        if case in _ANN_LINES:
            ann = tmp_path / "story.ann"
            ann.write_text('{"story_id": "story"}\n' + _ANN_LINES[case] + "\n")
            argv = ["evaluate", str(csv), "--mode", "suspense", "--annotations", str(ann),
                    "--out", str(tmp_path / "r.csv")]
            if case.startswith("ann_"):
                named = ann
            if case == "ann_duplicate_annotator":
                line = "line 3: annotator 'a1' already given on line 2"
            if case == "ann_no_judgments":
                line = "line 2: annotator 'a1' has no judgments"
            if case == "ann_no_annotators":  # no line: the file has none to name
                line = f"{ann}: annotation file has no annotators"
            if case == "ann_longer_than_csv":  # no line: both files and both counts
                line, named = f"{csv} has 2 rows but {ann} has 3 judgments", None
        if case in _BAD_GOLD:
            gold = tmp_path / "gold.txt"
            text, line = _BAD_GOLD[case]
            gold.write_text(text)
            argv += ["--gold", str(gold)]
            named = gold
            if line.startswith(":"):  # a count: the message names the file, not a line
                line = f"{gold}{line}"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert line in err
    assert named is None or str(named) in err


# what the mutation property puts in place of one field; _INFINITE is
# written as the JSON literal 1e999, which json reads as inf
_INFINITE = "<1e999>"
_MUTANTS = (10**400, -1000.0, True, "x", None, [], {}, _INFINITE)


def _field_paths(value, path=()):
    """The path of `value` and of each field within it, into the first item
    of a list."""
    yield path
    items = (value.items() if type(value) is dict
             else enumerate(value[:1]) if type(value) is list else ())
    for key, item in items:
        yield from _field_paths(item, path + (key,))


def _with_field(line: str, path: tuple, value) -> str:
    obj = root = {"line": json.loads(line)}
    for key in ("line", *path)[:-1]:
        obj = obj[key]
    obj[("line", *path)[-1]] = value
    return json.dumps(root["line"]).replace(json.dumps(_INFINITE), "1e999")


def test_one_corrupt_field_ends_in_an_exit_code_that_names_the_line(tmp_path, capsys):
    """Each field of the header and of a record line that carries every
    field, replaced in turn by each of _MUTANTS: analyze (every metric and
    measure) and align end in a documented exit code, with no traceback or
    warning, and with an error that names the file and a line in it, or
    every sentence a scoring error is about. A scoring error about one
    sentence names that sentence's line."""
    rng = np.random.default_rng(3)
    records = [SentenceRecord(
        index=i, embedding=rng.normal(size=4), text=f"s{i}", avg_log_likelihood=-2.5,
        window_token_loglikes={v: -rng.random(2) for v in KNOWN_VARIANTS},
        window_embedding={v: rng.normal(size=4) for v in KNOWN_VARIANTS}, sentiment=0.5,
        continuations=ContinuationSet(1, tuple(ContinuationSample(rng.normal(size=4), -1.0)
                                               for _ in range(2)), np.array([0.25, 0.75])))
        for i in range(3)]
    good, bad = tmp_path / "good.trace", tmp_path / "bad.trace"
    write_trace(StoryTrace("story", tuple(records), 4), good)
    lines = good.read_text().splitlines()
    commands = (["analyze", "--metrics", ",".join(suspense.METRIC_NAMES),
                 "--measures", ",".join(salience.MEASURES), "--out", str(tmp_path / "x")],
                ["align", "--trace", str(bad), "--out", str(tmp_path / "y")])
    faults = []
    for at in (0, 2):
        for path in _field_paths(json.loads(lines[at])):
            for value in _MUTANTS:
                bad.write_text("\n".join(lines[:at] + [_with_field(lines[at], path, value)]
                                         + lines[at + 1:]) + "\n")
                for command in commands:
                    case = f"line {at + 1} {path} = {value!r:.20}: {command[0]}"
                    try:
                        code = main([*command, "--trace", str(bad)])
                    except Exception as exc:  # a warning, too, under filterwarnings = error
                        faults.append(f"{case}: {type(exc).__name__}: {exc}")
                        continue
                    err = capsys.readouterr().err
                    named = str(bad) in err
                    sentence = re.search(r"sentence (\d+)", err)
                    if code not in (0, 2, 3, 4) or (code and not named) or (
                            named and not re.search(r"line \d+|every sentence", err)) or (
                            sentence and f"{bad} line {int(sentence[1]) + 2}: " not in err):
                        faults.append(f"{case}: exit {code}: {err}")
    assert not faults, "\n".join(faults)


# one story's valid inputs for the mutation property of the files other
# than traces: the first column of the series CSV becomes constant if its
# 0.5 turns into -1
_INPUT_FILES = {
    "story.csv": ["sentence,a,b", *(f"{i},{a},{b}" for i, (a, b) in enumerate(zip(
        ["-1"] * 7 + ["0.5"], ["0.5", "-0.0", "3.0", "1e-300", "2.5", "0.25", "1.0", "0.75"])))],
    "story.ann": ['{"story_id":"story"}', "a1\tS I I D S BI D S", "a2\tS D I I S I BD S"],
    "tp.txt": ['{"kind":"turning_points"}', "1 0 2", "2 1 3", "4 3 5", "5 4 6", "6 5 7"],
    "salient.txt": ['{"kind":"salience"}', "1 3"],
}


def test_one_corrupt_token_of_another_input_ends_in_an_exit_code_that_names_it(
        tmp_path, capsys):
    """Each line_mutants change of a series CSV, an annotation file, a
    turning-point and a salience gold file, under each command that reads
    it (in-process): a documented exit code, no traceback or warning, and
    an error that begins with one of the story's files, then a line number
    or the rest of the message. A scoring error begins with the story's CSV."""
    good = {name: tmp_path / name for name in _INPUT_FILES}
    for name, lines in _INPUT_FILES.items():
        good[name].write_text("\n".join(lines) + "\n")
    csv, ann, tp, sal = good.values()
    out, plots = ["--out", str(tmp_path / "r.csv")], ["--out", str(tmp_path / "plots")]
    commands = {
        "story.csv": [["evaluate", "{}", "--mode", "suspense", "--annotations", str(ann), *out],
                      ["evaluate", "{}", "--mode", "turning-points", "--gold", str(tp), *out],
                      ["evaluate", "{}", "--mode", "salience", "--gold", str(sal), *out],
                      ["plot", "{}", *plots]],
        "story.ann": [["evaluate", str(csv), "--mode", "suspense", "--annotations", "{}", *out]],
        "tp.txt": [["evaluate", str(csv), "--mode", "turning-points", "--gold", "{}", *out],
                   ["plot", str(csv), "--gold", "{}", *plots]],
        "salient.txt": [["evaluate", str(csv), "--mode", "salience", "--gold", "{}", *out],
                        ["plot", str(csv), "--gold", "{}", *plots]],
    }
    faults = []
    for name, lines in _INPUT_FILES.items():
        bad = tmp_path / "bad" / name
        bad.parent.mkdir(exist_ok=True)
        named = "|".join(re.escape(str(p)) for p in (bad, *good.values()))
        begins = re.compile(rf"error: ({named})( line \d+:|:| has )")
        for case, changed in [("unchanged", lines), *line_mutants(lines)]:
            bad.write_text("\n".join(changed) + "\n")
            for command in commands[name]:
                argv = [str(bad) if arg == "{}" else arg for arg in command]
                label = f"{name} {case}: {' '.join(command[:4])}"
                try:
                    code = main(argv)
                except Exception as exc:  # a warning, too, under filterwarnings = error
                    faults.append(f"{label}: {type(exc).__name__}: {exc}")
                    continue
                err = capsys.readouterr().err
                if (code not in (0, 2, 3, 4) or (case == "unchanged" and code)
                        or (code and not begins.match(err))):
                    faults.append(f"{label}: exit {code}: {err}")
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("command", ["analyze", "align"])
@pytest.mark.parametrize("dim, message", [
    (0, "line 1: malformed trace header: embedding_dim must be positive"),
    (-1, "line 1: malformed trace header: embedding_dim must be positive"),
    # sizes nothing: the first record's length is judged against it
    (10**400, "line 2: embedding length 8 does not match embedding_dim=1000")])
def test_header_embedding_dim_is_checked(tmp_path, demo_trace, capsys, command, dim, message):
    lines = demo_trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["embedding_dim"] = dim
    demo_trace.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    argv = {"analyze": ["analyze", "--trace", str(demo_trace)],
            "align": ["align", "--trace", str(demo_trace), "--trace", str(demo_trace)]}[command]
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert f"{demo_trace} {message}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("cont", {"n": 1, "samples": [{"e": ["0.5"] * 8}]}),
    ("win_ll", {"base": ["-1"]}),
    ("win_emb", {"base": [0.5] * 2}),
])
def test_evaluate_and_align_skip_fields_they_do_not_read(tmp_path, demo_trace, capsys,
                                                          field, value):
    """evaluate --trace and align read only index, e and text, so a
    malformed field they do not read fails analyze alone."""
    curves, gold = tmp_path / "curves", tmp_path / "gold.txt"
    assert main(["analyze", "--trace", str(demo_trace), "--metrics", "ely_surprise",
                 "--measures", "like", "--out", str(curves)]) == 0
    write_gold(GoldLabels(kind="salience", salient_indices=frozenset({1, 3})), gold)
    lines = demo_trace.read_text().splitlines()
    record = json.loads(lines[2])
    record[field] = value
    lines[2] = json.dumps(record)
    demo_trace.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--trace", str(demo_trace), "--out", str(tmp_path / "x")]) == 2
    assert f"{demo_trace} line 3: " in capsys.readouterr().err
    assert main(["evaluate", str(curves / "story.csv"), "--mode", "salience",
                 "--gold", str(gold), "--trace", str(demo_trace),
                 "--out", str(tmp_path / "sal.csv")]) == 0
    assert main(["align", "--trace", str(demo_trace), "--trace", str(demo_trace),
                 "--out", str(tmp_path / "aligned")]) == 0


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
def test_evaluate_and_align_read_an_integer_in_e_as_a_float(tmp_path, demo_trace, monkeypatch,
                                                            cpus):
    """A record whose e holds an integer literal, beside a malformed cont
    that neither command reads, is read as the same record with a float
    literal there, at any CPU count (one byte range per CPU)."""
    monkeypatch.setattr(model, "PARALLEL_READ_BYTES", 0)
    curves, gold = tmp_path / "curves", tmp_path / "gold.txt"
    assert main(["analyze", "--trace", str(demo_trace), "--metrics", "ely_surprise",
                 "--out", str(curves)]) == 0
    write_gold(GoldLabels(kind="salience", salient_indices=frozenset({1, 3})), gold)
    outputs = []
    for first in (1, 1.0):
        _with_record_field(demo_trace, demo_trace, 3, "e", lambda e: [first, *e[1:]])
        _with_record_field(demo_trace, demo_trace, 3, "cont",
                           lambda _: {"n": 1, "samples": ["x"]})
        assert f'"e": [{first!r}, ' in demo_trace.read_text().splitlines()[2]
        out = tmp_path / f"out_{first!r}"
        assert main(["evaluate", str(curves / "story.csv"), "--mode", "salience",
                     "--gold", str(gold), "--trace", str(demo_trace),
                     "--out", str(out / "sal.csv")]) == 0
        assert main(["align", "--trace", str(demo_trace), "--trace", str(demo_trace),
                     "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] and len(outputs[0]) == 3


@settings(max_examples=100, deadline=None)
@given(columns=series_columns())
def test_series_csv_round_trips(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("series") / "story.csv"
    cli._write_series_csv(path, columns)
    back = read_series_csv(path)
    assert list(back) == list(columns)
    # repr tells -0.0 from 0.0, and shows every bit of the rest
    assert ([repr(col.tolist()) for col in back.values()]
            == [repr(col.tolist()) for col in columns.values()])


def test_series_csv_without_rows_exit_2(tmp_path, capsys):
    csv = tmp_path / "story.csv"
    csv.write_text("sentence,ely_surprise\n")
    assert main(["plot", str(csv), "--out", str(tmp_path / "plots")]) == 2
    assert str(csv) in capsys.readouterr().err


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


@pytest.mark.parametrize("entries, named", [
    (["1", "2", "3", "4", "98"], "position 98"),
    # a blank line before the entry: the line is counted in the file
    (["1 0 2", "2 1 3", "3 2 4", "", "4 3 5", "20 15 99"], "window (15, 99)")])
def test_evaluate_turning_point_gold_past_series_exit_2(tmp_path, capsys, entries, named):
    csv = tmp_path / "story.csv"
    csv.write_text("sentence,ely_surprise\n" + "".join(f"{i},{i % 3}.5\n" for i in range(8)))
    gold = tmp_path / "tp.txt"
    gold.write_text('{"kind": "turning_points"}\n' + "\n".join(entries) + "\n")
    code = main(["evaluate", str(csv), "--mode", "turning-points", "--gold", str(gold),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    line = 1 + len(entries)  # the faulty entry is the last, after the header
    assert f"{gold} line {line}: gold {named} is out of range" in err and "8 sentences" in err


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


@pytest.mark.parametrize("gold_indices, csv_rows", [({1, 6}, 6), ({1, 3}, 7)])
def test_evaluate_salience_trace_shorter_than_inputs_exit_2(tmp_path, demo_trace, capsys,
                                                           gold_indices, csv_rows):
    csv = tmp_path / "story.csv"
    csv.write_text("sentence,like\n" + "".join(f"{i},{i}.5\n" for i in range(csv_rows)))
    gold_path = tmp_path / "gold.txt"
    write_gold(GoldLabels(kind="salience", salient_indices=frozenset(gold_indices)), gold_path)
    code = main(["evaluate", str(csv), "--mode", "salience", "--gold", str(gold_path),
                 "--trace", str(demo_trace), "--out", str(tmp_path / "sal.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(demo_trace) in err
    if csv_rows == 6:  # write_gold puts every index on line 2
        assert f"{gold_path} line 2: gold index 6 is beyond the 6 sentences" in err
    else:
        assert str(csv) in err
    assert not (tmp_path / "sal.csv").exists()


def test_evaluate_salience_gold_past_series_without_trace_exit_2(tmp_path, capsys):
    """Without --trace, a salient index is checked against the CSV's rows."""
    csv = tmp_path / "story.csv"
    csv.write_text("sentence,like\n" + "".join(f"{i},{i % 3}.5\n" for i in range(8)))
    gold = tmp_path / "gold.txt"
    gold.write_text('{"kind": "salience"}\n1 99\n')
    assert main(["evaluate", str(csv), "--mode", "salience", "--gold", str(gold),
                 "--out", str(tmp_path / "sal.csv")]) == 2
    assert capsys.readouterr().err == (f"error: {gold} line 2: gold index 99 is beyond the "
                                       f"8 sentences of {csv}\n")
    assert not (tmp_path / "sal.csv").exists()


def test_evaluate_single_annotator_names_the_annotation_file(tmp_path, capsys):
    csv = tmp_path / "story.csv"
    csv.write_text("sentence,like\n" + "".join(f"{i},{i % 3}.5\n" for i in range(4)))
    ann = tmp_path / "story.ann"
    ann.write_text('{"story_id": "story"}\na1\tS I D I\n')
    assert main(["evaluate", str(csv), "--mode", "suspense", "--annotations", str(ann),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == (f"error: {ann}: upper bound needs at least two "
                                       "annotators\n")


def test_evaluate_salience_empty_gold_names_the_gold_file(tmp_path, capsys):
    """A salience gold file with no index is refused naming it; plot --gold
    draws no markers for it."""
    csv = tmp_path / "story.csv"
    csv.write_text("sentence,like\n" + "".join(f"{i},{i % 3}.5\n" for i in range(4)))
    gold = tmp_path / "gold.txt"
    gold.write_text('{"kind": "salience"}\n\n')
    assert main(["evaluate", str(csv), "--mode", "salience", "--gold", str(gold),
                 "--out", str(tmp_path / "sal.csv")]) == 2
    assert capsys.readouterr().err == f"error: {gold}: gold salient set is empty\n"
    assert not (tmp_path / "sal.csv").exists()
    assert main(["plot", str(csv), "--gold", str(gold), "--out", str(tmp_path / "marked")]) == 0
    assert main(["plot", str(csv), "--out", str(tmp_path / "plain")]) == 0
    assert ((tmp_path / "marked" / "story.svg").read_bytes()
            == (tmp_path / "plain" / "story.svg").read_bytes())


def test_evaluate_all_rows_average_the_stories_that_have_each_value(tmp_path):
    """Each value of an ALL row is the mean of the story rows that have it
    (the story whose trace has no text has no rouge_l), and n counts the
    stories."""
    traces = _three_traces(tmp_path) + [_flat_trace(tmp_path / "s3.trace", "s3")]
    csvs, options = [], []
    for s, trace in enumerate(traces):
        csvs.append(tmp_path / f"s{s}.csv")
        gold = tmp_path / f"s{s}_gold.txt"
        rows = range(len(trace.read_text().splitlines()) - 1)
        csvs[-1].write_text("sentence,a,b\n" + "".join(f"{i},{(i * s) % 5}.5,{i % (s + 2)}\n"
                                                      for i in rows))
        gold.write_text('{"kind": "salience"}\n0 3\n')
        options += ["--gold", str(gold), "--trace", str(trace)]
    assert main(["evaluate", *map(str, csvs), "--mode", "salience", *options,
                 "--out", str(tmp_path / "r.csv")]) == 0
    rows = [line.split(",") for line in (tmp_path / "r.csv").read_text().splitlines()[1:]]
    stories = [row for row in rows if row[0] != "ALL"]
    assert [row[11] == "" for row in stories] == [False] * 6 + [True] * 2
    totals = [row for row in rows if row[0] == "ALL"]
    assert [row[1] for row in totals] == ["a", "b"]
    for total in totals:
        group = [row for row in stories if row[1] == total[1]]
        for field in range(2, 12):
            values = [float(row[field]) for row in group if row[field]]
            assert total[field] == (repr(float(np.mean(values))) if values else "")
        assert total[12] == "4"


@pytest.mark.parametrize("mode, option", [
    ("suspense", "--gold"), ("suspense", "--trace"), ("suspense", "--k"),
    ("turning-points", "--annotations"), ("turning-points", "--trace"),
    ("turning-points", "--k"), ("salience", "--annotations")])
def test_evaluate_option_of_other_mode_exit_2(tmp_path, demo_trace, capsys, mode, option):
    out = tmp_path / "curves"
    main(["analyze", "--trace", str(demo_trace), "--out", str(out)])
    ann = AnnotationSet(story_id="story", annotators={
        "a1": (Judgment.SAME, Judgment.INCREASE, Judgment.DECREASE) * 2,
        "a2": (Judgment.SAME, Judgment.BIG_INCREASE, Judgment.SAME) * 2})
    write_annotations(ann, tmp_path / "story.ann")
    write_gold(GoldLabels(kind="turning_points", tp_positions=(0, 1, 2, 3, 5)),
               tmp_path / "tp.txt")
    write_gold(GoldLabels(kind="salience", salient_indices=frozenset({1, 3})),
               tmp_path / "gold.txt")
    refs = {"suspense": ["--annotations", str(tmp_path / "story.ann")],
            "turning-points": ["--gold", str(tmp_path / "tp.txt")],
            "salience": ["--gold", str(tmp_path / "gold.txt")]}
    argv = ["evaluate", str(out / "story.csv"), "--mode", mode, *refs[mode],
            "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    # the stray value would fail if it were read: a missing file, or k = 0
    assert main(argv + [option, "0" if option == "--k" else str(tmp_path / "absent")]) == 2
    assert option in capsys.readouterr().err


def test_evaluate_k_below_one_exit_2_before_reading(tmp_path, capsys):
    code = main(["evaluate", str(tmp_path / "absent.csv"), "--mode", "salience",
                 "--gold", str(tmp_path / "absent.txt"), "--k", "0",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "--k" in capsys.readouterr().err


def test_plot_rejects_second_gold(tmp_path, capsys):
    csv = tmp_path / "story.csv"
    csv.write_text("sentence,ely_surprise\n0,0.5\n1,0.25\n")
    gold = tmp_path / "gold.txt"
    write_gold(GoldLabels(kind="salience", salient_indices=frozenset({1})), gold)
    argv = ["plot", str(csv), "--gold", str(gold), "--out", str(tmp_path / "plots")]
    assert main(argv) == 0
    assert main(argv + ["--gold", str(tmp_path / "absent.txt")]) == 2
    assert "--gold" in capsys.readouterr().err


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


def _pid(_):
    return os.getpid()


def test_map_keeps_order_and_forks_only_for_several_items(cpus, monkeypatch):
    assert cli._map(abs, [-3, 2, -1, 0]) == [3, 2, 1, 0]
    assert cli._map(_pid, [0]) == [os.getpid()]
    pids = cli._map(_pid, [0, 1, 2])
    assert (os.getpid() in pids) == (cpus == 1)
    # a process with other threads is not forked
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        assert cli._map(_pid, [0, 1, 2]) == [os.getpid()] * 3
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    # a system without sched_getaffinity is not Linux: nothing is forked
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._map(_pid, [0, 1, 2]) == [os.getpid()] * 3


def _nested_pids(_):
    """This process's pid, and the pids that a map inside it runs on."""
    return os.getpid(), cli._map(_pid, [0, 1])


def test_map_inside_a_worker_runs_inline(cpus):
    """A worker of _map forks no workers of its own."""
    for pid, nested in cli._map(_nested_pids, [0, 1]):
        assert nested == [pid, pid]
        assert (pid == os.getpid()) == (cpus == 1)


def _odd_fails(i):
    if i % 2:
        raise ValueError(f"item {i}")
    return i


def _exit_in_a_worker(parent_pid):
    if os.getpid() != parent_pid:
        os._exit(3)


def test_map_raises_the_first_error_in_item_order(cpus):
    with pytest.raises(ValueError, match="item 1"):
        cli._map(_odd_fails, [0, 2, 4, 1, 3])  # dealt to two workers: 1 is in the second
    if cpus > 1:
        with pytest.raises(RuntimeError, match="exited without its results"):
            cli._map(_exit_in_a_worker, [os.getpid()] * 2)


def _bare_value_error(*args, **kwargs):
    raise ValueError("a check that no reader makes")


def test_leftover_value_error_exit_2(tmp_path, demo_trace, capsys, monkeypatch, cpus):
    """main() reports a ValueError that no handler names with exit 2, raised
    in this process (one CPU) or in a worker of _map (two)."""
    monkeypatch.setattr(cli, "_columns", _bare_value_error)
    second = tmp_path / "second.trace"
    second.write_text(demo_trace.read_text())
    assert main(["analyze", "--trace", str(demo_trace), "--trace", str(second),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: a check that no reader makes\n"


def _three_traces(tmp_path) -> list[Path]:
    embedder = baseline.HashEmbedder(dim=8, seed=2)
    paths = []
    for s in range(3):
        sentences = [f"the {w} {s} watched the river" for w in ("storm", "door", "fire")]
        sentences += ["an old letter waited", f"night {s} returned slowly"][:1 + s % 2]
        trace = baseline.build_trace(sentences, embedder, window_tokens=16, seed=s,
                                     story_id=f"s{s}")
        paths.append(tmp_path / f"s{s}.trace")
        write_trace(trace, paths[-1])
    return paths


def test_several_inputs_equal_one_at_a_time(tmp_path, cpus):
    traces = _three_traces(tmp_path)
    gold = [tmp_path / f"s{s}_gold.txt" for s in range(3)]
    for s, path in enumerate(gold):
        write_gold(GoldLabels(kind="salience", salient_indices=frozenset({s, 3})), path)
    assert main(["analyze", *(a for t in traces for a in ("--trace", str(t))),
                 "--out", str(tmp_path / "all")]) == 0
    assert main(["evaluate", *(str(tmp_path / "all" / f"s{s}.csv") for s in range(3)),
                 "--mode", "salience", *(a for g in gold for a in ("--gold", str(g))),
                 *(a for t in traces for a in ("--trace", str(t))),
                 "--out", str(tmp_path / "all.csv")]) == 0
    story_rows = []
    for s, trace in enumerate(traces):
        one = tmp_path / f"one{s}"
        assert main(["analyze", "--trace", str(trace), "--out", str(one)]) == 0
        assert (one / f"s{s}.csv").read_bytes() == (tmp_path / "all" / f"s{s}.csv").read_bytes()
        assert main(["evaluate", str(one / f"s{s}.csv"), "--mode", "salience",
                     "--gold", str(gold[s]), "--trace", str(trace),
                     "--out", str(one / "r.csv")]) == 0
        story_rows += [r for r in (one / "r.csv").read_text().splitlines()[1:]
                       if not r.startswith("ALL,")]
    rows = (tmp_path / "all.csv").read_text().splitlines()[1:]
    assert [r for r in rows if not r.startswith("ALL,")] == story_rows


def _flat_trace(path: Path, story_id: str) -> Path:
    """Equal embeddings: ely_surprise is constant, so --zscore of it fails."""
    lines = [json.dumps({"story_id": story_id, "embedding_dim": 2, "meta": {}})]
    lines += [json.dumps({"index": i, "e": [1.0, 0.5]}) for i in range(4)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("second, code", [("malformed", 2), ("missing", 3), ("flat", 4)])
def test_read_errors_of_any_trace_come_before_compute_errors(tmp_path, capsys, cpus,
                                                             second, code):
    """The first trace fails only when scored (--zscore of a constant
    series, exit 4); a read error of the second trace still wins."""
    first = _flat_trace(tmp_path / "first.trace", "first")
    other = tmp_path / "second.trace"
    if second == "malformed":
        _flat_trace(other, "second")
        lines = other.read_text().splitlines()
        lines[2] = lines[2].replace('"index": 1', '"index": "1"')
        other.write_text("\n".join(lines) + "\n")
    elif second == "flat":
        _flat_trace(other, "second")
    argv = ["analyze", "--trace", str(first), "--trace", str(other), "--metrics",
            "ely_surprise", "--zscore", "--out", str(tmp_path / "out")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert {2: f"{other} line 3: ", 3: str(other), 4: "is constant"}[code] in err
    assert (tmp_path / "out").exists() == (code == 4)  # made after the reads


@pytest.mark.parametrize("second, code", [("malformed", 2), ("missing", 3), ("constant", 4)])
def test_evaluate_read_errors_of_any_story_come_before_scoring_errors(tmp_path, capsys, cpus,
                                                                       second, code):
    """The first story fails only when scored (constant annotator curves,
    exit 4); a read error of the second story's annotations still wins."""
    csvs = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    anns = [tmp_path / "s1.ann", tmp_path / "s2.ann"]
    for csv, ann in zip(csvs, anns):
        csv.write_text("sentence,like\n" + "".join(f"{i},{i % 3}.5\n" for i in range(4)))
        ann.write_text('{"story_id": "s"}\na1\tS S S S\na2\tS S S S\n')
    if second == "malformed":
        anns[1].write_text('{"story_id": "s"}\na1\tS X S S\na2\tS S S S\n')
    elif second == "missing":
        anns[1].unlink()
    argv = ["evaluate", *map(str, csvs), "--mode", "suspense",
            *(a for ann in anns for a in ("--annotations", str(ann))),
            "--out", str(tmp_path / "r.csv")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert {2: f"error: {anns[1]} line 2: ", 3: str(anns[1]),
            4: f"error: {csvs[0]}: "}[code] in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("third", [None, "malformed"])
def test_analyze_and_plot_refuse_two_inputs_that_write_one_file(tmp_path, capsys, cpus, third):
    """Two traces of one story_id, or two CSVs of one file name, in
    different directories: exit 2 naming both, and no output written. A
    read error of any trace still comes first."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    traces = [_flat_trace(tmp_path / d / "s.trace", "s") for d in "ab"]
    if third is not None:
        bad = _flat_trace(tmp_path / "t.trace", "t")
        bad.write_text(bad.read_text().replace('"index": 2', '"index": "2"'))
        traces.append(bad)
    out = tmp_path / "out"
    assert main(["analyze", *(a for t in traces for a in ("--trace", str(t))),
                 "--metrics", "ely_surprise", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if third is None:
        assert err == f"error: {traces[0]} and {traces[1]} would both write {out / 's.csv'}\n"
    else:
        assert err.startswith(f"error: {traces[2]} line 4: ")
    assert not out.exists() or not any(out.iterdir())
    csvs = [tmp_path / d / "s.csv" for d in "ab"]
    for csv in csvs:
        csv.write_text("sentence,like\n0,1.5\n1,0.5\n")
    plots = tmp_path / "plots"
    assert main(["plot", *map(str, csvs), "--out", str(plots)]) == 2
    assert capsys.readouterr().err == (f"error: {csvs[0]} and {csvs[1]} would both write "
                                       f"{plots / 's.svg'}\n")
    assert not plots.exists()


@pytest.mark.parametrize("case", ["trace", "second_trace", "csv_lf", "csv_crlf", "csv_cr"])
def test_not_utf8_exit_2_names_line(tmp_path, demo_trace, capsys, cpus, case):
    if case.startswith("csv"):
        eol = {"csv_lf": b"\n", "csv_crlf": b"\r\n", "csv_cr": b"\r"}[case]
        bad = tmp_path / "story.csv"
        bad.write_bytes(eol.join([b"sentence,like", b"0,0.5", b"1,0.\xff", b""]))
        argv = ["plot", str(bad), "--out", str(tmp_path / "plots")]
    else:
        bad = tmp_path / "bad.trace"
        lines = demo_trace.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"text":"', b'"text":"\xe9', 1)
        bad.write_bytes(b"\n".join(lines))
        first = [str(demo_trace)] if case == "second_trace" else []
        argv = ["analyze", *(a for t in [*first, str(bad)] for a in ("--trace", t)),
                "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"{bad} line 3: not valid UTF-8" in capsys.readouterr().err


def test_every_analyze_flag_changes_the_output(tmp_path, demo_trace):
    base = {"--metrics": "ely_surprise", "--measures": "random"}
    changed = {"--metrics": "ely_suspense", "--measures": "like", "--distance": "l1",
               "--zscore": None, "--seed": "1"}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices["analyze"]
    options = {a.option_strings[-1] for a in sub._actions
               if a.option_strings and a.dest not in ("help", "trace", "out")}
    assert options == set(changed)

    def run(name, opts):
        argv = ["analyze", "--trace", str(demo_trace), "--out", str(tmp_path / name)]
        for opt, value in opts.items():
            argv += [opt] if value is None else [opt, value]
        assert main(argv) == 0
        return (tmp_path / name / "story.csv").read_bytes()

    reference = run("base", base)
    for opt, value in changed.items():
        assert run(opt.strip("-"), {**base, opt: value}) != reference, opt


@pytest.fixture()
def perfbench_modules(monkeypatch):
    """perfbench's instrument and spans modules, imported without writing
    bytecode next to them and removed from sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import instrument
    import spans
    yield instrument, spans
    for name in ("instrument", "spans"):
        sys.modules.pop(name, None)


def test_benchmark_hooks_resolve_and_record(tmp_path, demo_trace, perfbench_modules):
    """The traced benchmark wraps functions by name; a rename fails here."""
    from storymetrics import cli, model, retrieval
    instrument, spans = perfbench_modules
    originals = (cli.cmd_evaluate, cli.ThreadPoolExecutor, retrieval.score,
                 retrieval.PassageStore.top_k)
    rec = spans.Recorder()
    patcher = instrument.instrument(rec)
    try:
        curves, gold = tmp_path / "curves", tmp_path / "gold.txt"
        write_gold(GoldLabels(kind="salience", salient_indices=frozenset({1, 3})), gold)
        assert main(["analyze", "--trace", str(demo_trace), "--measures", "like",
                     "--metrics", "ely_surprise", "--out", str(curves)]) == 0
        before = dict(rec.counts)
        # evaluate reads its trace with full=False, through the same hook
        assert main(["evaluate", str(curves / "story.csv"), "--mode", "salience",
                     "--gold", str(gold), "--trace", str(demo_trace),
                     "--out", str(tmp_path / "sal.csv")]) == 0
        for counter, grew_by in (("model.read_trace.calls", 1),
                                 ("model.read_trace.bytes", demo_trace.stat().st_size)):
            assert rec.counts[counter] - before[counter] == grew_by
        kb = retrieval.PassageStore(2, [retrieval.Passage("a", [1.0, 0.0], "", "kb"),
                                        retrieval.Passage("b", [0.0, 1.0], "", "kb")])
        cache = retrieval.MemoryCache(2)
        cache.add(retrieval.Passage("m", [1.0, 1.0], "", "memory"))
        retrieval.retrieve([1.0, 0.5], kb, cache, 1, 1, 1)
        retrieval.score([1.0, 0.5], [0.0, 1.0])  # the oracle; the scan itself calls no score()
        # 3 sentences of 3, 2 and 5 tokens with 4-token windows after the first
        # two: one block, so one index of the 10 tokens and one scoring call
        # over the 10 sentence tokens and 4 variants of both windows; the
        # builder embeds token spans, so embed is called here once directly
        before = dict(rec.counts)
        trace = baseline.build_trace(["the storm came", "a door", "rain fell on the river"],
                                     baseline.HashEmbedder(dim=4), window_tokens=4)
        model.write_trace(trace, tmp_path / "built.trace")
        baseline.HashEmbedder(dim=4).embed("the storm came")
        built = {k: v - before.get(k, 0) for k, v in rec.counts.items()}
        assert (built["model.write_trace.calls"], built["model.write_trace.bytes"]) == (
            1, (tmp_path / "built.trace").stat().st_size)
        assert {k: built.get(k) for k in ("baseline.build_trace.calls",
                                          "baseline.HashEmbedder.embed.calls",
                                          "baseline.NgramLM.train.calls",
                                          "baseline.NgramLM.train.tokens",
                                          "baseline.lm_loglik.calls",
                                          "baseline.lm_loglik.tokens")} == {
            "baseline.build_trace.calls": 1, "baseline.HashEmbedder.embed.calls": 1,
            "baseline.NgramLM.train.calls": 1, "baseline.NgramLM.train.tokens": 10,
            "baseline.lm_loglik.calls": 1,
            "baseline.lm_loglik.tokens": (3 + 2 + 5) + 4 * (4 + 4)}
    finally:
        patcher.restore()
    assert (cli.cmd_evaluate, cli.ThreadPoolExecutor, retrieval.score,
            retrieval.PassageStore.top_k) == originals
    names = {s.name for s in rec.spans}
    assert {"cli.cmd_analyze", "cli.cmd_evaluate.salience", "cli.read_series_csv",
            "model.read_trace", "model.read_gold", "suspense.metric_series.ely_surprise",
            "salience.salience_series.like", "evaluation.rouge_l",
            "retrieval.PassageStore.top_k", "retrieval.MemoryCache.top_k",
            "retrieval.MemoryCache.add", "baseline.build_trace", "baseline.HashEmbedder.embed",
            "baseline.NgramLM.train", "baseline.lm_loglik", "model.write_trace"} <= names
    assert rec.counts["retrieval.score.calls"] == 1


# `import storymetrics.cli` loads none of these: scipy is a test extra, and
# the process pool is imported only when a command maps several inputs
@pytest.mark.parametrize("module", ["scipy", "multiprocessing", "concurrent.futures.process"])
def test_cli_import_does_not_load(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, storymetrics.cli; print(sorted(m for m in sys.modules "
            f"if m == {module!r} or m.startswith({module!r} + '.')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"


def _with_record_field(path, out, line: int, field: str, value) -> None:
    """The trace at `path`, written to `out` with `field` of record line
    `line` (1-based) set to value(the field's value)."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[line - 1])
    record[field] = value(record[field])
    lines[line - 1] = json.dumps(record)
    out.write_text("\n".join(lines) + "\n")


def test_scoring_error_names_its_trace(tmp_path, demo_trace, capsys):
    good, bad = tmp_path / "good.trace", tmp_path / "bad.trace"
    good.write_text(demo_trace.read_text())
    # line 5 is sentence 3; its window embeddings lose 'base'
    _with_record_field(demo_trace, bad, 5, "win_emb",
                       lambda win: {k: v for k, v in win.items() if k != "base"})
    assert main(["analyze", "--trace", str(good), "--trace", str(bad), "--measures", "emb_sal",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert (f"error: {bad} line 5: sentence 3: window embeddings for 'base' and 'deleted' "
            "required" in err)
    assert str(good) not in err


def test_scoring_error_about_one_sentence_names_its_line_in_the_input(tmp_path):
    """A scoring error about one sentence names that sentence's line in the
    file its story read, here a series CSV whose blank lines and line ends
    of each kind are counted; an error about no one sentence names no line."""
    csv = tmp_path / "story.csv"
    csv.write_bytes(b"sentence,a\r\n\r\n0,1.5\r1,2.5\n \n2,0.5\n")
    for error, prefix in ((ValidationError("sentence 2: bad", 2), f"{csv} line 6: "),
                          (ValidationError("bad"), f"{csv}: ")):
        def score(columns):
            raise error
        returned = cli._job(read_series_csv, score, (csv,))
        assert type(returned) is ValidationError and str(returned) == f"{prefix}{error}"


@pytest.mark.parametrize("option, field, value", [
    # finite log-likelihoods whose window mean overflows
    ("--measures=like", "win_ll", lambda win: {**win, "base": [1e308, 1e308]}),
    # a finite embedding entry whose squared distance to the sentence
    # before overflows
    ("--metrics=ely_surprise", "e", lambda e: [1e308, *e[1:]]),
], ids=["like", "ely_surprise"])
def test_overflow_exits_2_without_warning(tmp_path, demo_trace, capsys, option, field, value):
    """pytest turns any warning into an error here, so a numpy
    RuntimeWarning would fail the run before its message."""
    bad = tmp_path / "bad.trace"
    _with_record_field(demo_trace, bad, 5, field, value)  # sentence 3
    assert main(["analyze", "--trace", str(bad), option, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} line 5: ")
    assert "sentence 3" in err
    assert "Warning" not in err


def test_zscore_overflow_exits_4_without_warning(tmp_path, demo_trace, capsys):
    """A finite e entry of 1e150 makes a finite ely_surprise near 1e300,
    whose standard deviation overflows: an error, not a column of zeros."""
    bad = tmp_path / "bad.trace"
    _with_record_field(demo_trace, bad, 5, "e", lambda e: [1e150, *e[1:]])
    out = tmp_path / "x"
    assert main(["analyze", "--trace", str(bad), "--metrics", "ely_surprise", "--zscore",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: series 'ely_surprise' cannot be z-scored")
    assert "Warning" not in err
    assert not list(out.glob("*.csv"))


def _run_python(code: str, **env) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**base, "PYTHONPATH": src, **env}, check=True).stdout.strip()


def test_package_import_loads_no_numpy():
    assert _run_python("import sys, storymetrics; print('numpy' in sys.modules)") == "False"
    # a public name still resolves, and then loads it
    assert _run_python("import sys, storymetrics; storymetrics.StoryTrace; "
                       "print('numpy' in sys.modules)") == "True"


@pytest.mark.parametrize("user, want", [(None, "1"), ("2", "2")])
def test_cli_runs_blas_on_one_thread_unless_told(user, want):
    code = "import os, storymetrics.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {} if user is None else {"OPENBLAS_NUM_THREADS": user}
    assert _run_python(code, **env) == want


def _old_read_series_csv(path) -> dict:
    """The row-by-row reader that read_series_csv replaced: the oracle of
    its columns and of its first fault."""
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
    rows = []
    for ln_no, line in lines:
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValidationError(f"{path} line {ln_no}: wrong column count")
        if parts[0].strip() != str(len(rows)):
            raise ValidationError(f"{path} line {ln_no}: sentence {parts[0]!r} in row {len(rows)}")
        try:
            row = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ValidationError(f"{path} line {ln_no}: {exc}") from exc
        if not all(math.isfinite(v) for v in row):
            raise ValidationError(f"{path} line {ln_no}: non-finite value in {line!r}")
        rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: series CSV has no data rows")
    data = np.asarray(rows, float)
    return {name: data[:, j] for j, name in enumerate(header[1:])}


def _outcome(read, path):
    try:
        return [(name, repr(col.tolist())) for name, col in read(path).items()]
    except ValidationError as exc:
        return type(exc), str(exc)


# one-line corruptions of a series CSV: a line -> its replacement
_CORRUPTIONS = {
    "cell_dropped": lambda line: line.rsplit(",", 1)[0],
    "cell_added": lambda line: line + ",0.5",
    "cell_empty": lambda line: line.rsplit(",", 1)[0] + ",",
    "cell_word": lambda line: line.rsplit(",", 1)[0] + ",abc",
    "cell_nan": lambda line: line.rsplit(",", 1)[0] + ",nan",
    "cell_inf": lambda line: line.rsplit(",", 1)[0] + ",-inf",
    "cell_overflow": lambda line: line.rsplit(",", 1)[0] + ",1e999",
    "cell_padded": lambda line: line.rsplit(",", 1)[0] + ", 2.5 ",
    "sentence_word": lambda line: "x," + line.partition(",")[2],
    "sentence_padded": lambda line: " " + line,
    "sentence_float": lambda line: line.partition(",")[0] + ".0," + line.partition(",")[2],
    "blank": lambda line: "",
    "not_utf8": lambda line: "\udcff",
}


@settings(max_examples=60, deadline=None)
@given(columns=series_columns(), faults=st.lists(
    st.tuples(st.integers(0, 60), st.sampled_from(sorted(_CORRUPTIONS))), max_size=2))
@example(columns={"0": np.array([0.0])}, faults=[(0, "blank"), (0, "sentence_float")])
def test_series_csv_reader_equals_the_row_by_row_reader(tmp_path_factory, columns, faults):
    """Any one or two corrupted lines (the header included) give the old
    reader's columns or its error, which names the first faulty line."""
    path = tmp_path_factory.mktemp("series") / "story.csv"
    cli._write_series_csv(path, columns)
    lines = path.read_text().split("\n")[:-1]
    for at, kind in faults:
        at %= len(lines)
        lines[at] = _CORRUPTIONS[kind](lines[at])
    path.write_bytes("\n".join(lines + [""]).encode("utf-8", "surrogateescape"))
    assert _outcome(read_series_csv, path) == _outcome(_old_read_series_csv, path)


def test_series_csv_each_corruption_of_each_line(tmp_path):
    path = tmp_path / "story.csv"
    columns = {"a": np.array([0.5, -0.0, 3.0, 1e-300]), "b b": np.array([1.0, 2.0, 3.0, 4.0])}
    cli._write_series_csv(path, columns)
    lines = path.read_text().split("\n")[:-1]
    for at in range(len(lines)):
        for corrupt in _CORRUPTIONS.values():
            changed = lines[:at] + [corrupt(lines[at])] + lines[at + 1:]
            path.write_bytes("\n".join(changed + [""]).encode("utf-8", "surrogateescape"))
            assert _outcome(read_series_csv, path) == _outcome(_old_read_series_csv, path)
