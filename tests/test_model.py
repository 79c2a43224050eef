"""Data model validation and trace/annotation/gold file round-trips."""

import json
import math
import os
import re
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from storymetrics import model
from storymetrics.model import (PROB_RENORM_TOL, AnnotationSet, ContinuationSample,
                                ContinuationSet, GoldLabels, Judgment,
                                MetricSeries, ParseError, SentenceRecord,
                                StoryTrace, ValidationError, _json_numbers, _run_sums,
                                content_lines, read_annotations, read_gold, read_trace,
                                write_annotations, write_gold, write_trace)
from storymetrics.retrieval import Passage

from strategies import FINITE, annotation_sets, gold_labels, traces
from test_cli import _BAD_RECORDS


def _record(index, emb, **kwargs):
    return SentenceRecord(index=index, embedding=np.asarray(emb, float), **kwargs)


def _minimal_trace():
    return StoryTrace(story_id="s", sentences=(_record(0, [1.0, 0.0]),),
                      embedding_dim=2)


def make_random_trace(rng, n_sentences, dim):
    records = []
    for t in range(n_sentences):
        kwargs = {}
        if rng.random() < 0.7:
            kwargs["text"] = "sentence %d" % t
        if rng.random() < 0.7:
            kwargs["avg_log_likelihood"] = float(rng.normal())
        if rng.random() < 0.7:
            kwargs["window_token_loglikes"] = {
                "base": tuple(float(v) for v in -rng.random(3)),
                "deleted": tuple(float(v) for v in -rng.random(3)),
            }
        if rng.random() < 0.7:
            kwargs["window_embedding"] = {
                "base": rng.normal(size=dim),
                "deleted": rng.normal(size=dim),
            }
        if rng.random() < 0.7:
            kwargs["sentiment"] = float(rng.uniform(-1, 1))
        if rng.random() < 0.7:
            k = int(rng.integers(1, 4))
            probs = rng.random(k)
            probs /= probs.sum()
            kwargs["continuations"] = ContinuationSet(
                horizon=1,
                samples=tuple(ContinuationSample(embedding=rng.normal(size=dim),
                                                 raw_score=float(rng.normal()))
                              for _ in range(k)),
                probabilities=probs,
            )
        records.append(_record(t, rng.normal(size=dim), **kwargs))
    return StoryTrace(story_id="rnd", sentences=tuple(records),
                      embedding_dim=dim, meta={"corpus": "unit-test"})


def traces_equal(a, b):
    if (a.story_id, a.embedding_dim, dict(a.meta)) != (b.story_id, b.embedding_dim, dict(b.meta)):
        return False
    if len(a) != len(b):
        return False
    for ra, rb in zip(a.sentences, b.sentences):
        if ra.index != rb.index or ra.text != rb.text:
            return False
        if not np.array_equal(ra.embedding, rb.embedding):
            return False
        if (ra.avg_log_likelihood is None) != (rb.avg_log_likelihood is None):
            return False
        if ra.avg_log_likelihood is not None and ra.avg_log_likelihood != rb.avg_log_likelihood:
            return False
        if (ra.window_token_loglikes is None) != (rb.window_token_loglikes is None):
            return False
        if ra.window_token_loglikes is not None:
            if set(ra.window_token_loglikes) != set(rb.window_token_loglikes):
                return False
            for key in ra.window_token_loglikes:
                if tuple(ra.window_token_loglikes[key]) != tuple(rb.window_token_loglikes[key]):
                    return False
        if (ra.window_embedding is None) != (rb.window_embedding is None):
            return False
        if ra.window_embedding is not None:
            for key in ra.window_embedding:
                if not np.array_equal(ra.window_embedding[key], rb.window_embedding[key]):
                    return False
        if ra.sentiment != rb.sentiment:
            return False
        if (ra.continuations is None) != (rb.continuations is None):
            return False
        if ra.continuations is not None:
            ca, cb = ra.continuations, rb.continuations
            if ca.horizon != cb.horizon or len(ca.samples) != len(cb.samples):
                return False
            for sa, sb in zip(ca.samples, cb.samples):
                if not np.array_equal(sa.embedding, sb.embedding) or sa.raw_score != sb.raw_score:
                    return False
            if (ca.probabilities is None) != (cb.probabilities is None):
                return False
            if ca.probabilities is not None and not np.allclose(
                    ca.probabilities, cb.probabilities, rtol=0.0, atol=1e-12):
                # reading renormalizes the probability vector, which can move
                # each entry by one ulp when the written sum is not exactly 1
                return False
    return True


# --- type invariants ---------------------------------------------------------

def _vector():
    return np.array([1.0, 2.0])


_HOLDERS_OF_ARRAYS = {
    "sample": lambda: ContinuationSample(_vector()),
    "set": lambda: ContinuationSet(1, (ContinuationSample(_vector()),), [1.0]),
    "record": lambda: SentenceRecord(0, _vector(), window_embedding={"base": _vector()}),
    "trace": lambda: StoryTrace("s", (SentenceRecord(0, _vector()),), 2),
    "series": lambda: MetricSeries("m", _vector()),
    "passage": lambda: Passage("p", _vector(), "x", "kb"),
}


@pytest.mark.parametrize("make", _HOLDERS_OF_ARRAYS.values(), ids=_HOLDERS_OF_ARRAYS)
def test_types_that_hold_arrays_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2


# each array field a constructor makes read-only, built from the caller's
# float64 array of two values
_ARRAY_FIELDS = {
    "MetricSeries.values": lambda a: MetricSeries("m", a).values,
    "SentenceRecord.embedding": lambda a: SentenceRecord(0, a).embedding,
    "ContinuationSample.embedding": lambda a: ContinuationSample(a).embedding,
    "ContinuationSet.probabilities": lambda a: ContinuationSet(
        1, (ContinuationSample(np.ones(2)),) * 2, a).probabilities,
    "Passage.key": lambda a: Passage("p", a, "x", "kb").key,
    "Passage.token_dist": lambda a: Passage("p", np.ones(1), "x", "kb", token_dist=a).token_dist,
}


@pytest.mark.parametrize("field", _ARRAY_FIELDS)
def test_a_constructor_copies_the_callers_array(field):
    caller = np.array([0.25, 0.75])
    held = _ARRAY_FIELDS[field](caller)
    assert caller.flags.writeable and not held.flags.writeable
    caller[0] = 0.5
    assert held.tolist() == [0.25, 0.75]


def test_run_sums_equal_np_sum_of_each_run():
    """Runs of every length from 0 to 300, several of each, in shuffled
    order: bit for bit np.sum of each run alone. A run of length 0 sums to
    0, with no warning. (test_salience checks their means against np.mean.)"""
    rng = np.random.default_rng(12)
    lengths = rng.permutation(np.repeat(np.arange(301), 3))
    runs = [rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) for n in lengths]
    assert (_run_sums(np.concatenate(runs), lengths).tolist()
            == [float(np.sum(run)) for run in runs])
    assert _run_sums(np.empty(0), [0, 0]).tolist() == [0.0, 0.0]
    assert _run_sums(np.empty(0), []).tolist() == []


def test_minimal_trace_valid():
    trace = _minimal_trace()
    assert len(trace) == 1
    assert trace.embedding_dim == 2


def test_trace_requires_sentences():
    with pytest.raises(ValidationError):
        StoryTrace(story_id="s", sentences=(), embedding_dim=2)


def test_trace_rejects_noncontiguous_indices():
    with pytest.raises(ValidationError, match=re.escape(
            "sentence 1: sentence index 2, expected 1; indices must be contiguous from 0")):
        StoryTrace(story_id="s",
                   sentences=(_record(0, [1, 0]), _record(2, [0, 1])),
                   embedding_dim=2)


def test_trace_keeps_only_its_columns():
    """A trace built from records checks them into columns and lets them
    go: its sentences are new views of the columns, with no vector shared
    with the records it was given, and each number of them a float."""
    records = make_random_trace(np.random.default_rng(5), 6, 3).sentences
    records += (_record(6, [1.0, 2.0, 3.0], avg_log_likelihood=-3),)
    trace = StoryTrace(story_id="s", sentences=records, embedding_dim=3)
    assert "sentences" not in vars(trace)
    _assert_views_of_columns(trace)
    given = [vec for rec in records for _, vec in _vectors(rec)]
    kept = [vec for rec in trace.sentences for _, vec in _vectors(rec)]
    assert len(kept) == len(given)
    assert not any(np.shares_memory(a, b) for a in kept for b in given)
    assert all(a is not b for a, b in zip(trace.sentences, records))
    assert repr(trace.sentences[-1].avg_log_likelihood) == "-3.0"


@pytest.mark.parametrize("make, message", [
    (lambda: SentenceRecord(0, [10**400]), "embedding contains non-finite values"),
    (lambda: SentenceRecord(0, [1.0, -10**400]), "embedding contains non-finite values"),
    (lambda: _record(0, [1.0], avg_log_likelihood=10**400), "avg_log_likelihood must be finite"),
    (lambda: _record(0, [1.0], window_token_loglikes={"base": [10**400]}),
     "window_token_loglikes['base'] contains non-finite values"),
    (lambda: ContinuationSample([1.0], raw_score=-10**400), "sample raw_score must be finite"),
    (lambda: ContinuationSample([10**400]), "sample embedding contains non-finite values"),
    (lambda: ContinuationSet(1, (ContinuationSample([1.0]),), probabilities=[10**400]),
     "continuation probabilities contains non-finite values")])
def test_constructors_refuse_integers_too_large_for_a_float(make, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        make()


def test_trace_rejects_dim_mismatch():
    with pytest.raises(ValidationError):
        StoryTrace(story_id="s",
                   sentences=(_record(0, [1, 0]), _record(1, [0, 1, 2])),
                   embedding_dim=2)


def test_trace_rejects_continuation_dim_mismatch():
    cont = ContinuationSet(horizon=1, samples=(ContinuationSample(np.array([1.0, 0.0, 0.0])),))
    rec = SentenceRecord(index=0, embedding=np.array([1.0, 0.0]), continuations=cont)
    with pytest.raises(ValidationError, match="sentence 0: continuation sample length 3"):
        StoryTrace(story_id="s", sentences=(rec,), embedding_dim=2)


def test_trace_rejects_window_embedding_dim_mismatch():
    rec = _record(0, [1.0, 0.0, 2.0],
                  window_embedding={"base": [1.0, 0.0, 2.0], "deleted": [1.0, 0.5]})
    with pytest.raises(ValidationError, match=re.escape(
            "sentence 0: window_embedding['deleted'] length 2 does not match embedding_dim=3")):
        StoryTrace(story_id="s", sentences=(rec,), embedding_dim=3)


# Objects whose files read_trace would refuse, or read back changed (a JSON
# object's keys are strings)
_UNREADABLE = {
    "path_story_id": (lambda: StoryTrace("../x", (_record(0, [1.0]),), 1),
                      "story_id must be a plain file name, got '../x'"),
    "meta_value_not_string": (lambda: StoryTrace("s", (_record(0, [1.0]),), 1, meta={"k": 1}),
                              "meta must be an object of strings, got {'k': 1}"),
    "meta_key_not_string": (lambda: StoryTrace("s", (_record(0, [1.0]),), 1, meta={1: "a"}),
                            "meta must be an object of strings, got {1: 'a'}"),
    "bool_embedding_dim": (lambda: StoryTrace("s", (_record(0, [1.0]),), True),
                           "embedding_dim must be an integer, got True"),
    "bool_sentiment": (lambda: _record(0, [1.0], sentiment=True),
                       "sentiment must be a number, got True"),
    "string_avg_ll": (lambda: _record(0, [1.0], avg_log_likelihood="-1.5"),
                      "avg_ll must be a number, got '-1.5'"),
    "numpy_index": (lambda: _record(np.int64(0), [1.0]),
                    "index must be an integer, got np.int64(0)"),
    "int_variant": (lambda: _record(0, [1.0], window_token_loglikes={0: [-1.0]}),
                    "window_token_loglikes variants must be strings, got [0]"),
    "bool_horizon": (lambda: ContinuationSet(horizon=True,
                                             samples=(ContinuationSample(np.array([1.0])),)),
                     "continuation n must be an integer, got True"),
    "bool_score": (lambda: ContinuationSample(np.array([1.0]), raw_score=False),
                   "sample score must be a number, got False"),
}


@pytest.mark.parametrize("case", _UNREADABLE)
def test_construction_refuses_what_read_trace_refuses(case):
    make, message = _UNREADABLE[case]
    with pytest.raises(ValidationError, match=re.escape(message)):
        make()


def test_sentiment_out_of_range_rejected():
    with pytest.raises(ValidationError):
        _record(0, [1, 0], sentiment=1.5)


def test_continuation_probs_must_sum_to_one():
    with pytest.raises(ValidationError):
        ContinuationSet(horizon=1,
                        samples=(ContinuationSample(embedding=np.array([1.0, 0.0])),),
                        probabilities=np.array([0.5]))


def test_metric_series_rejects_nonfinite():
    with pytest.raises(ValidationError):
        MetricSeries(name="x", values=np.array([1.0, np.nan]))


def test_gold_turning_points_needs_five():
    with pytest.raises(ValidationError):
        GoldLabels(kind="turning_points", tp_positions=(1, 2, 3))


def test_gold_windows_must_contain_positions():
    with pytest.raises(ValidationError):
        GoldLabels(kind="turning_points", tp_positions=(1, 2, 3, 4, 5),
                   tp_windows=((0, 2), (1, 3), (2, 4), (3, 5), (7, 9)))


@pytest.mark.parametrize("kwargs, bad", [
    ({"kind": "salience", "salient_indices": {1.5}}, "a salient index must be an integer, "
     "got 1.5"),
    ({"kind": "salience", "salient_indices": {0, True}}, "a salient index must be an integer, "
     "got True"),
    ({"kind": "turning_points", "tp_positions": (1, 2, 3.0, 4, 5)},
     "a turning-point position or window bound must be an integer, got 3.0"),
    ({"kind": "turning_points", "tp_positions": (1, 2, 3, 4, 5),
      "tp_windows": ((0.9, 1.9), (1, 3), (2, 4), (3, 5), (4, 6))},
     "a turning-point position or window bound must be an integer, got 0.9"),
    ({"kind": "turning_points", "tp_positions": (1, 2, 3, 4, 5),
      "tp_windows": ((0, 2), (1, 3), (2, 4), (3, 5), (4, True))},
     "a turning-point position or window bound must be an integer, got True")])
def test_gold_labels_refuse_what_is_no_integer(kwargs, bad):
    """Not truncated, and a bool is not taken for 0 or 1."""
    with pytest.raises(ValidationError, match=re.escape(bad)):
        GoldLabels(**kwargs)


# --- trace files -------------------------------------------------------------

def test_trace_round_trip_minimal(tmp_path):
    trace = _minimal_trace()
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    assert traces_equal(read_trace(path), trace)


def test_trace_round_trip_random(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(10):
        trace = make_random_trace(rng, int(rng.integers(1, 12)), int(rng.integers(2, 6)))
        path = tmp_path / f"r{i}.trace"
        write_trace(trace, path)
        assert traces_equal(read_trace(path), trace)


def test_trace_write_byte_stable(tmp_path):
    trace = make_random_trace(np.random.default_rng(3), 100, 4)
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    write_trace(trace, a)
    write_trace(trace, b)
    assert a.read_bytes() == b.read_bytes()


def test_trace_omits_absent_optionals(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(_minimal_trace(), path)
    body = path.read_text().splitlines()[1]
    for key in ("text", "avg_ll", "win_ll", "win_emb", "sentiment", "cont"):
        assert f'"{key}"' not in body


# The encoder write_trace had before, kept as its oracle: json.dumps of one
# dict per record, whose vectors are lists of Python floats.
def _vector_list(vec: np.ndarray) -> list[float]:
    return vec.tolist()


def _record_to_json(rec: SentenceRecord) -> dict:
    out: dict = {"index": rec.index}
    if rec.text is not None:
        out["text"] = rec.text
    out["e"] = _vector_list(rec.embedding)
    if rec.avg_log_likelihood is not None:
        out["avg_ll"] = rec.avg_log_likelihood
    if rec.window_token_loglikes is not None:
        out["win_ll"] = {k: _vector_list(v) for k, v in sorted(rec.window_token_loglikes.items())}
    if rec.window_embedding is not None:
        out["win_emb"] = {k: _vector_list(v) for k, v in sorted(rec.window_embedding.items())}
    if rec.sentiment is not None:
        out["sentiment"] = rec.sentiment
    if rec.continuations is not None:
        cont = rec.continuations
        samples = []
        for s in cont.samples:
            entry: dict = {"e": _vector_list(s.embedding)}
            if s.raw_score is not None:
                entry["score"] = s.raw_score
            samples.append(entry)
        cont_json: dict = {"n": cont.horizon, "samples": samples}
        if cont.probabilities is not None:
            cont_json["probs"] = _vector_list(cont.probabilities)
        out["cont"] = cont_json
    return out


def _oracle_bytes(trace: StoryTrace) -> bytes:
    def dump(obj):
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)
    lines = [dump({"story_id": trace.story_id, "embedding_dim": trace.embedding_dim,
                   "meta": {k: trace.meta[k] for k in sorted(trace.meta)}})]
    lines.extend(dump(_record_to_json(rec)) for rec in trace.sentences)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _one_record(rec: SentenceRecord, **meta) -> StoryTrace:
    return StoryTrace(story_id="s", sentences=(rec,), embedding_dim=rec.embedding.shape[0],
                      meta=meta)


_SHARED = np.array([0.5, -0.0, 0.5, 3.0])  # one array for a record and its samples, and a view


def _records(*embeddings, **kwargs) -> StoryTrace:
    """A trace of one record per embedding, each with the keyword fields."""
    return StoryTrace(story_id="s", embedding_dim=len(embeddings[0]), sentences=tuple(
        _record(i, e, **kwargs) for i, e in enumerate(embeddings)))


# one sample per sentence, each shared by the sets of the records before it
# (as build_trace shares them), and each holding its record's own array
_SAMPLES = tuple(ContinuationSample(np.array(e)) for e in
                 ([0.25, 1.5], [1.5, -0.0], [0.0, 0.25], [-0.0, 1.5], [1.5, 0.25]))


@settings(max_examples=60, deadline=None)
@given(trace=traces())
@example(trace=_one_record(_record(0, [-0.0, 0.0, 0.0, -0.0],
                                   window_token_loglikes={"base": [0.0, -0.0]})))
@example(trace=_one_record(_record(0, [5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                                      1e308, -1e308, 1.7976931348623157e308, -0.1])))
@example(trace=_one_record(_record(
    0, [0.25, 0.25, -1.5, 0.25], text="s", avg_log_likelihood=-1.5, sentiment=0.25,
    window_token_loglikes={"deleted": [-1.5], "base": [0.25, -1.5, -1.5]},
    window_embedding={"base": [0.25, 0.25, -1.5, 0.25], "deleted": [-1.5, -1.5, 0.25, 0.25]},
    continuations=ContinuationSet(horizon=2, samples=(
        ContinuationSample(np.array([-1.5, 0.25, 0.25, 0.25]), raw_score=0.25),)))))
@example(trace=_one_record(SentenceRecord(
    index=0, embedding=_SHARED, continuations=ContinuationSet(horizon=1, samples=(
        ContinuationSample(_SHARED), ContinuationSample(_SHARED[::-1]),
        ContinuationSample(_SHARED))))))
@example(trace=_one_record(_record(0, [1.0], avg_log_likelihood=np.float64(-1.5),
                                   sentiment=np.float64(-0.0))))
@example(trace=_one_record(_record(0, [1.0], avg_log_likelihood=-3, sentiment=1)))
@example(trace=_one_record(_record(0, [1.0, 0.0], continuations=ContinuationSet(
    horizon=1, samples=(ContinuationSample(np.array([1.0, 0.0]), raw_score=-2.5),
                        ContinuationSample(np.array([0.0, 1.0])),
                        ContinuationSample(np.array([1.0, 0.0]), raw_score=7)),
    probabilities=np.array([0.25, 0.0, 0.75])))))
@example(trace=_one_record(_record(0, [1.0], text='café — 北京 😀 "q" \\ \n\t\x00\u2028',
                                   window_embedding={}), ключ="значение", k="\ud800"))
# a float repeated across every seam of blocks of 1 and of 3 records
@example(trace=_records([0.1, 2.0], [3.0, 0.1], [0.1, 0.1], [0.1, 4.0], [5.0, 0.1]))
# -0.0 and 0.0 in one block and in different ones, the first of either in a block
@example(trace=_records([-0.0, 0.5], [0.0, -0.0], [0.5, 0.0], [-0.0, 0.5], [0.0, 0.0],
                        [-0.0, -0.0], window_token_loglikes={"base": [0.0, -0.0]}))
@example(trace=StoryTrace(story_id="s", embedding_dim=2, sentences=tuple(
    SentenceRecord(index=i, embedding=_SAMPLES[i].embedding, continuations=ContinuationSet(
        horizon=1, samples=(_SAMPLES[i + 1], *_SAMPLES[:i + 1]))) for i in range(4))))
def test_write_trace_equals_old_encoder(tmp_path_factory, trace):
    """write_trace formats each distinct float of a block of records once;
    the bytes are those of json.dumps over each record's dict, at any block
    size."""
    for block in (1, 3, model._BLOCK):
        path = tmp_path_factory.mktemp("write") / "t.trace"
        with patch.object(model, "_BLOCK", block):
            write_trace(trace, path)
        assert path.read_bytes() == _oracle_bytes(trace)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(FINITE, max_size=40).flatmap(
    lambda vs: st.permutations(vs + vs[:len(vs) // 2])))
@example(values=[0.5, -0.0, 0.0, 0.5, 5e-324, -0.0, 1e308, 0.0, -5e-324])
def test_each_distinct_calls_fn_once_per_bit_pattern(values):
    calls = Counter()

    def counted_repr(x: float) -> str:
        calls[x.hex()] += 1  # hex tells -0.0 from 0.0, as its bits do
        return repr(x)
    got = model.each_distinct(counted_repr, np.array(values, float), object)
    assert got.dtype == object
    assert got.tolist() == [repr(x) for x in values]
    assert calls == Counter({x.hex(): 1 for x in values})
    positive = np.abs(np.array(values + [1.0], float)) + 5e-324
    logs = model.each_distinct(math.log, positive, float)
    assert logs.dtype == np.float64
    assert logs.tobytes() == np.array([math.log(x) for x in positive.tolist()]).tobytes()


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text('{"story_id":"s","embedding_dim":2,"meta":{}}\n'
                    '{"index":0,"e":[1.0,0.0]}\n'
                    'not json\n')
    with pytest.raises(ParseError, match=re.escape(f"{path} line 3: invalid JSON")):
        read_trace(path)


def test_dim_mismatch_error_names_line(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text('{"story_id":"s","embedding_dim":2,"meta":{}}\n'
                    '{"index":0,"e":[1.0,0.0]}\n'
                    '{"index":1,"e":[1.0,0.0,0.0]}\n')
    with pytest.raises((ParseError, ValidationError), match="(line 3|dimension)"):
        read_trace(path)


def test_probabilities_renormalized_within_tolerance(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text('{"story_id":"s","embedding_dim":2,"meta":{}}\n'
                    '{"index":0,"e":[1.0,0.0],"cont":{"n":1,'
                    '"samples":[{"e":[1.0,0.0]},{"e":[0.0,1.0]}],'
                    '"probs":[0.5000000001,0.4999999998]}}\n')
    trace = read_trace(path)
    probs = trace.sentences[0].continuations.probabilities
    assert abs(float(probs.sum()) - 1.0) < 1e-12


def test_probabilities_rejected_outside_tolerance(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text('{"story_id":"s","embedding_dim":2,"meta":{}}\n'
                    '{"index":0,"e":[1.0,0.0],"cont":{"n":1,'
                    '"samples":[{"e":[1.0,0.0]},{"e":[0.0,1.0]}],'
                    '"probs":[0.6,0.5]}}\n')
    with pytest.raises((ParseError, ValidationError)):
        read_trace(path)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8), dim=st.integers(2, 5))
def test_trace_round_trip_property(tmp_path_factory, seed, n, dim):
    trace = make_random_trace(np.random.default_rng(seed), n, dim)
    path = tmp_path_factory.mktemp("rt") / "t.trace"
    write_trace(trace, path)
    assert traces_equal(read_trace(path), trace)


_LOGLIKES = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                st.integers(-10**6, 10**6)), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(win_ll=st.lists(st.dictionaries(st.sampled_from(["base", "deleted", "swapped"]),
                                       _LOGLIKES, min_size=1), min_size=1, max_size=4))
def test_window_loglikes_read_as_exact_float_arrays(tmp_path_factory, win_ll):
    d = tmp_path_factory.mktemp("win")
    lines = ['{"story_id":"s","embedding_dim":1,"meta":{}}']
    lines += [json.dumps({"index": i, "e": [1.0], "win_ll": w}) for i, w in enumerate(win_ll)]
    (d / "in.trace").write_text("\n".join(lines) + "\n")
    trace = read_trace(d / "in.trace")
    for rec, want in zip(trace.sentences, win_ll):
        assert set(rec.window_token_loglikes) == set(want)
        for variant, values in want.items():
            arr = rec.window_token_loglikes[variant]
            assert arr.dtype == np.float64 and not arr.flags.writeable
            assert repr(tuple(arr.tolist())) == repr(tuple(float(v) for v in values))
    write_trace(trace, d / "a.trace")
    write_trace(read_trace(d / "a.trace"), d / "b.trace")
    assert (d / "a.trace").read_bytes() == (d / "b.trace").read_bytes()
    for raw, want in zip((d / "a.trace").read_text().splitlines()[1:], win_ll):
        assert json.loads(raw)["win_ll"] == {k: [float(v) for v in vals]
                                             for k, vals in want.items()}


# A header and a valid first record come before each line, which is line 3
# and must carry index 1 with two entries in `e`. The second item is a
# fragment of the error both reads give, or None where both accept the line.
_IRREGULAR_LINES = {
    "text_float": ('{"index":1,"e":[1.0,0.0],"text":1.5}', "sentence text must be a string"),
    "text_int": ('{"index":1,"e":[1.0,0.0],"text":3}', "sentence text must be a string"),
    "index_bool": ('{"index":true,"e":[1.0,0.0]}', "index must be an integer, got True"),
    "index_float": ('{"index":1.0,"e":[1.0,0.0]}', "index must be an integer, got 1.0"),
    "e_int": ('{"index":1,"e":[1,0.0],"avg_ll":-1.0}', None),
    "e_string": ('{"index":1,"e":["1.5",0.0]}', "embedding must hold only numbers, got '1.5'"),
    "e_bool": ('{"index":1,"e":[true,0.0]}', "embedding must hold only numbers, got True"),
    "e_nan": ('{"index":1,"e":[NaN,0.0]}', "embedding contains non-finite values"),
    "e_overflow": ('{"index":1,"e":[1e400,0.0]}', "embedding contains non-finite values"),
    "e_missing": ('{"index":1,"text":"a"}', "missing or malformed embedding"),
    "e_short": ('{"index":1,"e":[1.0]}', "embedding length 1 does not match embedding_dim=2"),
    "not_object": ('[1.0,0.0]', "missing or malformed embedding"),
    "bad_json": ('{"index":1,"e":[1.0,', "invalid JSON"),
    "index_gap": ('{"index":2,"e":[1.0,0.0]}', "sentence index 2, expected 1"),
    "e_int_last": ('{"index":1,"e":[0.5,2],"text":"b","avg_ll":-1.0,"sentiment":0.5}', None),
    "e_1e999": ('{"index":1,"e":[0.5,1e999],"text":"b"}', "embedding contains non-finite values"),
    "e_true_last": ('{"index":1,"e":[0.5,true]}', "embedding must hold only numbers, got True"),
    "index_missing": ('{"e":[1.0,0.0],"text":"b"}', "malformed record: 'index'"),
    "index_true_with_text": ('{"index":true,"e":[1.0,0.0],"text":"b"}',
                             "index must be an integer, got True"),
}


@pytest.mark.parametrize("line, message", _IRREGULAR_LINES.values(), ids=_IRREGULAR_LINES)
def test_projected_read_judges_irregular_lines_as_the_full_read(tmp_path, line, message):
    path = tmp_path / "t.trace"
    path.write_text('{"story_id":"s","embedding_dim":2,"meta":{}}\n'
                    '{"index":0,"e":[1.0,0.0]}\n' + line + "\n")
    if message is None:
        full, projected = read_trace(path), read_trace(path, full=False)
        assert ([r.embedding.tobytes() for r in projected.sentences]
                == [r.embedding.tobytes() for r in full.sentences])
        assert full.sentences[1].avg_log_likelihood == -1.0
        assert projected.sentences[1].avg_log_likelihood is None
        return
    errors = []
    for full in (True, False):
        with pytest.raises(ParseError) as info:
            read_trace(path, full=full)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"{path} line 3: ") and message in errors[0]


def test_projected_row_keeps_only_index_text_and_e():
    """A projected row keeps only a line's index, text and e: each float of
    e as the bytes of its literal, and an integer as the integer."""
    line = '{"index":1,"e":[0.5,2],"text":"b","avg_ll":-1.0,"sentiment":0.5}'
    assert model._fields(line, full=False) == (1, "b", [b"0.5", 2], *[None] * 5)
    line = '{"index":1,"e":[0.5,2.0],"text":"b","avg_ll":-1.0,"sentiment":0.5}'
    assert model._fields(line, full=False) == (1, "b", [b"0.5", b"2.0"], *[None] * 5)


def test_projected_read_takes_a_line_whose_unread_fields_are_malformed(tmp_path):
    """avg_ll, win_ll and cont are not read by a projected read: a line that
    the full read refuses for them alone is taken, and the projected
    columns hold none of the fields it does not read, of any line."""
    path = tmp_path / "t.trace"
    path.write_text('{"story_id":"s","embedding_dim":2,"meta":{}}\n'
                    '{"index":0,"e":[1.0,0.0],"avg_ll":-1.0,"win_ll":{"base":[-1.0]},'
                    '"win_emb":{"base":[1.0,0.0]},"cont":{"n":1,"samples":[{"e":[1.0,0.0]}]}}\n'
                    '{"index":1,"e":[0.5,0.5],"text":"b","avg_ll":"x","win_ll":[1],'
                    '"cont":{"n":0}}\n')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))} line 3: "):
        read_trace(path)
    c = read_trace(path, full=False).columns
    assert c.text == (None, "b") and c.embeddings.tolist() == [[1.0, 0.0], [0.5, 0.5]]
    assert not (c.has_avg_ll.any() or c.has_win_ll.any() or c.has_win_emb.any())
    assert c.counts.tolist() == [0, 0]


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
def test_projected_read_takes_an_integer_in_e_beside_a_malformed_cont(tmp_path, monkeypatch,
                                                                      cpus):
    """A record whose e holds an integer literal is projected as one whose
    e holds only float literals: its malformed cont, which the projection
    does not read, is refused by the full read alone, at any CPU count."""
    monkeypatch.setattr(model, "PARALLEL_READ_BYTES", 0)
    lines, reads = _written(tmp_path, dim=2), []
    for e in ("[1,0.25]", "[1.0,0.25]"):
        lines[3] = f'{{"index":2,"e":{e},"text":"c","cont":{{"n":1,"samples":["x"]}}}}'
        path = tmp_path / "t.trace"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))} line 4: malformed "
                           "continuation set: string indices must be integers"):
            read_trace(path)
        reads.append(read_trace(path, full=False))
    _assert_same_trace(*reads)
    assert reads[0].columns.embeddings[2].tolist() == [1.0, 0.25]


@settings(max_examples=60, deadline=None)
@given(trace=traces())
def test_projected_read_equals_full_read(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("proj") / "t.trace"
    write_trace(trace, path)
    full, projected = read_trace(path), read_trace(path, full=False)
    assert projected.story_id == full.story_id and len(projected) == len(full)
    for a, b in zip(projected.sentences, full.sentences):
        assert (repr(a.index), repr(a.text)) == (repr(b.index), repr(b.text))
        assert a.embedding.tobytes() == b.embedding.tobytes()
        assert a.continuations is None and a.window_token_loglikes is None
    # json.loads decodes only the header: every record line takes the projection
    with patch.object(model.json, "loads", wraps=json.loads) as loads:
        assert len(read_trace(path, full=False)) == len(trace)
    assert loads.call_count == 1


# --- the read in byte ranges, against the text-I/O read ---------------------

# The per-record reader read_trace had before it filled whole-trace
# columns, kept as its oracle: each line decoded and built into a checked
# SentenceRecord, one at a time.
def _length_mismatch(rec: SentenceRecord, embedding_dim: int):
    """Which of rec's vectors does not have length embedding_dim, if any."""
    if rec.embedding.shape[0] != embedding_dim:
        return (f"embedding length {rec.embedding.shape[0]} does not match "
                f"embedding_dim={embedding_dim}")
    if rec.continuations is not None and rec.continuations.embedding_dim != embedding_dim:
        return (f"continuation sample length {rec.continuations.embedding_dim} does not "
                f"match embedding_dim={embedding_dim}")
    for variant, vec in (rec.window_embedding or {}).items():
        if vec.shape[0] != embedding_dim:
            return (f"window_embedding[{variant!r}] length {vec.shape[0]} does not "
                    f"match embedding_dim={embedding_dim}")
    return None


def _json_windows(windows, name: str):
    """A per-variant window mapping whose vectors hold only numbers."""
    if windows is None:
        return None
    return {variant: _json_numbers(vec, f"{name}[{variant!r}]")
            for variant, vec in windows.items()}


def _parse_continuations(obj) -> ContinuationSet:
    try:
        samples = tuple(
            ContinuationSample(embedding=np.asarray(_json_numbers(s["e"], "sample embedding"),
                                                    float),
                               raw_score=s.get("score"))
            for s in obj["samples"]
        )
        probs = obj.get("probs")
        if probs is not None:
            probs = np.asarray(_json_numbers(probs, "continuation probabilities"), float)
            total = float(probs.sum())
            if abs(total - 1.0) > PROB_RENORM_TOL:
                raise ValidationError(f"continuation probabilities sum to {total}, "
                                      f"outside renormalization tolerance")
            if total != 1.0 and total > 0:
                probs = probs / total
        return ContinuationSet(horizon=obj["n"], samples=samples, probabilities=probs)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed continuation set: {exc}") from exc


def _projected_record(raw: str, embedding_dim: int, index):
    """The index, e and text of a record line, or None unless the line is a
    JSON object whose `index` is the integer `index` (any, if None), whose
    `e` holds `embedding_dim` finite JSON numbers and whose `text` is a
    string or absent."""
    try:
        obj = model._PROJECTING_DECODER.decode(raw)
    except json.JSONDecodeError:
        return None
    if type(obj) is not dict:
        return None
    e = obj.get("e")
    if (type(obj.get("index")) is not int or index not in (None, obj["index"])
            or type(e) is not list or len(e) != embedding_dim
            or not set(map(type, e)) <= {bytes, int}):
        return None
    try:  # refuses a non-string text, and a number out of range (read as inf)
        return SentenceRecord(index=obj["index"], embedding=np.array(e, float),
                              text=obj.get("text"))
    except (ValidationError, OverflowError):
        return None


def _full_record(path, line_no: int, raw: str, embedding_dim: int, index) -> SentenceRecord:
    """Every field of a record line, checked; a malformed one raises a
    ParseError that names the line."""
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} line {line_no}: invalid JSON: {exc}") from exc
    try:
        emb = np.asarray(_json_numbers(obj["e"], "embedding"), float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path} line {line_no}: missing or malformed embedding: {exc}") from exc
    cont = obj.get("cont")
    try:
        rec = SentenceRecord(
            index=obj["index"],
            embedding=emb,
            text=obj.get("text"),
            avg_log_likelihood=obj.get("avg_ll"),
            window_token_loglikes=_json_windows(obj.get("win_ll"), "window_token_loglikes"),
            window_embedding=_json_windows(obj.get("win_emb"), "window_embedding"),
            sentiment=obj.get("sentiment"),
            continuations=_parse_continuations(cont) if cont is not None else None,
        )
    except ValidationError as exc:
        raise ParseError(f"{path} line {line_no}: {exc}") from exc
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"{path} line {line_no}: malformed record: {exc}") from exc
    mismatch = _length_mismatch(rec, embedding_dim)
    if mismatch:
        raise ParseError(f"{path} line {line_no}: {mismatch}")
    if index not in (None, rec.index):
        raise ParseError(f"{path} line {line_no}: sentence index {rec.index}, expected "
                         f"{index}; indices must be contiguous from 0")
    return rec


def _oracle_record(path, line_no: int, raw: str, embedding_dim: int, index,
                   full: bool) -> SentenceRecord:
    """The record on a line, which must carry `index` (any, if None): every
    field, or with full=False its index, e and text."""
    rec = None if full else _projected_record(raw, embedding_dim, index)
    if rec is None:
        rec = _full_record(path, line_no, raw, embedding_dim, index)
        if not full:
            rec = SentenceRecord(index=rec.index, embedding=rec.embedding, text=rec.text)
    return rec


# The serial reader read_trace had before it read every trace in byte
# ranges, kept as its oracle: text I/O over the whole file, which ends a
# line at \n, \r\n or a lone \r. It decodes 8 KiB at a time, so a bad byte
# is located by reading the file again as bytes, and is reported before a
# fault on an earlier line of the same 8 KiB.
def _not_utf8(path) -> ParseError:
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
        bad = len(data)
    except UnicodeDecodeError as exc:
        bad = exc.start
    head = data[:bad]
    line_no = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    return ParseError(f"{path} line {line_no}: not valid UTF-8")


def _serial_read(path, full=True) -> StoryTrace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = ((no, ln.rstrip("\n")) for no, ln in enumerate(fh, start=1)
                     if not ln.isspace())
            _, (story_id, embedding_dim, meta), lines = model._header(
                path, lines, "trace", model._story_header)
            records = []
            for line_no, raw in lines:
                records.append(_oracle_record(path, line_no, raw, embedding_dim,
                                              len(records), full))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not records:
        raise ValidationError(f"{path}: trace has no sentences")
    return StoryTrace(story_id=story_id, sentences=tuple(records),
                      embedding_dim=embedding_dim, meta=meta)


def _vectors(rec):
    """(name, array) for every vector of a record."""
    yield "e", rec.embedding
    for name in ("window_token_loglikes", "window_embedding"):
        for variant, vec in (getattr(rec, name) or {}).items():
            yield f"{name}[{variant}]", vec
    if rec.continuations is not None:
        for k, sample in enumerate(rec.continuations.samples):
            yield f"sample {k}", sample.embedding
        if rec.continuations.probabilities is not None:
            yield "probs", rec.continuations.probabilities


def _assert_same_trace(ranged, serial):
    assert ((ranged.story_id, ranged.embedding_dim, ranged.meta)
            == (serial.story_id, serial.embedding_dim, serial.meta))
    assert len(ranged) == len(serial)
    for a, b in zip(ranged.sentences, serial.sentences):
        assert (repr((a.index, a.text, a.avg_log_likelihood, a.sentiment))
                == repr((b.index, b.text, b.avg_log_likelihood, b.sentiment)))
        assert ([name for name, _ in _vectors(a)] == [name for name, _ in _vectors(b)])
        for (name, x), (_, y) in zip(_vectors(a), _vectors(b)):
            assert repr(x) == repr(y) and x.tobytes() == y.tobytes(), name
            assert x.dtype == np.float64 and x.flags.writeable is False, name
        if a.continuations is not None:
            assert a.continuations.horizon == b.continuations.horizon
            assert ([repr(s.raw_score) for s in a.continuations.samples]
                    == [repr(s.raw_score) for s in b.continuations.samples])


def _assert_views_of_columns(trace):
    """Every column of a trace that was read is read-only, and each vector
    of its records is a view of its column."""
    c = trace.columns
    arrays = [a for a in vars(c).values() if isinstance(a, np.ndarray)]
    arrays += [a for w in (*c.win_ll.values(), *c.win_emb.values()) for a in w]
    assert not any(a.flags.writeable for a in arrays)
    for rec in trace.sentences:
        assert np.shares_memory(rec.embedding, c.embeddings)
        for name, column in (("window_token_loglikes", c.win_ll),
                             ("window_embedding", c.win_emb)):
            for variant, vec in (getattr(rec, name) or {}).items():
                assert np.shares_memory(vec, column[variant].values)
        cont = rec.continuations
        if cont is not None:
            assert all(np.shares_memory(s.embedding, c.samples) for s in cont.samples)
            assert cont.probabilities is None or np.shares_memory(cont.probabilities, c.probs)


def _outcome(read, path, full=True):
    try:
        return read(path, full=full)
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"


def _both_reads(monkeypatch, path, full=True):
    """What the text-I/O oracle and read_trace make of the trace at path,
    each a StoryTrace or the message of the error it raised. read_trace
    reads one range per CPU the `cpus` fixture gives, however small the file."""
    monkeypatch.setattr(model, "PARALLEL_READ_BYTES", 0)
    return _outcome(_serial_read, path, full), _outcome(read_trace, path, full)


def _assert_same_outcome(serial, ranged):
    if isinstance(serial, str):
        assert ranged == serial
    else:
        _assert_same_trace(ranged, serial)


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace=traces())
def test_read_in_ranges_equals_serial_read(tmp_path_factory, monkeypatch, cpus, trace):
    path = tmp_path_factory.mktemp("ranges") / "t.trace"
    write_trace(trace, path)
    for full in (True, False):
        serial, ranged = _both_reads(monkeypatch, path, full)
        _assert_same_trace(ranged, serial)
        _assert_views_of_columns(ranged)


def _written(tmp_path, n=9, dim=8) -> list[str]:
    """The lines of a trace file with n records that carry every field."""
    path = tmp_path / "base.trace"
    write_trace(make_random_trace(np.random.default_rng(n), n, dim), path)
    return path.read_text().splitlines()


def _record_with(line: str, field: str, value) -> str:
    record = json.loads(line)
    record[field] = value
    return json.dumps(record)


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("case", [*_BAD_RECORDS, *_IRREGULAR_LINES])
def test_read_in_ranges_judges_a_bad_last_line_as_the_serial_read(tmp_path, monkeypatch,
                                                               cpus, case):
    if case in _BAD_RECORDS:
        lines = _written(tmp_path)
        lines[-1] = _record_with(lines[-1], *_BAD_RECORDS[case])
    else:  # the line of that test, which carries index 1 and two entries in e
        lines = _written(tmp_path, dim=2)
        last = len(lines) - 2
        lines[-1] = (_IRREGULAR_LINES[case][0].replace('"index":2', f'"index":{last + 1}')
                     .replace('"index":1', f'"index":{last}'))
    path = tmp_path / "t.trace"
    path.write_text("\n".join(lines) + "\n")
    serial, ranged = _both_reads(monkeypatch, path)
    _assert_same_outcome(serial, ranged)
    if isinstance(serial, str):
        assert f"{path} line {len(lines)}: " in serial


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
def test_read_in_ranges_index_gap_at_any_line(tmp_path, monkeypatch, cpus):
    """A gap at every line in turn, so also at each range cut."""
    for gap in range(2, 10):
        lines = _written(tmp_path)
        lines[gap:] = [_record_with(ln, "index", json.loads(ln)["index"] + 1)
                       for ln in lines[gap:]]
        path = tmp_path / "t.trace"
        path.write_text("\n".join(lines) + "\n")
        serial, ranged = _both_reads(monkeypatch, path)
        assert f"line {gap + 1}: sentence index" in serial and ranged == serial


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_in_ranges_blank_lines_and_line_ends(tmp_path, monkeypatch, cpus, eol):
    lines = _written(tmp_path)
    # blank lines, two of them Unicode whitespace, and one before the header
    for at, blank in zip((8, 5, 2, 1, 0), ["", "   ", "\t", "\u2003", " \u3000"]):
        lines.insert(at, blank)
    path = tmp_path / "t.trace"
    path.write_text(eol.join(lines) + eol, newline="")
    serial, ranged = _both_reads(monkeypatch, path)
    assert not isinstance(serial, str)
    _assert_same_trace(ranged, serial)
    # _entry_line numbers each record's line as content_lines does
    numbered = list(content_lines(path))[1:]
    assert [model._entry_line(path, lambda j, _: j == k) for k in range(9)] == numbered
    # a bad record after the blank lines: the message names its line in the file
    for k, (no, _) in enumerate(numbered):
        bad = lines[:]
        bad[lines.index(numbered[k][1])] = _record_with(numbered[k][1], "sentiment", 2.0)
        path.write_text(eol.join(bad) + eol, newline="")
        serial, ranged = _both_reads(monkeypatch, path)
        assert f"line {no}: sentiment must lie in [-1, 1]" in serial and ranged == serial
    assert no == len(lines)


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
def test_read_in_ranges_mixed_line_ends(tmp_path, monkeypatch, cpus):
    """CRLF, LF and a lone CR in turn, so that a stretch of the file up to
    an LF holds two lines, the first ended by a lone CR."""
    lines = _written(tmp_path)
    data = "".join(ln + ["\r\n", "\r", "\n"][k % 3] for k, ln in enumerate(lines))
    path = tmp_path / "t.trace"
    path.write_text(data, newline="")
    serial, ranged = _both_reads(monkeypatch, path)
    assert not isinstance(serial, str)
    _assert_same_trace(ranged, serial)
    numbered = list(content_lines(path))[1:]
    assert [model._entry_line(path, lambda j, _: j == k) for k in range(9)] == numbered
    for bad in (4, 5, 6):  # after each line end in turn
        path.write_text(data.replace(f'"index":{bad - 1},', f'"index":"{bad - 1}",'),
                        newline="")
        serial, ranged = _both_reads(monkeypatch, path)
        assert f"line {bad + 1}: index must be an integer" in serial and ranged == serial


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("field, value", [("meta", {"k": [1, {"x": None}]}),
                                          ("meta", [["a", "b"]]), ("embedding_dim", 8.0)])
def test_read_in_ranges_judges_the_header_as_the_serial_read(tmp_path, monkeypatch, cpus,
                                                          field, value):
    lines = _written(tmp_path)
    lines[0] = _record_with(lines[0], field, value)
    path = tmp_path / "t.trace"
    path.write_text("\n".join(lines) + "\n")
    serial, ranged = _both_reads(monkeypatch, path)
    assert f"{path} line 1: malformed trace header" in serial and ranged == serial


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
def test_read_in_ranges_not_utf8_in_the_second_range(tmp_path, monkeypatch, cpus):
    lines = _written(tmp_path)
    data = "\n".join(lines).encode() + b"\n"
    at = data.rindex(b'"text":"') + len(b'"text":"')
    path = tmp_path / "t.trace"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    serial, ranged = _both_reads(monkeypatch, path)
    assert serial.endswith(": not valid UTF-8") and ranged == serial


def _cuts(data: bytes, cpus: int) -> list[int]:
    """Where read_trace cuts data into ranges at `cpus` CPUs: each just
    after the first LF at or after the header's end and the range's share."""
    head_end = data.index(b"\n") + 1
    cuts = [0]
    for k in range(1, cpus):
        cuts.append(data.find(b"\n", max(cuts[-1], head_end, len(data) * k // cpus) - 1) + 1
                    or len(data))
    return cuts


def _messages_at_1_2_3_cpus(monkeypatch, path) -> set[str]:
    monkeypatch.setattr(model, "PARALLEL_READ_BYTES", 0)
    messages = set()
    for count in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=count: set(range(n)))
        for full in (True, False):
            messages.add(_outcome(read_trace, path, full))
    return messages


def test_two_faults_bad_record_then_bad_byte_in_the_last_range(tmp_path, monkeypatch):
    """The first fault in line order is named at every CPU count. The text-I/O
    read named the bad byte, which lies in its first 8 KiB."""
    lines = _written(tmp_path)
    lines[2] = _record_with(lines[2], "index", "abc")
    data = "\n".join(lines).encode() + b"\n"
    at = data.rindex(b'"text":"') + len(b'"text":"')
    assert at > max(_cuts(data, 2) + _cuts(data, 3)) and len(data) < 8192
    path = tmp_path / "t.trace"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    messages = _messages_at_1_2_3_cpus(monkeypatch, path)
    assert len(messages) == 1
    assert messages.pop().startswith(f"ParseError: {path} line 3: index must be an integer")
    assert _outcome(_serial_read, path).endswith(f"line {len(lines)}: not valid UTF-8")


@pytest.mark.parametrize("split", [2, 3])
def test_two_faults_gap_at_a_cut_then_bad_record_in_its_range(tmp_path, monkeypatch, split):
    """An index gap on the first line of a range, and a line that is no
    JSON later in the same range: the gap is named at every CPU count."""
    lines = _written(tmp_path)
    data = "\n".join(lines).encode() + b"\n"
    cuts = _cuts(data, split) + [len(data)]
    gap = data[:cuts[1]].count(b"\n")  # the first line after the cut
    assert data[:cuts[2]].count(b"\n") >= gap + 2  # the next line is in the same range
    for k in range(gap, len(lines)):  # one digit to the next: no byte moves
        lines[k] = lines[k].replace(f'{{"index":{k - 1},', f'{{"index":{k},', 1)
    lines[gap + 1] = lines[gap + 1][:-1] + "]"
    path = tmp_path / "t.trace"
    path.write_text("\n".join(lines) + "\n")
    assert path.stat().st_size == len(data)
    messages = _messages_at_1_2_3_cpus(monkeypatch, path)
    assert messages == {f"ParseError: {path} line {gap + 1}: sentence index {gap}, "
                        f"expected {gap - 1}; indices must be contiguous from 0"}


# --- annotation and gold files -----------------------------------------------

def test_annotation_round_trip(tmp_path):
    annotations = AnnotationSet(story_id="s", annotators={
        "a1": (Judgment.SAME, Judgment.INCREASE, Judgment.BIG_DECREASE),
        "a2": (Judgment.SAME, Judgment.DECREASE, Judgment.BIG_INCREASE),
    })
    path = tmp_path / "s.ann"
    write_annotations(annotations, path)
    loaded = read_annotations(path)
    assert loaded.story_id == "s"
    assert loaded.annotators == annotations.annotators


@settings(max_examples=60, deadline=None)
@given(annotations=annotation_sets())
def test_annotation_round_trip_property(tmp_path_factory, annotations):
    path = tmp_path_factory.mktemp("ann") / "s.ann"
    write_annotations(annotations, path)
    assert read_annotations(path) == annotations


def test_annotation_rejects_unknown_token(tmp_path):
    path = tmp_path / "s.ann"
    path.write_text('{"story_id":"s"}\na1\tS I XX\n')
    with pytest.raises(ParseError, match=re.escape(f"{path} line 2: unknown judgment token")):
        read_annotations(path)


_S = (Judgment.SAME,)


@pytest.mark.parametrize("make, message", [
    (lambda: AnnotationSet("s", {"a\tb": _S}),
     "annotator id must be a string with no tab, CR or LF, got 'a\\tb'"),
    (lambda: AnnotationSet("s", {"a": _S, "b\n": _S}),
     "annotator id must be a string with no tab, CR or LF, got 'b\\n'"),
    (lambda: AnnotationSet("s", {"a\r": _S}),
     "annotator id must be a string with no tab, CR or LF, got 'a\\r'"),
    (lambda: AnnotationSet("s", {3: _S}),
     "annotator id must be a string with no tab, CR or LF, got 3"),
    (lambda: AnnotationSet("s", {"a": (Judgment.SAME, "S")}),
     "annotator 'a': 'S' is not a Judgment"),
    (lambda: AnnotationSet("s", [("a", _S)]), "annotators must be a mapping, got [('a', "),
    (lambda: AnnotationSet("s", {"a": 5}), "annotator 'a': judgments must be iterable, got 5"),
    (lambda: ContinuationSet(1, None), "continuation samples must be iterable, got None"),
    (lambda: ContinuationSet(1, (np.ones(2),)),
     "continuation sample must be a ContinuationSample, got array("),
    (lambda: GoldLabels("salience", None), "salient indices must be iterable, got None"),
    (lambda: GoldLabels("turning_points", tp_positions=5), "tp_positions must be iterable, got 5"),
    (lambda: GoldLabels("turning_points", tp_positions=(1, 2, 3, 4, 5), tp_windows=5),
     "tp_windows must be iterable, got 5"),
    (lambda: GoldLabels("turning_points", tp_positions=(1, 2, 3, 4, 5),
                        tp_windows=((0, 2), (1, 3), (2, 4), (3, 5), 4)),
     "a turning-point window must be iterable, got 4"),
    (lambda: GoldLabels("turning_points", tp_positions=(1, 2, 3, 4, 5),
                        tp_windows=((0, 2), (1, 3), (2, 4), (3, 5), (4,))),
     "a turning-point window must be a (lo, hi) pair")])
def test_label_constructors_refuse_what_their_file_cannot_hold(make, message):
    """An annotator id that would break its line, a judgment that is no
    Judgment and a collection of the wrong kind are refused when built,
    not when written or read."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        make()


def test_annotation_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        AnnotationSet(story_id="s", annotators={
            "a1": (Judgment.SAME, Judgment.INCREASE),
            "a2": (Judgment.SAME,),
        })


@settings(max_examples=60, deadline=None)
@given(gold=gold_labels())
def test_gold_round_trip_property(tmp_path_factory, gold):
    path = tmp_path_factory.mktemp("gold") / "g.txt"
    write_gold(gold, path)
    assert read_gold(path) == gold


def test_gold_salience_round_trip(tmp_path):
    gold = GoldLabels(kind="salience", salient_indices=frozenset({1, 4, 7}))
    path = tmp_path / "g.txt"
    write_gold(gold, path)
    loaded = read_gold(path)
    assert loaded.kind == "salience"
    assert set(loaded.salient_indices) == {1, 4, 7}


def test_gold_turning_points_round_trip(tmp_path):
    gold = GoldLabels(kind="turning_points", tp_positions=(2, 5, 9, 14, 18),
                      tp_windows=((1, 3), (4, 6), (8, 10), (13, 15), (17, 19)))
    path = tmp_path / "g.txt"
    write_gold(gold, path)
    loaded = read_gold(path)
    assert loaded.tp_positions == (2, 5, 9, 14, 18)
    assert loaded.tp_windows == ((1, 3), (4, 6), (8, 10), (13, 15), (17, 19))
