"""Deletion-based salience measures and the clustering baseline."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storymetrics.annotation import zscore
from storymetrics.model import (KNOWN_VARIANTS, ContinuationSample, ContinuationSet,
                                DegenerateStatisticsError, MetricSeries, SentenceRecord,
                                StoryTrace, ValidationError, _run_sums)
from storymetrics.salience import (SalienceConfig, bcf_salience,
                                   clus_salience, coherence,
                                   combine_like_clus, emb_salience,
                                   imp_adjust, positional_baseline,
                                   salience_series, variant_salience)
from storymetrics.suspense import DistanceKind, distance

from strategies import traces


def _rec(index, win_ll=None, win_emb=None, sentiment=None):
    return SentenceRecord(index=index, embedding=np.array([1.0, 0.0]),
                          window_token_loglikes=win_ll, window_embedding=win_emb,
                          sentiment=sentiment)


# --- coherence / bcf -----------------------------------------------------------

def test_scalars_score_a_record_whose_vectors_differ_in_length():
    """A record stands alone: its index and the lengths of its window and
    sample vectors need not fit any trace."""
    rec = SentenceRecord(
        index=5, embedding=np.array([1.0, 0.0]),
        window_token_loglikes={"base": [-1.0, -2.0], "deleted": [-3.0]},
        window_embedding={"base": [1.0, 1.0, 0.0], "deleted": [1.0, 0.0, 1.0]},
        continuations=ContinuationSet(1, (ContinuationSample(np.ones(3)),)))
    assert emb_salience(rec) == 0.5000000000000001
    assert variant_salience(rec, "deleted") == 1.5


def test_coherence_values():
    assert coherence([-1.0, -1.0, -1.0]) == -1.0
    assert coherence([0.0, 0.0]) == 0.0
    assert coherence([-1.0, -2.0, -3.0, -2.0]) == -2.0


def test_coherence_rejects_empty():
    with pytest.raises(ValidationError):
        coherence([])


def test_bcf_salience_values():
    assert bcf_salience(-2.0, -2.0) == 0.0
    assert bcf_salience(-2.0, -2.5) == pytest.approx(0.5)
    assert bcf_salience(-2.5, -2.0) == pytest.approx(-0.5)


# --- variant measures ----------------------------------------------------------

@pytest.mark.parametrize("variant, win_ll, expected", [
    ("deleted", {"base": (-1.0, -1.0), "deleted": (-2.0, -2.0)}, 1.0),
    ("deleted", {"base": (-1.0,), "deleted": (-1.0,)}, 0.0),
    ("swapped", {"base": (-1.0, -1.0), "swapped": (-1.5, -2.5)}, 1.0),
    ("no_knowledge", {"base": (-1.8,), "no_knowledge": (-2.1,)}, 0.3),
], ids=["like", "like_unchanged", "swap", "know_diff"])
def test_variant_salience(variant, win_ll, expected):
    assert variant_salience(_rec(0, win_ll=win_ll), variant) == pytest.approx(expected)


@pytest.mark.parametrize("variant", ["deleted", "swapped", "no_knowledge"])
def test_variant_salience_needs_base_and_variant(variant):
    with pytest.raises(ValidationError):
        variant_salience(_rec(0, win_ll={"base": (-1.0,)}), variant)


@pytest.mark.parametrize("e_prev, e_t, expected", [([1.0, 1.0], [1.0, 1.0], 0.0),
                                                   ([0.0, 1.0], [1.0, 0.0], 1.0),
                                                   ([1.0, 0.0], [1.0, 1.0], 1 - 1 / np.sqrt(2))],
                         ids=["same", "orthogonal", "diagonal"])
def test_emb_surp_is_cosine_distance(e_prev, e_t, expected):
    assert distance(e_t, e_prev, DistanceKind.COSINE) == pytest.approx(expected, abs=1e-12)
    trace = StoryTrace(story_id="s", embedding_dim=2, sentences=(
        SentenceRecord(index=0, embedding=np.array(e_prev)),
        SentenceRecord(index=1, embedding=np.array(e_t))))
    series = salience_series(trace, SalienceConfig(measure="emb_surp"))
    np.testing.assert_allclose(series.values, [0.0, expected], atol=1e-12)


def test_emb_salience():
    rec = _rec(0, win_emb={"base": np.array([1.0, 0.0]), "deleted": np.array([0.0, 1.0])})
    assert emb_salience(rec) == pytest.approx(1.0)
    anti = _rec(0, win_emb={"base": np.array([1.0, 0.0]), "deleted": np.array([-1.0, 0.0])})
    assert emb_salience(anti) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        emb_salience(_rec(0, win_emb={"base": np.array([1.0, 0.0])}))


def test_imp_adjust():
    assert imp_adjust(0.7, 0.0) == pytest.approx(0.7)
    assert imp_adjust(0.5, -0.8) == pytest.approx(0.9)
    assert imp_adjust(0.0, 0.9) == 0.0
    with pytest.raises(ValidationError):
        imp_adjust(0.5, 1.5)


def test_imp_adjust_sign_and_monotonicity():
    assert imp_adjust(-0.4, 0.5) < 0
    vals = [imp_adjust(0.5, s) for s in (0.0, 0.3, 0.6, 0.9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# --- clustering baseline ---------------------------------------------------------

def test_clus_salience_identical_embeddings():
    series = clus_salience([[1.0, 0.0]] * 5, SalienceConfig())
    np.testing.assert_allclose(series.values, np.zeros(5), atol=1e-12)


def test_clus_salience_cluster_count():
    rng = np.random.default_rng(2)
    embs = rng.normal(size=(20, 4))
    cfg = SalienceConfig(clus_per=10)
    # k = ceil(20/10) = 2: two antipodal groups must each sit on a centroid
    grouped = np.vstack([np.tile([1.0, 0.0], (10, 1)), np.tile([-1.0, 0.0], (10, 1))])
    series = clus_salience(grouped, cfg)
    np.testing.assert_allclose(series.values, np.zeros(20), atol=1e-12)
    assert len(clus_salience(embs, cfg)) == 20


def test_clus_salience_antipodal_groups():
    embs = [[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]
    series = clus_salience(embs, SalienceConfig(clus_per=2))
    np.testing.assert_allclose(series.values, np.zeros(4), atol=1e-12)


def test_clus_salience_rotation_invariance():
    rng = np.random.default_rng(9)
    embs = rng.normal(size=(12, 3))
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                    [np.sin(theta), np.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    cfg = SalienceConfig(clus_per=4)
    base = clus_salience(embs, cfg).values
    rotated = clus_salience(embs @ rot.T, cfg).values
    np.testing.assert_allclose(base, rotated, atol=1e-9)


def test_clus_salience_rejects_zero_vector():
    with pytest.raises(ValidationError):
        clus_salience([[1.0, 0.0], [0.0, 0.0]], SalienceConfig())


# --- combination and positional baselines ------------------------------------------

def test_combine_like_clus_example():
    like = MetricSeries("like", np.array([0.0, 1.0]))
    clus = MetricSeries("clus", np.array([1.0, 0.0]))
    combined = combine_like_clus(like, clus)
    np.testing.assert_allclose(combined.values, [-1.0, 1.0], atol=1e-12)


def test_combine_like_clus_constant_like_contributes_zero():
    like = MetricSeries("like", np.zeros(3))
    clus = MetricSeries("clus", np.array([1.0, 2.0, 3.0]))
    combined = combine_like_clus(like, clus)
    expected = (clus.values - 2.0) / clus.values.std()
    np.testing.assert_allclose(combined.values, expected, atol=1e-12)


def test_combine_like_clus_linearity():
    s = np.array([1.0, -1.0, 0.5, -0.5])
    series = MetricSeries("s", s)
    combined = combine_like_clus(series, series)
    z = (s - s.mean()) / s.std()
    np.testing.assert_allclose(combined.values, 3.0 * z, atol=1e-12)


def test_combine_like_clus_permutation_equivariance():
    rng = np.random.default_rng(21)
    like = rng.normal(size=7)
    clus = rng.normal(size=7)
    perm = rng.permutation(7)
    direct = combine_like_clus(MetricSeries("l", like), MetricSeries("c", clus)).values
    permuted = combine_like_clus(MetricSeries("l", like[perm]),
                                 MetricSeries("c", clus[perm])).values
    np.testing.assert_allclose(direct[perm], permuted, atol=1e-12)


def test_combine_like_clus_length_mismatch():
    with pytest.raises(ValidationError):
        combine_like_clus(MetricSeries("l", np.zeros(2)), MetricSeries("c", np.zeros(3)))


def test_positional_baselines():
    np.testing.assert_array_equal(positional_baseline(3, "ascending").values, [0, 1, 2])
    np.testing.assert_array_equal(positional_baseline(3, "descending").values, [2, 1, 0])
    a = positional_baseline(5, "random", seed=4).values
    b = positional_baseline(5, "random", seed=4).values
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, positional_baseline(5, "random", seed=5).values)


# --- series over traces --------------------------------------------------------------

def _trace(records):
    return StoryTrace(story_id="s", sentences=tuple(records), embedding_dim=2)


def test_salience_series_one_value_per_sentence():
    trace = _trace([
        _rec(0, win_ll={"base": (-1.0,), "deleted": (-2.0,)}),
        _rec(1, win_ll={"base": (-1.0,), "deleted": (-1.5,)}),
        _rec(2),  # final sentence has no window
    ])
    series = salience_series(trace, SalienceConfig(measure="like"))
    assert len(series) == 3
    np.testing.assert_allclose(series.values, [1.0, 0.5, 0.0])


def test_salience_series_errors_when_no_windows():
    trace = _trace([_rec(0), _rec(1)])
    with pytest.raises(ValidationError):
        salience_series(trace, SalienceConfig(measure="like"))


def test_salience_series_imp_adjust():
    trace = _trace([
        _rec(0, win_ll={"base": (-1.0,), "deleted": (-1.5,)}, sentiment=-0.8),
        _rec(1, sentiment=0.0),
    ])
    series = salience_series(trace, SalienceConfig(measure="like", imp_adjust=True))
    np.testing.assert_allclose(series.values, [0.9, 0.0])


def test_salience_series_unknown_measure():
    with pytest.raises(ValidationError):
        SalienceConfig(measure="nope")


# --- window measures against a per-record oracle ----------------------------------

# measure -> (the record's windows it reads, the variant it compares with base)
_WINDOW_MEASURES = {"like": ("window_token_loglikes", "deleted"),
                    "swap": ("window_token_loglikes", "swapped"),
                    "know_diff": ("window_token_loglikes", "no_knowledge"),
                    "emb_sal": ("window_embedding", "deleted")}


class _Missing(Exception):
    """The record (its index the argument) has windows, but not both that
    the measure compares."""


def _oracle(rec: SentenceRecord, measure: str):
    """The measure of one record, from its windows alone, with math.fsum;
    None where the record has no windows."""
    field, variant = _WINDOW_MEASURES[measure]
    win = getattr(rec, field)
    if win is None:
        return None
    if "base" not in win or variant not in win:
        raise _Missing(rec.index)
    base, other = win["base"].tolist(), win[variant].tolist()
    if field == "window_token_loglikes":  # coherence: mean log-likelihood
        return math.fsum(base) / len(base) - math.fsum(other) / len(other)
    return _cosine_distance(base, other)


def _cosine_distance(a: list, b: list) -> float:
    dot = math.fsum(x * y for x, y in zip(a, b))
    norms = math.sqrt(math.fsum(x * x for x in a)) * math.sqrt(math.fsum(y * y for y in b))
    return max(0.0, 1.0 - dot / norms)


def _with_every_variant(trace: StoryTrace) -> StoryTrace:
    """The trace with every window it has holding every known variant."""
    def fill(win, vector):
        return None if win is None else {**dict.fromkeys(KNOWN_VARIANTS, vector), **win}
    return replace(trace, sentences=tuple(
        replace(rec, window_token_loglikes=fill(rec.window_token_loglikes, np.array([-0.5])),
                window_embedding=fill(rec.window_embedding, np.ones(trace.embedding_dim)))
        for rec in trace.sentences))


@settings(max_examples=100, deadline=None)
@given(trace=traces(), every_variant=st.booleans())
def test_window_measures_equal_per_record_oracle(trace, every_variant):
    if every_variant:
        trace = _with_every_variant(trace)
    for measure in _WINDOW_MEASURES:
        cfg = SalienceConfig(measure=measure)
        try:
            want = [_oracle(rec, measure) for rec in trace.sentences]
        except _Missing as missing:  # the error names the first such sentence
            first = missing.args[0]
            with pytest.raises(ValidationError, match=f"^sentence {first}: .* required$"):
                salience_series(trace, cfg)
            continue
        if all(v is None for v in want):
            with pytest.raises(ValidationError, match=f"measure '{measure}'"):
                salience_series(trace, cfg)
            continue
        got = salience_series(trace, cfg).values
        if measure == "emb_sal":  # one kernel call, bit for bit as one record at a time
            assert got.tolist() == [0.0 if v is None else emb_salience(rec)
                                    for v, rec in zip(want, trace.sentences)]
        # a sentence without windows scores 0
        np.testing.assert_allclose(got, [0.0 if v is None else v for v in want],
                                   rtol=0, atol=1e-12)
        assert all(got[i] == 0.0 for i, v in enumerate(want) if v is None)
    # a trace where no sentence has windows is an error that names the measure
    bare = replace(trace, sentences=tuple(
        replace(rec, window_token_loglikes=None, window_embedding=None)
        for rec in trace.sentences))
    for measure in _WINDOW_MEASURES:
        with pytest.raises(ValidationError, match=f"measure '{measure}'"):
            salience_series(bare, SalienceConfig(measure=measure))


@settings(max_examples=100, deadline=None)
@given(trace=traces())
def test_emb_surp_equals_per_record_oracle(trace):
    """emb_surp is the cosine distance of each embedding to the one before
    it, and 0 for the first sentence, which has none."""
    cfg = SalienceConfig(measure="emb_surp")
    embeddings = [rec.embedding.tolist() for rec in trace.sentences]
    if len(trace) == 1:
        with pytest.raises(ValidationError, match="measure 'emb_surp'"):
            salience_series(trace, cfg)
        return
    if not all(any(e) for e in embeddings):
        with pytest.raises(ValidationError, match="zero vectors"):
            salience_series(trace, cfg)
        return
    want = [0.0] + [_cosine_distance(a, b) for a, b in zip(embeddings[1:], embeddings)]
    np.testing.assert_allclose(salience_series(trace, cfg).values, want, rtol=0, atol=1e-12)


def test_grouped_coherences_equal_np_mean_of_each_window():
    """Windows of every length from 1 to 300, several of each, in shuffled
    order: bit for bit np.mean of each window alone."""
    rng = np.random.default_rng(11)
    lengths = rng.permutation(np.repeat(np.arange(1, 301), 3))
    windows = [-rng.exponential(3.0, length) * 10.0 ** rng.integers(-3, 4)
               for length in lengths]
    got = _run_sums(np.concatenate(windows), lengths) / lengths  # as _variant_saliences
    assert got.tolist() == [float(np.mean(w)) for w in windows]
    assert [coherence(w) for w in windows] == got.tolist()


# --- the options of salience_series, against per-record oracles ---------------

_ANY_MEASURE = st.sampled_from(("like", "know_diff", "emb_sal", "emb_surp", "random"))


def _values_or_error(make):
    """make().values, or the message of the ValidationError it raises."""
    try:
        return make().values
    except ValidationError as exc:
        return str(exc)


def _clus_oracle(trace: StoryTrace, cfg: SalienceConfig):
    """clus_salience of the embeddings stacked row by row."""
    return _values_or_error(
        lambda: clus_salience(np.stack([rec.embedding for rec in trace.sentences]), cfg))


def _zscored_or_zeros(values: np.ndarray) -> np.ndarray:
    try:
        return zscore(MetricSeries("x", values)).values
    except DegenerateStatisticsError:
        return np.zeros(len(values))


def _assert_same(trace: StoryTrace, cfg: SalienceConfig, want) -> None:
    """salience_series under cfg gives `want`: the values, bit for bit, or
    the message of its error."""
    got = _values_or_error(lambda: salience_series(trace, cfg))
    assert got == want if isinstance(want, str) else got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(trace=traces(), measure=_ANY_MEASURE)
def test_imp_adjust_equals_each_sentence_adjusted(trace, measure):
    """imp_adjust=True scales each sentence's value by imp_adjust with its
    sentiment (0 where it has none), bit for bit, or raises as the plain
    measure does."""
    plain = _values_or_error(lambda: salience_series(trace, SalienceConfig(measure=measure)))
    if not isinstance(plain, str):
        plain = np.array([imp_adjust(v, 0.0 if rec.sentiment is None else rec.sentiment)
                          for v, rec in zip(plain.tolist(), trace.sentences)])
    _assert_same(trace, SalienceConfig(measure=measure, imp_adjust=True), plain)


@settings(max_examples=40, deadline=None)
@given(trace=traces(), measure=_ANY_MEASURE)
def test_combine_like_clus_equals_zscores_of_the_oracles(trace, measure):
    """combine_like_clus=True is z(clus) + 2 z(measure), a constant series
    contributing 0, with clus on the stacked embeddings; the measure's
    error comes first, then that of clus."""
    cfg = SalienceConfig(measure=measure, combine_like_clus=True)
    plain = _values_or_error(lambda: salience_series(trace, SalienceConfig(measure=measure)))
    clus = _clus_oracle(trace, cfg)
    want = plain if isinstance(plain, str) else clus if isinstance(clus, str) else (
        _zscored_or_zeros(clus) + 2.0 * _zscored_or_zeros(plain))
    _assert_same(trace, cfg, want)


@settings(max_examples=40, deadline=None)
@given(trace=traces(), clus_per=st.integers(1, 12))
def test_clus_equals_clus_salience_of_the_stacked_rows(trace, clus_per):
    cfg = SalienceConfig(measure="clus", clus_per=clus_per)
    _assert_same(trace, cfg, _clus_oracle(trace, cfg))
