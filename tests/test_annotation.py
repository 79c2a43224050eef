"""Judgment curves, z-scoring, agreement, and human correlation bounds."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storymetrics import evaluation
from storymetrics.annotation import (CorrelationResult, JudgmentMapping, absolute_curve,
                                     human_upper_bound, krippendorff_alpha,
                                     krippendorff_alpha_table,
                                     pairwise_correlation, pairwise_correlations, zscore)
from storymetrics.model import (AnnotationSet, DegenerateStatisticsError,
                                Judgment, MetricSeries, ValidationError)

BD, D, S, I, BI = (Judgment.BIG_DECREASE, Judgment.DECREASE, Judgment.SAME,
                   Judgment.INCREASE, Judgment.BIG_INCREASE)


# --- mapping and curves ---------------------------------------------------------

def test_default_mapping_values():
    m = JudgmentMapping()
    assert (m.big_decrease, m.decrease, m.same, m.increase, m.big_increase) == (
        -0.2, -0.1, 0.0, 0.1, 0.2)


def test_mapping_rejects_nonzero_same():
    with pytest.raises(ValidationError):
        JudgmentMapping(same=0.1)


def test_mapping_enforces_separation():
    with pytest.raises(ValidationError):
        JudgmentMapping(decrease=-0.1, big_decrease=-0.13)
    with pytest.raises(ValidationError):
        JudgmentMapping(increase=0.01)


def test_absolute_curve_examples():
    np.testing.assert_allclose(absolute_curve([S, S]).values, [0.0, 0.0])
    np.testing.assert_allclose(absolute_curve([I, S, BD]).values, [0.1, 0.1, -0.1])
    np.testing.assert_allclose(absolute_curve([BI, BI, BI]).values, [0.2, 0.4, 0.6])


def test_absolute_curve_linear_in_mapping():
    judgments = [S, I, BI, D, BD, I]
    base = absolute_curve(judgments).values
    scaled = absolute_curve(judgments, JudgmentMapping(
        big_decrease=-0.4, decrease=-0.2, increase=0.2, big_increase=0.4)).values
    np.testing.assert_allclose(scaled, 2.0 * base, atol=1e-12)


def test_absolute_curve_rejects_empty():
    with pytest.raises(ValidationError):
        absolute_curve([])


# --- z-scoring ------------------------------------------------------------------

def test_zscore_example():
    series = zscore(MetricSeries("x", np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(series.values, [-1.224744871391589, 0.0, 1.224744871391589],
                               atol=1e-12)
    assert series.normalized


def test_zscore_idempotent():
    once = zscore(MetricSeries("x", np.array([3.0, -1.0, 2.0, 0.5])))
    twice = zscore(once)
    np.testing.assert_allclose(once.values, twice.values, atol=1e-12)


def test_zscore_population_moments():
    series = zscore(MetricSeries("x", np.array([4.0, 8.0, 15.0, 16.0, 23.0, 42.0])))
    assert abs(float(series.values.mean())) < 1e-12
    assert abs(float(series.values.std()) - 1.0) < 1e-12


def test_zscore_rejects_constant():
    with pytest.raises(DegenerateStatisticsError):
        zscore(MetricSeries("x", np.array([5.0, 5.0, 5.0])))


def test_zscore_rejects_too_short():
    with pytest.raises(DegenerateStatisticsError):
        zscore(MetricSeries("x", np.array([5.0])))


# --- krippendorff ----------------------------------------------------------------

def test_krippendorff_identical_annotators():
    annotations = AnnotationSet(story_id="s", annotators={
        "a": (S, I, BD, BI), "b": (S, I, BD, BI)})
    for level in ("nominal", "ordinal", "interval"):
        assert krippendorff_alpha(annotations, level) == pytest.approx(1.0, abs=1e-12)


def test_krippendorff_binary_hand_value():
    # A=[0,1,1,0], B=[0,1,0,0]: D_o = (2/8)... alpha = 16/30
    table = [[0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    assert krippendorff_alpha_table(table, "nominal") == pytest.approx(16 / 30, abs=1e-12)


def test_krippendorff_degenerate_constant():
    annotations = AnnotationSet(story_id="s", annotators={
        "a": (S, S, S), "b": (S, S, S)})
    with pytest.raises(DegenerateStatisticsError):
        krippendorff_alpha(annotations)


def test_krippendorff_missing_values_excluded():
    table = [[0.0, 1.0, None, 0.0], [0.0, 1.0, 1.0, 0.0], [None, None, None, None]]
    # unit 2 has one value -> unpairable; rest agree perfectly
    assert krippendorff_alpha_table(table, "nominal") == pytest.approx(1.0, abs=1e-12)


def test_krippendorff_permutation_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(25):
        coders = int(rng.integers(2, 5))
        units = int(rng.integers(3, 9))
        table = rng.integers(0, 3, size=(coders, units)).astype(float)
        if len({v for row in table for v in row}) < 2:
            continue
        base = krippendorff_alpha_table(table.tolist(), "nominal")
        shuffled = table[rng.permutation(coders)][:, rng.permutation(units)]
        assert krippendorff_alpha_table(shuffled.tolist(), "nominal") == pytest.approx(
            base, abs=1e-12)


@pytest.mark.parametrize("level", ["nominal", "ordinal", "interval"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_krippendorff_refuses_a_non_finite_value(level, bad):
    """None marks a missing value; a NaN is not read as one, nor counted
    as a category of its own."""
    with pytest.raises(ValidationError, match="finite or None"):
        krippendorff_alpha_table([[0.0, 1.0, bad, 0.0], [0.0, 1.0, 1.0, 0.0]], level)


def _reference_alpha(data, level):
    """Krippendorff's alpha as it was before the category counts: each
    ordered pair of values of each unit added to the coincidences on its
    own, and each ordinal distance summed over its span."""
    if level not in ("nominal", "ordinal", "interval"):
        raise ValidationError(f"unknown measurement level {level!r}")
    if not data:
        raise ValidationError("no annotation data")
    n_units = max(len(row) for row in data)
    unit_values = []
    for u in range(n_units):
        vals = [row[u] for row in data if u < len(row) and row[u] is not None]
        if len(vals) >= 2:
            unit_values.append(vals)
    if not unit_values:
        raise DegenerateStatisticsError("no unit has two or more pairable values")

    categories = sorted({v for vals in unit_values for v in vals})
    cat_index = {c: i for i, c in enumerate(categories)}
    m = len(categories)
    coincidence = np.zeros((m, m))
    for vals in unit_values:
        mu = len(vals)
        for a, b in itertools.permutations(range(mu), 2):
            coincidence[cat_index[vals[a]], cat_index[vals[b]]] += 1.0 / (mu - 1)
    n_c = coincidence.sum(axis=1)
    n_total = float(n_c.sum())

    if level == "nominal":
        delta = 1.0 - np.eye(m)
    elif level == "interval":
        cats = np.asarray(categories, float)
        delta = (cats[:, None] - cats[None, :]) ** 2
    else:  # ordinal: cumulative-marginal difference
        delta = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                span = n_c[i:j + 1].sum() - (n_c[i] + n_c[j]) / 2.0
                delta[i, j] = delta[j, i] = span ** 2

    d_o = float((coincidence * delta).sum()) / n_total
    d_e = float((np.outer(n_c, n_c) * delta).sum()) / (n_total * (n_total - 1.0))
    if d_e == 0.0:
        raise DegenerateStatisticsError(
            "expected disagreement is zero (all values identical)")
    return 1.0 - d_o / d_e


@st.composite
def _alpha_tables(draw):
    """1 to 6 coders' rows over up to 11 units, some rows cut short, with
    missing values (None) and values from a few categories or anywhere."""
    units = draw(st.integers(0, 11))
    values = st.none() | st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]) | st.floats(-10.0, 10.0)
    return draw(st.lists(st.integers(0, units).flatmap(
        lambda n: st.lists(values, min_size=n, max_size=n)), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(data=_alpha_tables(), shorten=st.booleans())
def test_krippendorff_equals_the_per_pair_reference(data, shorten):
    """At every level, to within 1e-12, with the same error where alpha is
    undefined; a row may be as long as the longest or cut short."""
    if not shorten:
        data = [row + [None] * (max(map(len, data)) - len(row)) for row in data]
    for level in ("nominal", "ordinal", "interval"):
        try:
            want = _reference_alpha(data, level)
        except DegenerateStatisticsError as exc:
            with pytest.raises(DegenerateStatisticsError, match=re.escape(str(exc))):
                krippendorff_alpha_table(data, level)
            continue
        assert krippendorff_alpha_table(data, level) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_krippendorff_needs_two_annotators():
    annotations = AnnotationSet(story_id="s", annotators={"a": (S, I)})
    with pytest.raises(ValidationError):
        krippendorff_alpha(annotations)


# --- correlations ------------------------------------------------------------------

def _annotations(*seqs):
    return AnnotationSet(story_id="s", annotators={
        f"a{i}": tuple(seq) for i, seq in enumerate(seqs)})


def test_pairwise_correlation_perfect():
    judgments = (S, I, BI, D)
    annotations = _annotations(judgments, judgments)
    pred = absolute_curve(judgments)
    result = pairwise_correlation(pred, annotations)
    assert result.tau == pytest.approx(1.0)
    assert result.rho == pytest.approx(1.0)
    assert result.pairs == 2 and result.skipped == 0


def test_pairwise_correlation_negated():
    judgments = (S, I, BI, I)
    annotations = _annotations(judgments)
    pred = MetricSeries("p", -absolute_curve(judgments).values)
    result = pairwise_correlation(pred, annotations)
    assert result.tau == pytest.approx(-1.0)
    assert result.rho == pytest.approx(-1.0)


def test_pairwise_correlation_mixed_average():
    judgments = (S, I, BI, I)
    reversed_j = (S, D, BD, D)
    annotations = _annotations(judgments, reversed_j)
    pred = absolute_curve(judgments)
    result = pairwise_correlation(pred, annotations)
    assert result.tau == pytest.approx(0.0, abs=1e-12)
    assert result.rho == pytest.approx(0.0, abs=1e-12)


def test_pairwise_correlation_skips_constant_annotator():
    annotations = _annotations((S, I, BI), (S, S, S))
    pred = MetricSeries("p", np.array([0.0, 1.0, 2.0]))
    result = pairwise_correlation(pred, annotations)
    assert result.pairs == 1 and result.skipped == 1


def test_pairwise_correlation_all_degenerate():
    annotations = _annotations((S, S, S))
    pred = MetricSeries("p", np.array([0.0, 1.0, 2.0]))
    with pytest.raises(DegenerateStatisticsError):
        pairwise_correlation(pred, annotations)


def test_pairwise_correlation_length_mismatch():
    annotations = _annotations((S, I))
    with pytest.raises(ValidationError):
        pairwise_correlation(MetricSeries("p", np.zeros(3)), annotations)


def test_human_upper_bound_identical():
    judgments = (S, I, D, BI)
    result = human_upper_bound(_annotations(judgments, judgments, judgments))
    assert result.tau == pytest.approx(1.0)
    assert result.rho == pytest.approx(1.0)


def test_human_upper_bound_two_reversed():
    result = human_upper_bound(_annotations((S, I, BI), (S, D, BD)))
    assert result.tau == pytest.approx(-1.0)
    assert result.rho == pytest.approx(-1.0)


def test_human_upper_bound_three_way():
    # pairs: (A,A)=1, (A,rev)=-1, (A,rev)=-1 -> mean -1/3
    a = (S, I, BI)
    rev = (S, D, BD)
    result = human_upper_bound(_annotations(a, a, rev))
    assert result.tau == pytest.approx(-1 / 3)
    assert result.rho == pytest.approx(-1 / 3)


def test_human_upper_bound_needs_two():
    with pytest.raises(ValidationError):
        human_upper_bound(_annotations((S, I)))


def _per_pair_mean(pairs, degenerate):
    """The mean correlation as it was before the batched kernels: each pair
    scored on its own, a pair with a constant side skipped."""
    taus, rhos, skipped = [], [], 0
    for x, y in pairs:
        if float(x.std()) == 0.0 or float(y.std()) == 0.0:
            skipped += 1
            continue
        taus.append(evaluation.kendall_tau(x, y))
        rhos.append(evaluation.spearman_rho(x, y))
    if not taus:
        raise DegenerateStatisticsError(degenerate)
    return CorrelationResult(tau=float(np.mean(taus)), rho=float(np.mean(rhos)),
                             pairs=len(taus), skipped=skipped)


def _result(fn, *args):
    try:
        return fn(*args)
    except DegenerateStatisticsError as exc:
        return str(exc)


_JUDGMENTS = st.sampled_from(list(Judgment))


@st.composite
def _story(draw):
    """Annotators (some constant) and predictions (some constant or all
    tied with a non-zero std) of one length."""
    n = draw(st.integers(1, 40))
    constant = st.sampled_from(list(Judgment)).map(lambda j: (S,) + (j,) * (n - 1))
    annotators = draw(st.lists(st.lists(_JUDGMENTS, min_size=n, max_size=n).map(tuple)
                               | constant, min_size=1, max_size=4))
    values = st.floats(-3, 3) | st.sampled_from([0.0, 0.1, 1.0])
    preds = draw(st.lists(st.lists(values, min_size=n, max_size=n)
                          | st.sampled_from([[0.1] * n, [1.0] * n]), min_size=1, max_size=5))
    return _annotations(*annotators), [MetricSeries(f"p{i}", np.array(p))
                                       for i, p in enumerate(preds)]


@settings(max_examples=80, deadline=None)
@given(story=_story())
def test_correlations_equal_the_per_pair_mean(story):
    """Bit for bit, with the same error where one pair (or every pair) of a
    prediction is degenerate; [0.1] * 3 has a non-zero std but is all tied."""
    annotations, preds = story
    curves = [absolute_curve(annotations.annotators[a]).values
              for a in sorted(annotations.annotators)]
    want = []
    for pred in preds:
        want.append(_result(_per_pair_mean, [(pred.values, c) for c in curves],
                            "every prediction/annotator pair was degenerate"))
        if isinstance(want[-1], str):
            break
    got = _result(pairwise_correlations, preds, annotations)
    if isinstance(want[-1], str):
        assert got == want[-1]
    else:
        assert repr(got) == repr(want)
        assert [repr(pairwise_correlation(p, annotations)) for p in preds] == list(map(repr, want))
    if len(curves) > 1:
        assert repr(_result(human_upper_bound, annotations)) == repr(_result(
            _per_pair_mean, list(itertools.combinations(curves, 2)),
            "every annotator pair was degenerate"))
