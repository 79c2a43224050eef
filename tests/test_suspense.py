"""Surprise/suspense measure arithmetic and invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from storymetrics import model
from storymetrics.model import (ContinuationSample, ContinuationSet,
                                SentenceRecord, StoryTrace, ValidationError)
from storymetrics.retrieval import Passage
from storymetrics.suspense import (DistanceKind, MetricConfig, alpha_weight,
                                   continuation_distribution,
                                   cosine_similarity, distance,
                                   ely_surprise, ely_suspense,
                                   entropy,
                                   hale_surprise, hale_uncertainty_reduction,
                                   jaccard_similarity, METRIC_NAMES, metric_series,
                                   perplexity, sample_ely_surprise,
                                   sample_ely_suspense, softmax,
                                   weighted_suspense)
from strategies import traces

ALL_KINDS = (DistanceKind.L1, DistanceKind.L2, DistanceKind.SQUARED_L2,
             DistanceKind.COSINE)


def _cont(samples, probs=None, horizon=1):
    return ContinuationSet(
        horizon=horizon,
        samples=tuple(ContinuationSample(embedding=np.asarray(s, float)) for s in samples),
        probabilities=None if probs is None else np.asarray(probs, float))


# --- distance ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_distance_identity(kind):
    assert distance([3.0, 4.0], [3.0, 4.0], kind) == 0.0


def test_distance_orthogonal_cosine():
    assert distance([1.0, 0.0], [0.0, 1.0], DistanceKind.COSINE) == pytest.approx(1.0)


def test_distance_unit_displacement():
    a, b = [1.0, 0.0], [0.0, 0.0]
    assert distance(a, b, DistanceKind.L1) == 1.0
    assert distance(a, b, DistanceKind.L2) == 1.0
    assert distance(a, b, DistanceKind.SQUARED_L2) == 1.0


def test_distance_length_mismatch():
    with pytest.raises(ValidationError):
        distance([1.0], [1.0, 2.0], DistanceKind.L2)


def test_cosine_rejects_zero_vector():
    with pytest.raises(ValidationError):
        distance([0.0, 0.0], [1.0, 0.0], DistanceKind.COSINE)


@settings(max_examples=100, deadline=None)
@given(a=hnp.arrays(float, 3, elements=st.floats(-10, 10)),
       b=hnp.arrays(float, 3, elements=st.floats(-10, 10)))
def test_distance_symmetric_nonnegative(a, b):
    for kind in (DistanceKind.L1, DistanceKind.L2, DistanceKind.SQUARED_L2):
        d_ab = distance(a, b, kind)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(distance(b, a, kind), abs=1e-12)


# --- hale surprise / entropy ------------------------------------------------

def test_hale_surprise_values():
    assert hale_surprise(1.0) == 0.0
    assert hale_surprise(math.exp(-2.0)) == pytest.approx(2.0, abs=1e-12)
    assert hale_surprise(0.5) == pytest.approx(math.log(2.0), abs=1e-12)


def test_hale_surprise_rejects_bad_probability():
    for p in (0.0, -0.1, 1.1):
        with pytest.raises(ValidationError):
            hale_surprise(p)


def test_hale_surprise_strictly_decreasing():
    ps = np.linspace(0.01, 1.0, 50)
    vals = [hale_surprise(float(p)) for p in ps]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_entropy_values():
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    assert entropy([0.25] * 4) == pytest.approx(math.log(4.0), abs=1e-12)
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert entropy([0.75, 0.25]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.5623, abs=5e-5)


def test_entropy_rejects_invalid_distribution():
    for dist in ([0.5, 0.6], [math.nan, 0.5], [math.nan, 1.0], [math.inf, 0.5], [1e308, 1e308]):
        with pytest.raises(ValidationError):
            entropy(dist)


def test_a_distribution_may_miss_1_by_exactly_the_tolerance(monkeypatch):
    """The sum tolerance is inclusive, for entropy and a passage's token
    distribution alike. No float sum near 1 misses it by exactly 1e-9 (no
    multiple of an ulp there), so the tolerance is set to one ulp of 1."""
    monkeypatch.setattr(model, "PROB_SUM_TOL", 2.0 ** -52)
    edge, beyond = [0.5, 0.5 + 2.0 ** -52], [0.5, 0.5 + 2.0 ** -51]  # sums exact
    assert entropy(edge) > 0
    assert Passage("p", np.ones(1), "", "kb", token_dist=np.array(edge))
    with pytest.raises(ValidationError):
        entropy(beyond)
    with pytest.raises(ValidationError, match="token_dist is not a distribution"):
        Passage("p", np.ones(1), "", "kb", token_dist=np.array(beyond))


@pytest.mark.parametrize("weight", ["alpha_pos_weight", "alpha_neg_weight", "alpha_floor"])
def test_metric_config_refuses_a_nan_weight(weight):
    with pytest.raises(ValidationError, match="alpha weights must be non-negative"):
        MetricConfig(**{weight: math.nan})


def test_hale_uncertainty_reduction():
    assert hale_uncertainty_reduction(math.log(4), math.log(2)) == pytest.approx(
        math.log(2), abs=1e-12)
    assert hale_uncertainty_reduction(1.3, 1.3) == 0.0
    assert hale_uncertainty_reduction(0.5623, 1.3863) == pytest.approx(-0.8240, abs=1e-12)


# --- continuation distribution ----------------------------------------------

def test_continuation_distribution_symmetry():
    probs = continuation_distribution([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)


def test_continuation_distribution_single():
    np.testing.assert_allclose(
        continuation_distribution([1.0, 0.0], [[0.0, 1.0]]), [1.0])


def test_continuation_distribution_cosine_softmax():
    probs = continuation_distribution([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    e = math.e
    np.testing.assert_allclose(probs, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
    assert probs[0] == pytest.approx(0.7311, abs=5e-5)


def test_continuation_distribution_empty():
    with pytest.raises(ValidationError):
        continuation_distribution([1.0, 0.0], [])


@settings(max_examples=100, deadline=None)
@given(scores=hnp.arrays(float, st.integers(1, 6), elements=st.floats(-20, 20)),
       shift=st.floats(-50, 50))
def test_softmax_shift_invariance(scores, shift):
    np.testing.assert_allclose(softmax(scores), softmax(scores + shift), atol=1e-12)
    assert float(softmax(scores).sum()) == pytest.approx(1.0, abs=1e-12)


# --- ely surprise / suspense -------------------------------------------------

def test_ely_surprise_values():
    assert ely_surprise([1.0, 2.0], [1.0, 2.0], DistanceKind.SQUARED_L2) == 0.0
    assert ely_surprise([1.0, 0.0], [0.0, 0.0], DistanceKind.SQUARED_L2) == 1.0
    assert ely_surprise([2.0, 1.0], [0.0, 0.0], DistanceKind.SQUARED_L2) == 5.0


def test_ely_suspense_point_mass_equals_surprise():
    e_t = np.array([0.3, -0.7])
    target = np.array([1.2, 0.5])
    cont = _cont([target], probs=[1.0])
    for kind in ALL_KINDS:
        assert ely_suspense(e_t, cont, kind) == pytest.approx(
            ely_surprise(target, e_t, kind), abs=1e-15)


def test_ely_suspense_worked_example():
    cont = _cont([[1.0, 0.0], [0.0, 2.0]], probs=[0.75, 0.25])
    assert ely_suspense([0.0, 0.0], cont, DistanceKind.SQUARED_L2) == pytest.approx(1.75)


def test_ely_suspense_symmetric_samples():
    cont = _cont([[1.0, 0.0], [-1.0, 0.0]], probs=[0.5, 0.5])
    assert ely_suspense([0.0, 0.0], cont, DistanceKind.SQUARED_L2) == pytest.approx(1.0)


def test_ely_suspense_without_probs_uses_cosine_softmax():
    # cosine similarities 1 and 0 weigh squared distances 0 and 2
    cont = _cont([[1.0, 0.0], [0.0, 1.0]])
    e = math.e
    assert ely_suspense([1.0, 0.0], cont, DistanceKind.SQUARED_L2) == pytest.approx(2 / (e + 1))


# --- alpha weighting ----------------------------------------------------------

def test_alpha_weight_defaults():
    cfg = MetricConfig()
    assert alpha_weight(0.5, cfg) == pytest.approx(0.5)
    assert alpha_weight(-0.5, cfg) == pytest.approx(1.0)
    assert alpha_weight(0.0, cfg) == 0.0


def test_alpha_weight_floor():
    cfg = MetricConfig(alpha_floor=1.0)
    assert alpha_weight(0.0, cfg) == 1.0
    assert alpha_weight(-0.5, cfg) == pytest.approx(2.0)


def test_alpha_weight_rejects_out_of_range():
    with pytest.raises(ValidationError):
        alpha_weight(1.5, MetricConfig())


def test_weighted_suspense_alpha_one_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        e_t = rng.normal(size=3)
        k = int(rng.integers(1, 5))
        probs = rng.random(k)
        probs /= probs.sum()
        cont = _cont(rng.normal(size=(k, 3)), probs=probs)
        ones = np.ones(k)
        for kind in (DistanceKind.L1, DistanceKind.L2, DistanceKind.SQUARED_L2):
            # exact identity, not approximate: same arithmetic order
            assert weighted_suspense(e_t, cont, ones, kind) == ely_suspense(e_t, cont, kind)


def test_weighted_suspense_scaled_example():
    cont = _cont([[1.0, 0.0], [0.0, 2.0]], probs=[0.75, 0.25])
    assert weighted_suspense([0.0, 0.0], cont, [2.0, 2.0],
                             DistanceKind.SQUARED_L2) == pytest.approx(3.5)


# --- sample-based variants -----------------------------------------------------

def test_sample_ely_suspense_values():
    state = [0.0, 0.0]
    assert sample_ely_suspense([1.0, 2.0], [[1.0, 2.0]] * 3, DistanceKind.L2) == 0.0
    assert sample_ely_suspense(state, [[1.0, 0.0], [-1.0, 0.0]],
                               DistanceKind.SQUARED_L2) == pytest.approx(1.0)
    assert sample_ely_suspense(state, [[2.0, 0.0], [0.0, 0.0]],
                               DistanceKind.L2) == pytest.approx(1.0)


def test_sample_ely_surprise_values():
    assert sample_ely_surprise([1.0, 2.0], [[1.0, 2.0]] * 2, DistanceKind.L2) == 0.0
    assert sample_ely_surprise([0.0, 0.0], [[2.0, 0.0], [0.0, 0.0]],
                               DistanceKind.L2) == pytest.approx(1.0)
    # symmetric samples about the actual state
    assert sample_ely_surprise([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]],
                               DistanceKind.L2) == pytest.approx(0.0, abs=1e-12)


def test_sample_variance_decomposition():
    # mean squared distance to state >= squared distance to sample mean
    rng = np.random.default_rng(17)
    for _ in range(500):
        dim = int(rng.integers(1, 5))
        k = int(rng.integers(1, 8))
        state = rng.normal(size=dim)
        samples = rng.normal(size=(k, dim))
        suspense = sample_ely_suspense(state, samples, DistanceKind.SQUARED_L2)
        surprise = sample_ely_surprise(state, samples, DistanceKind.SQUARED_L2)
        assert suspense - surprise >= -1e-12


def test_sample_ops_reject_empty():
    with pytest.raises(ValidationError):
        sample_ely_suspense([1.0], [], DistanceKind.L2)
    with pytest.raises(ValidationError):
        sample_ely_surprise([1.0], [], DistanceKind.L2)


# --- baselines and perplexity --------------------------------------------------

def test_jaccard_similarity():
    assert jaccard_similarity({"a", "b"}, {"a", "b"}) == 1.0
    assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert jaccard_similarity({"a"}, {"b"}) == 0.0
    with pytest.raises(ValidationError):
        jaccard_similarity(set(), set())


@pytest.mark.parametrize("a, b, expected", [([1.0, 0.0], [1.0, 0.0], 1.0),
                                             ([1.0, 0.0], [-1.0, 0.0], -1.0),
                                             ([1.0, 1.0], [1.0, 0.0], 1 / math.sqrt(2))],
                         ids=["same", "opposite", "diagonal"])
def test_cosine_similarity_values(a, b, expected):
    assert cosine_similarity(a, b) == pytest.approx(expected)


def test_perplexity():
    assert perplexity(math.log(20.0)) == pytest.approx(20.0)
    assert perplexity(0.0) == 1.0
    assert float(np.median([10.0, 20.0, 30.0])) == 20.0


# --- metric series over traces ---------------------------------------------------

def _trace_from_embeddings(embs, **extra):
    records = tuple(
        SentenceRecord(index=t, embedding=np.asarray(e, float),
                       **{k: v[t] for k, v in extra.items()})
        for t, e in enumerate(embs))
    return StoryTrace(story_id="t", sentences=records, embedding_dim=len(embs[0]))


def test_metric_series_constant_embeddings_zero_surprise():
    trace = _trace_from_embeddings([[1.0, 0.0]] * 4)
    series = metric_series(trace, "ely_surprise", MetricConfig())
    np.testing.assert_array_equal(series.values, np.zeros(4))


def test_metric_series_composition():
    trace = _trace_from_embeddings([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    series = metric_series(trace, "ely_surprise", MetricConfig())
    np.testing.assert_allclose(series.values, [0.0, 1.0, 2.0])


def test_metric_series_unknown_name():
    trace = _trace_from_embeddings([[1.0, 0.0]])
    with pytest.raises(ValidationError):
        metric_series(trace, "nope", MetricConfig())


def test_perplexity_that_overflows_a_float_is_refused():
    assert perplexity(709.0) == math.exp(709.0)
    with pytest.raises(ValidationError, match="overflows a float"):
        perplexity(1000.0)
    trace = _trace_from_embeddings([[1.0, 0.0], [0.0, 1.0]], avg_log_likelihood=[-1.0, -1000.0])
    with pytest.raises(ValidationError, match="'perplexity' contains non-finite values, "
                       "first at sentence 1"):
        metric_series(trace, "perplexity", MetricConfig())


def test_metric_series_all_inputs_missing():
    trace = _trace_from_embeddings([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        metric_series(trace, "perplexity", MetricConfig())


def test_metric_series_suspense_uses_probabilities():
    cont = _cont([[1.0, 0.0], [0.0, 2.0]], probs=[0.75, 0.25])
    trace = StoryTrace(story_id="t", sentences=(
        SentenceRecord(index=0, embedding=np.array([0.0, 0.0]), continuations=cont),
        SentenceRecord(index=1, embedding=np.array([1.0, 0.0])),
    ), embedding_dim=2)
    series = metric_series(trace, "ely_suspense", MetricConfig())
    assert series.values[0] == pytest.approx(1.75)
    assert series.values[1] == 0.0


# --- the whole-trace curves against the per-record oracle --------------------
#
# The oracle scores sentence by sentence, pair by pair, with its own
# arithmetic: np.dot and np.linalg.norm for the cosine, 1-d sums, and a 1-d
# softmax. The scalar functions of suspense are one-row calls into the
# whole-trace kernels, so the oracle calls none of them; the curves of
# metric_series must equal it bit for bit.

def _cosine(a, b):
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine similarity undefined for zero vectors")
    return float(np.dot(a, b) / (na * nb))


def _distance(a, b, kind):
    if kind is DistanceKind.L1:
        return float(np.sum(np.abs(a - b)))
    if kind is DistanceKind.L2:
        return float(np.linalg.norm(a - b))
    if kind is DistanceKind.SQUARED_L2:
        diff = a - b
        return float(np.dot(diff, diff))
    return max(0.0, 1.0 - _cosine(a, b))  # DistanceKind.COSINE


def _softmax(scores):
    exps = np.exp(scores - scores.max())
    return exps / exps.sum()


def _continuation_probs(e_t, cont):
    if cont.probabilities is not None:
        return cont.probabilities
    return _softmax(np.array([_cosine(e_t, c) for c in cont.sample_embeddings()]))


def _weighted_suspense(e_t, cont, alphas, kind):
    probs = _continuation_probs(e_t, cont)
    dists = np.array([_distance(e_t, s, kind) for s in cont.sample_embeddings()])
    return float(np.sum(probs * alphas * dists))


def _sample_suspense(state, samples, kind):
    return float(np.mean([_distance(state, s, kind) for s in samples]))


def _sample_surprise(actual, samples, kind):
    return _distance(actual, np.mean(samples, axis=0), kind)


def _alpha(rec, cfg):
    return alpha_weight(rec.sentiment, cfg) if rec.sentiment is not None else 0.0


def _oracle_hale_surprise(rec, prev, cfg):
    if prev is None or prev.continuations is None:
        return None
    cont = prev.continuations
    probs = _continuation_probs(prev.embedding, cont)
    sims = [_cosine(rec.embedding, emb) for emb in cont.sample_embeddings()]
    p = float(probs[int(np.argmax(sims))])
    return hale_surprise(p) if p > 0 else None


def _oracle_word_overlap(rec, prev, cfg):
    if prev is None or rec.text is None or prev.text is None:
        return None
    a, b = set(rec.text.lower().split()), set(prev.text.lower().split())
    return jaccard_similarity(a, b) if a or b else None


# name -> value(rec, prev, cfg), None where the sentence lacks the inputs
_ORACLE = {
    "ely_surprise": lambda rec, prev, cfg: None if prev is None else
        _distance(rec.embedding, prev.embedding, cfg.distance),
    "ely_suspense": lambda rec, prev, cfg: None if rec.continuations is None else
        _weighted_suspense(rec.embedding, rec.continuations, 1.0, cfg.distance),
    "alpha_ely_surprise": lambda rec, prev, cfg: None if prev is None else
        _alpha(rec, cfg) * _distance(rec.embedding, prev.embedding, cfg.distance),
    "alpha_ely_suspense": lambda rec, prev, cfg: None if rec.continuations is None else
        _weighted_suspense(rec.embedding, rec.continuations, _alpha(rec, cfg), cfg.distance),
    "hale_surprise": _oracle_hale_surprise,
    "hale_uncertainty_reduction": lambda rec, prev, cfg:
        None if prev is None or prev.continuations is None or rec.continuations is None else
        hale_uncertainty_reduction(
            entropy(_continuation_probs(prev.embedding, prev.continuations)),
            entropy(_continuation_probs(rec.embedding, rec.continuations))),
    "sample_ely_surprise": lambda rec, prev, cfg:
        None if prev is None or prev.continuations is None else
        _sample_surprise(rec.embedding, prev.continuations.sample_embeddings(), cfg.distance),
    "sample_ely_suspense": lambda rec, prev, cfg: None if rec.continuations is None else
        _sample_suspense(rec.embedding, rec.continuations.sample_embeddings(), cfg.distance),
    "word_overlap": _oracle_word_overlap,
    "embedding_similarity": lambda rec, prev, cfg: None if prev is None else
        _cosine(rec.embedding, prev.embedding),
    "alpha_sentiment": lambda rec, prev, cfg: None if rec.sentiment is None else
        alpha_weight(rec.sentiment, cfg),
    "perplexity": lambda rec, prev, cfg: None if rec.avg_log_likelihood is None else
        perplexity(-rec.avg_log_likelihood),
}


def oracle_series(trace, name, cfg) -> np.ndarray:
    values = np.zeros(len(trace))
    available = 0
    prev = None
    for t, rec in enumerate(trace.sentences):
        v = _ORACLE[name](rec, prev, cfg)
        if v is not None:
            values[t] = v
            available += 1
        prev = rec
    if available == 0:
        raise ValidationError(
            f"metric {name!r}: required inputs absent for every sentence of {trace.story_id!r}")
    return values


def _outcome(series):
    """repr of the curve's values, or of a scalar (exact to the bit and the
    sign of zero), or the message it was refused with."""
    try:
        return repr(np.asarray(series()).tolist())
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def test_oracle_covers_every_metric():
    assert tuple(_ORACLE) == METRIC_NAMES


@settings(max_examples=120, deadline=None)
@given(trace=traces(),
       weights=st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 3))
def test_metric_series_equals_per_record_oracle(trace, weights):
    for name, kind in itertools.product(METRIC_NAMES, DistanceKind):
        cfg = MetricConfig(kind, *weights)
        assert (_outcome(lambda: metric_series(trace, name, cfg).values)
                == _outcome(lambda: oracle_series(trace, name, cfg))), (name, kind)


def test_hale_surprise_takes_the_scalar_log():
    # np.log of an array and math.log round 0.662 differently
    trace = StoryTrace(story_id="t", sentences=(
        SentenceRecord(index=0, embedding=np.array([1.0, 0.0]),
                       continuations=_cont([[1.0, 0.0], [0.0, 1.0]], probs=[0.662, 0.338])),
        SentenceRecord(index=1, embedding=np.array([1.0, 0.1])),
    ), embedding_dim=2)
    assert metric_series(trace, "hale_surprise", MetricConfig()).values[1] == -math.log(0.662)


@settings(max_examples=60, deadline=None)
@given(trace=traces(), weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=12,
                                        max_size=12))
def test_scalar_functions_equal_the_oracle(trace, weights):
    """Each scalar function, a one-row call into a kernel, gives the bits of
    the oracle's per-pair arithmetic, or its error, on every sentence."""
    for rec, prev in zip(trace.sentences, trace.sentences[-1:] + trace.sentences):
        e, other, cont = rec.embedding, prev.embedding, rec.continuations
        assert (_outcome(lambda: cosine_similarity(e, other))
                == _outcome(lambda: _cosine(e, other)))
        for kind in DistanceKind:
            assert (_outcome(lambda: distance(e, other, kind))
                    == _outcome(lambda: _distance(e, other, kind)))
        if cont is None:
            continue
        samples, alphas = cont.sample_embeddings(), np.array(weights[:len(cont.samples)])
        assert (_outcome(lambda: continuation_distribution(e, samples))
                == _outcome(lambda: _softmax(np.array([_cosine(e, s) for s in samples]))))
        for kind in DistanceKind:
            assert (_outcome(lambda: weighted_suspense(e, cont, alphas, kind))
                    == _outcome(lambda: _weighted_suspense(e, cont, alphas, kind)))
            assert (_outcome(lambda: sample_ely_suspense(e, samples, kind))
                    == _outcome(lambda: _sample_suspense(e, samples, kind)))
            assert (_outcome(lambda: sample_ely_surprise(e, samples, kind))
                    == _outcome(lambda: _sample_surprise(e, samples, kind)))
