"""Summary-to-full-text alignment rules and their monotonicity."""

import numpy as np
import pytest

from storymetrics.alignment import (AlignConfig, align, alignment_report)
from storymetrics.model import ValidationError


def _vec_with_cosine(c):
    """Unit 2-d vector with the given cosine against [1, 0]."""
    return np.array([c, np.sqrt(1.0 - c * c)])


def test_align_perfect_match_single_label():
    summary = [np.array([1.0, 0.0])]
    fulltext = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0])]
    result = align(summary, fulltext, AlignConfig(window_fraction=0.4))
    assert set(result.labels.salient_indices) == {0}


def test_align_below_min_sim_yields_nothing():
    summary = [np.array([1.0, 0.0])]
    fulltext = [_vec_with_cosine(0.30), _vec_with_cosine(0.10)]
    result = align(summary, fulltext, AlignConfig(window_fraction=1.0))
    assert set(result.labels.salient_indices) == set()
    assert result.empty_windows == 0


def test_align_slack_rule_hand_derived():
    # window sims 0.50, 0.46, 0.40: best 0.50, slack floor 0.45, mu 0.35
    summary = [np.array([1.0, 0.0])]
    fulltext = [_vec_with_cosine(0.50), _vec_with_cosine(0.46),
                _vec_with_cosine(0.40), _vec_with_cosine(-0.50)]
    result = align(summary, fulltext, AlignConfig(window_fraction=0.8))
    assert set(result.labels.salient_indices) == {0, 1}
    assert result.per_summary == ((0, 1),)


def test_align_caps_at_max_matches():
    summary = [np.array([1.0, 0.0])]
    fulltext = [_vec_with_cosine(0.50), _vec_with_cosine(0.49),
                _vec_with_cosine(0.48), _vec_with_cosine(0.47)]
    result = align(summary, fulltext, AlignConfig(window_fraction=1.0, max_matches=3))
    # all four pass mu and slack; cap keeps the top three by similarity
    assert result.per_summary == ((0, 1, 2),)


def test_align_window_restricts_positions():
    # summary position 0 with rho=0.10 over 20 sentences: only y in {0, 1, 2}
    summary = [np.array([1.0, 0.0])]
    fulltext = [_vec_with_cosine(0.40)] * 3 + [np.array([1.0, 0.0])] * 17
    result = align(summary, fulltext, AlignConfig())
    assert set(result.labels.salient_indices) <= {0, 1, 2}


def test_align_empty_window_counted():
    summary = [np.array([1.0, 0.0])] * 3
    fulltext = [np.array([1.0, 0.0])] * 4
    result = align(summary, fulltext, AlignConfig(window_fraction=0.05))
    assert result.empty_windows >= 1


def test_align_union_over_summary_sentences():
    summary = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    fulltext = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    result = align(summary, fulltext, AlignConfig(window_fraction=1.0))
    assert set(result.labels.salient_indices) == {0, 1}


def test_align_scale_invariance():
    rng = np.random.default_rng(3)
    summary = list(rng.normal(size=(3, 4)))
    fulltext = list(rng.normal(size=(12, 4)))
    base = align(summary, fulltext, AlignConfig())
    scaled = align([5.0 * v for v in summary], [0.2 * v for v in fulltext], AlignConfig())
    assert set(base.labels.salient_indices) == set(scaled.labels.salient_indices)


def test_align_rejects_zero_vector():
    with pytest.raises(ValidationError):
        align([np.zeros(2)], [np.array([1.0, 0.0])])


def test_align_rejects_empty_inputs():
    with pytest.raises(ValidationError):
        align([], [np.array([1.0, 0.0])])


def test_align_monotonicity_in_mu_and_k():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n_s = int(rng.integers(1, 5))
        n_f = int(rng.integers(3, 25))
        summary = list(rng.normal(size=(n_s, 3)))
        fulltext = list(rng.normal(size=(n_f, 3)))
        base_cfg = AlignConfig(window_fraction=0.3, min_sim=0.2, max_matches=2)
        base = set(align(summary, fulltext, base_cfg).labels.salient_indices)
        stricter = AlignConfig(window_fraction=0.3, min_sim=0.5, max_matches=2)
        assert set(align(summary, fulltext, stricter).labels.salient_indices) <= base
        wider = AlignConfig(window_fraction=0.3, min_sim=0.2, max_matches=5)
        assert set(align(summary, fulltext, wider).labels.salient_indices) >= base


def test_labels_lie_inside_some_window():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_s = int(rng.integers(1, 4))
        n_f = int(rng.integers(4, 20))
        summary = list(rng.normal(size=(n_s, 3)))
        fulltext = list(rng.normal(size=(n_f, 3)))
        cfg = AlignConfig(window_fraction=0.25, min_sim=0.1)
        result = align(summary, fulltext, cfg)
        windows = {y for x in range(n_s) for y in range(n_f)
                   if abs(y / n_f - x / n_s) <= cfg.window_fraction}
        assert set(result.labels.salient_indices) <= windows


def test_alignment_report():
    from storymetrics.model import GoldLabels
    empty = GoldLabels(kind="salience", salient_indices=frozenset())
    assert alignment_report(empty, 10)["coverage"] == 0.0
    labels = GoldLabels(kind="salience", salient_indices=frozenset(range(31)))
    assert alignment_report(labels, 148)["coverage"] == pytest.approx(31 / 148)
    full = GoldLabels(kind="salience", salient_indices=frozenset(range(10)))
    assert alignment_report(full, 10)["coverage"] == 1.0


def test_align_config_refuses_a_nan_slack_and_takes_an_infinite_one():
    with pytest.raises(ValidationError, match="slack must be >= 0"):
        AlignConfig(slack=float("nan"))
    # every window's candidate above min_sim is kept
    result = align([[1.0, 0.0]], [[1.0, 0.0], [0.6, 0.8]], AlignConfig(window_fraction=1.0,
                                                                       slack=float("inf")))
    assert result.per_summary == ((0, 1),)
