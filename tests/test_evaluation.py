"""Rank correlations, peak/turning-point evaluation, and ranking metrics."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from storymetrics.evaluation import (Peak, _count_inversions, _descending_ranking,
                                     _lcs_length, assign_turning_points,
                                     average_precision, fisher_ci,
                                     find_peaks, kendall_tau, kendall_taus, recall_at_k,
                                     rouge_l, spearman_rho, spearman_rhos, tp_distance)
from storymetrics.model import (DegenerateStatisticsError, GoldLabels,
                                MetricSeries, ValidationError)


# --- brute-force oracles ----------------------------------------------------------

def oracle_tau_b(x, y):
    """Tau-b from explicit pair enumeration."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i, j in itertools.combinations(range(n), 2):
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        if dx == 0 and dy == 0:
            ties_x += 1
            ties_y += 1
        elif dx == 0:
            ties_x += 1
        elif dy == 0:
            ties_y += 1
        elif dx * dy > 0:
            concordant += 1
        else:
            discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    return (concordant - discordant) / denom


def average_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def oracle_rho(x, y):
    """Pearson correlation of average ranks."""
    rx = np.asarray(average_ranks(list(x)))
    ry = np.asarray(average_ranks(list(y)))
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.dot(rx, ry) / math.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))


# --- rank correlations --------------------------------------------------------------

def test_kendall_tau_examples():
    assert kendall_tau([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)


def test_spearman_rho_examples():
    assert spearman_rho([1, 2, 3], [5, 6, 7]) == pytest.approx(1.0)
    assert spearman_rho([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)
    assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_rank_correlations_match_oracles_with_ties():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.integers(0, 5, size=n).astype(float)
        if x.std() == 0 or y.std() == 0:
            continue
        assert kendall_tau(x, y) == pytest.approx(oracle_tau_b(x, y), abs=1e-12)
        assert spearman_rho(x, y) == pytest.approx(oracle_rho(x, y), abs=1e-12)


def test_rank_correlations_monotone_transform_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        fx = np.exp(x)  # strictly increasing
        assert kendall_tau(fx, y) == pytest.approx(kendall_tau(x, y), abs=1e-12)
        assert spearman_rho(fx, y) == pytest.approx(spearman_rho(x, y), abs=1e-12)


def test_rank_correlation_degenerate_inputs():
    with pytest.raises(DegenerateStatisticsError):
        kendall_tau([1, 1, 1], [1, 2, 3])
    with pytest.raises(DegenerateStatisticsError):
        spearman_rho([1, 2], [5, 5])
    with pytest.raises(DegenerateStatisticsError):
        kendall_tau([1.0], [2.0])
    with pytest.raises(DegenerateStatisticsError):
        spearman_rho([math.inf] * 3, [1, 2, 3])


@pytest.mark.parametrize("correlation", [kendall_tau, spearman_rho])
def test_rank_correlations_reject_nan_accept_inf(correlation):
    with pytest.raises(ValidationError, match="NaN"):
        correlation([1, 2, math.nan, 4, 5], [2, 1, 3, 5, 4])
    with pytest.raises(ValidationError, match="NaN"):
        correlation([1, 2, 3, 4, 5], [2, 1, 3, 5, math.nan])
    assert (correlation([1, 2, math.inf, 4, 5], [2, 1, 3, 5, -math.inf])
            == correlation([1, 2, 9, 4, 5], [2, 1, 3, 5, -9]))


@st.composite
def _rank_sequences(draw, n):
    """n values: a small integer alphabet (heavy ties) or distinct floats."""
    if draw(st.booleans()):
        top = draw(st.integers(1, 5))
        return draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n,
                         unique=True))


@st.composite
def _rank_pairs(draw):
    n = draw(st.integers(2, 300))
    x, y = draw(_rank_sequences(n)), draw(_rank_sequences(n))
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    return x, y


@pytest.fixture(scope="module")
def scipy_stats():
    return pytest.importorskip("scipy.stats")


@settings(max_examples=150, deadline=None)
@given(pair=_rank_pairs())
def test_rank_correlations_equal_scipy_exactly(scipy_stats, pair):
    x, y = pair
    assert repr(kendall_tau(x, y)) == repr(float(scipy_stats.kendalltau(x, y, variant="b")[0]))
    assert repr(spearman_rho(x, y)) == repr(float(scipy_stats.spearmanr(x, y)[0]))


def _per_pair_tau(x, y):
    """kendall_tau as it was before the batched kernel: one pair at a time,
    with its own merge count of inversions."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    perm = np.argsort(y)
    x, y = x[perm], _dense(y[perm])
    perm = np.argsort(x, kind="mergesort")
    x, y = _dense(x[perm]), y[perm]
    joint = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True]
    ntie = _within(np.diff(np.nonzero(joint)[0]))
    xtie, ytie = _within(np.bincount(x)), _within(np.bincount(y))
    size = x.shape[0]
    tot = size * (size - 1) // 2
    discordant = int(np.triu(y[:, None] > y[None, :], 1).sum())
    con_minus_dis = tot - xtie - ytie + ntie - 2 * discordant
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def _dense(sorted_values):
    return np.r_[True, sorted_values[1:] != sorted_values[:-1]].cumsum(dtype=np.intp)


def _within(counts):
    return int((counts.astype(np.int64) * (counts - 1) // 2).sum())


@st.composite
def _rank_rows(draw):
    """1 to 6 row pairs of one length, none of them all tied."""
    n = draw(st.integers(2, 120))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        x, y = draw(_rank_sequences(n)), draw(_rank_sequences(n))
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        pairs.append((x, y))
    return np.array([x for x, _ in pairs], float), np.array([y for _, y in pairs], float)


@settings(max_examples=60, deadline=None)
@given(rows=_rank_rows())
def test_batched_rank_correlations_equal_each_pair(scipy_stats, rows):
    """Each row of kendall_taus equals the old per-pair tau-b and scipy bit
    for bit, and each row of spearman_rhos equals spearman_rho."""
    x, y = rows
    taus, rhos = kendall_taus(x, y), spearman_rhos(x, y)
    for row, (a, b) in enumerate(zip(x, y)):
        want = _per_pair_tau(a, b)
        assert repr(float(taus[row])) == repr(want) == repr(kendall_tau(a, b))
        assert repr(want) == repr(float(scipy_stats.kendalltau(a, b, variant="b")[0]))
        assert repr(float(rhos[row])) == repr(spearman_rho(a, b))


def test_batched_rank_correlations_check_every_row():
    good = [1.0, 2.0, 3.0]
    with pytest.raises(DegenerateStatisticsError, match="all-tied"):
        kendall_taus([good, good], [good, [5.0, 5.0, 5.0]])
    with pytest.raises(ValidationError, match="NaN"):
        spearman_rhos([good, [1.0, math.nan, 2.0]], [good, good])
    with pytest.raises(ValidationError, match="2-d"):
        kendall_taus(good, good)


def test_rank_correlations_of_100000_points_stay_small():
    """The batched merge pass holds O(n) integers: no n x n block."""
    rng = np.random.default_rng(3)
    x, y = rng.integers(0, 50, 100_000).astype(float), rng.standard_normal(100_000)
    tracemalloc.start()
    try:
        kendall_tau(x, y)
        find_peaks(y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def _inversions_brute_force(values):
    return sum(a > b for a, b in itertools.combinations(values, 2))


@pytest.mark.parametrize("values", [[3], [1, 2], [2, 1], [4] * 7, list(range(9, 0, -1)),
                                    [2, 2, 1, 1, 3, 0, 2]])
def test_count_inversions_edge_cases(values):
    assert _count_inversions(np.asarray([values])).tolist() == [_inversions_brute_force(values)]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(0, 6), min_size=1, max_size=70))
def test_count_inversions_matches_brute_force(values):
    assert _count_inversions(np.asarray([values])).tolist() == [_inversions_brute_force(values)]


# --- fisher interval -----------------------------------------------------------------

def test_fisher_ci_symmetric_at_zero():
    lo, hi = fisher_ci(0.0, 30)
    assert lo == pytest.approx(-hi, abs=1e-12)


def test_fisher_ci_worked_example():
    lo, hi = fisher_ci(0.5, 50, 0.95)
    assert lo == pytest.approx(0.258, abs=1e-3)
    assert hi == pytest.approx(0.683, abs=1e-3)


def test_fisher_ci_widens_with_smaller_n():
    lo_big, hi_big = fisher_ci(0.5, 50)
    lo_small, hi_small = fisher_ci(0.5, 10)
    assert lo_small < lo_big and hi_small > hi_big


def test_fisher_ci_input_validation():
    with pytest.raises(ValidationError):
        fisher_ci(0.5, 3)
    with pytest.raises(ValidationError):
        fisher_ci(1.0, 50)
    with pytest.raises(ValidationError):
        fisher_ci(0.5, 50, conf=1.0)


# --- peaks ------------------------------------------------------------------------

def test_find_peaks_monotone_none():
    assert find_peaks([1.0, 2.0, 3.0, 4.0]) == []
    assert find_peaks([4.0, 3.0, 2.0, 1.0]) == []


def test_find_peaks_worked_example():
    peaks = find_peaks([0.0, 2.0, 1.0, 3.0, 0.0])
    assert [(p.index, p.prominence) for p in peaks] == [(1, 1.0), (3, 3.0)]


def test_find_peaks_single():
    peaks = find_peaks([0.0, 5.0, 0.0])
    assert len(peaks) == 1
    assert peaks[0].index == 1 and peaks[0].prominence == 5.0


def test_find_peaks_plateau_left_edge():
    peaks = find_peaks([0.0, 3.0, 3.0, 3.0, 1.0, 0.0])
    assert [p.index for p in peaks] == [1]


def test_find_peaks_plateau_not_peak_when_rising_after():
    assert find_peaks([0.0, 2.0, 2.0, 4.0, 0.0]) == [
        Peak(index=3, height=4.0, prominence=4.0)]


def _loop_find_peaks(values):
    """find_peaks as it was before the array kernel: a scan for rises and
    plateaus, and a walk to each side of each peak."""
    values = np.asarray(values, float)
    n = values.shape[0]
    peaks = []
    i = 1
    while i < n:
        if values[i] > values[i - 1]:
            j = i
            while j + 1 < n and values[j + 1] == values[i]:
                j += 1
            if j + 1 < n and values[j + 1] < values[i]:
                peaks.append((i, float(values[i]), _loop_prominence(values, i)))
            i = j + 1
        else:
            i += 1
    return peaks


def _loop_prominence(values, peak):
    h = values[peak]
    left_min = h
    q = peak - 1
    while q >= 0 and values[q] <= h:
        left_min = min(left_min, values[q])
        q -= 1
    right_min = h
    q = peak + 1
    while q < values.shape[0] and values[q] <= h:
        right_min = min(right_min, values[q])
        q += 1
    return float(h - max(left_min, right_min))


# few distinct values, so that runs, repeats and equal shoulders are common
_PEAK_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 1e308, -1e308, math.inf, -math.inf,
                                math.nan, 5e-324])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_PEAK_VALUES | st.floats(), max_size=80)
       | st.lists(st.integers(-3, 3).map(float), max_size=300))
@example(values=[0.0, 1.0, 1.0, -0.0, 0.0, 2.0, math.nan, 3.0, 0.0])
@example(values=[math.inf, 0.0, math.inf, math.inf, -math.inf, 1.0, 0.0])
@example(values=[-1e308, 1e308, -1e308])  # a prominence that overflows
def test_find_peaks_equals_the_loop(values):
    got = [(p.index, p.height, p.prominence) for p in find_peaks(values)]
    with np.errstate(over="ignore"):  # the loop's numpy scalars warn where floats do not
        want = _loop_find_peaks(values)
    assert repr(got) == repr(want)


def test_find_peaks_accepts_metric_series():
    peaks = find_peaks(MetricSeries("x", np.array([0.0, 1.0, 0.0])))
    assert peaks[0].index == 1


# --- turning points ------------------------------------------------------------------

def test_assign_turning_points_prefers_prominence():
    peaks = [Peak(index=2, height=3.0, prominence=2.0),
             Peak(index=4, height=4.0, prominence=5.0)]
    assigned = assign_turning_points(peaks, [(1, 5)])
    assert assigned[0].index == 4 and not assigned[0].fallback


def test_assign_turning_points_tie_earlier_index():
    peaks = [Peak(index=2, height=3.0, prominence=5.0),
             Peak(index=4, height=4.0, prominence=5.0)]
    assigned = assign_turning_points(peaks, [(1, 5)])
    assert assigned[0].index == 2


def test_assign_turning_points_empty_window_midpoint():
    assigned = assign_turning_points([], [(4, 8)])
    assert assigned[0].index == 6 and assigned[0].fallback


def test_tp_distance_values():
    assert tp_distance([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 40) == 0.0
    gold = [5, 10, 20, 25, 30]
    pred = [p + 3 for p in gold]
    assert tp_distance(pred, gold, 40) == pytest.approx(7.5)


def test_tp_distance_translation_invariance():
    gold = [5, 10, 20, 25, 30]
    pred = [4, 12, 19, 27, 28]
    base = tp_distance(pred, gold, 40)
    shifted = tp_distance([p + 3 for p in pred], [g + 3 for g in gold], 40)
    assert shifted == pytest.approx(base, abs=1e-12)


def test_tp_distance_validation():
    with pytest.raises(ValidationError):
        tp_distance([1, 2, 3], [1, 2, 3], 10)
    with pytest.raises(ValidationError):
        tp_distance([1, 2, 3, 4, 50], [1, 2, 3, 4, 5], 10)


# --- ranking metrics -------------------------------------------------------------------

def _gold(indices):
    return GoldLabels(kind="salience", salient_indices=frozenset(indices))


def test_average_precision_examples():
    # all gold ranked first
    assert average_precision(np.array([9.0, 8.0, 1.0, 0.0]), _gold({0, 1})) == 1.0
    # gold={1,3}, descending ranking order [1,2,3,...]: AP = (1 + 2/3)/2
    scores = np.array([0.0, 3.0, 2.0, 1.0])
    assert average_precision(scores, _gold({1, 3})) == pytest.approx(5 / 6)


def test_average_precision_tie_earlier_index_first():
    scores = np.array([1.0, 1.0, 0.0])
    # index 0 outranks index 1 on a tie
    assert average_precision(scores, _gold({0})) == 1.0
    assert average_precision(scores, _gold({1})) == pytest.approx(0.5)


def test_average_precision_truncation():
    scores = np.array([4.0, 3.0, 2.0, 1.0])
    assert average_precision(scores, _gold({0, 3}), truncate_at=2) == pytest.approx(1 / 2)


def test_average_precision_empty_gold():
    with pytest.raises(ValidationError):
        average_precision(np.array([1.0, 0.0]), _gold(set()))


@settings(max_examples=100, deadline=None)
@given(scores=st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf]), max_size=200))
def test_descending_ranking_ranks_ties_by_sentence(scores):
    """A stable sort: ties, -0.0 and 0.0 among them, keep sentence order."""
    want = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    assert _descending_ranking(np.array(scores)) == want


def test_recall_at_k_examples():
    scores = np.array([0.0, 5.0, 1.0, 4.0])
    # top-2 = {1, 3}
    assert recall_at_k(scores, _gold({1, 3})) == 1.0
    assert recall_at_k(scores, _gold({1, 2})) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        recall_at_k(scores, _gold({1}), k=0)


def test_map_recall_invariant_under_increasing_transforms():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        scores = rng.normal(size=n)
        gold = _gold(set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()))
        transformed = 3.0 * scores + 1.0
        assert average_precision(transformed, gold) == pytest.approx(
            average_precision(scores, gold), abs=1e-12)
        assert recall_at_k(transformed, gold) == pytest.approx(
            recall_at_k(scores, gold), abs=1e-12)


def test_rouge_l_examples():
    assert rouge_l(["a", "b", "c"], ["a", "b", "c"]) == 1.0
    assert rouge_l(["a", "b", "c"], ["a", "c"]) == pytest.approx(0.8)
    assert rouge_l(["a", "b"], ["x", "y"]) == 0.0
    with pytest.raises(ValidationError):
        rouge_l([], ["a"])


def _lcs_recursive(a, b, memo=None):
    if memo is None:
        memo = {}
    key = (len(a), len(b))
    if key in memo:
        return memo[key]
    if not a or not b:
        result = 0
    elif a[-1] == b[-1]:
        result = 1 + _lcs_recursive(a[:-1], b[:-1], memo)
    else:
        result = max(_lcs_recursive(a[:-1], b, memo), _lcs_recursive(a, b[:-1], memo))
    memo[key] = result
    return result


def _lcs_dp(a, b):
    """The full LCS table, one row at a time: the reference for `_lcs_length`."""
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            curr[j] = prev[j - 1] + 1 if x == y else max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


@st.composite
def _token_list_pairs(draw):
    """Two token lists of 0-300 tokens over one alphabet of 1-4 words, so the
    bit vector crosses the 64- and 128-bit word boundaries."""
    words = "abcd"[:draw(st.integers(1, 4))]
    return tuple(draw(st.lists(st.sampled_from(words), max_size=n, min_size=n))
                 for n in (draw(st.integers(0, 300)), draw(st.integers(0, 300))))


@settings(max_examples=150, deadline=None)
@given(_token_list_pairs())
@example((["a"] * 64, ["a"] * 65))
@example((list("ab" * 64 + "a"), list("ba" * 70)))
@example((list("abc" * 100), []))
@example((["a", "b"], ["b", "c"]))  # "c" has no mask
def test_lcs_length_equals_dp_table(pair):
    a, b = pair
    lcs = _lcs_dp(a, b)
    assert _lcs_length(a, b) == lcs
    if a and b:
        p = lcs / len(a)
        r = lcs / len(b)
        assert rouge_l(a, b) == (2.0 * p * r / (p + r) if lcs else 0.0)


def test_rouge_l_matches_recursive_lcs_reference():
    rng = np.random.default_rng(19)
    alphabet = list("abc")
    for _ in range(100):
        a = [alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(1, 8)))]
        b = [alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(1, 8)))]
        lcs = _lcs_recursive(tuple(a), tuple(b))
        if lcs == 0:
            assert rouge_l(a, b) == 0.0
        else:
            p = lcs / len(a)
            r = lcs / len(b)
            assert rouge_l(a, b) == pytest.approx(2 * p * r / (p + r), abs=1e-12)
