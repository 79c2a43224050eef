"""Dense retrieval, cache eviction policies, and RAG-style marginalization."""

import json
import re
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storymetrics.model import ParseError, ValidationError
from storymetrics.retrieval import (MemoryCache, Passage, PassageStore,
                                    marginal_weights, marginalize_token_dists,
                                    read_passages, retrieve, score, topk_merge,
                                    write_passages)
from strategies import line_mutants, passage_stores


def _passage(pid, key, source="kb", **kwargs):
    return Passage(id=pid, key=np.asarray(key, float), payload=f"text {pid}",
                   source=source, **kwargs)


# --- scoring and stores ----------------------------------------------------------

def test_score_examples():
    assert score([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert score([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert score([1.0, 2.0], [3.0, -1.0]) == 1.0


def test_score_dimension_mismatch():
    with pytest.raises(ValidationError):
        score([1.0], [1.0, 2.0])


def test_store_rejects_wrong_dimension():
    store = PassageStore(dim=2)
    with pytest.raises(ValidationError):
        store.add(_passage("p", [1.0, 2.0, 3.0]))


def test_store_top_k_ordering_and_ties():
    store = PassageStore(dim=2, passages=[
        _passage("b", [1.0, 0.0]), _passage("a", [1.0, 0.0]),
        _passage("c", [0.5, 0.0]),
    ])
    hits = store.top_k([1.0, 0.0], k=3)
    assert [p.id for p, _ in hits] == ["a", "b", "c"]


def test_top_k_on_empty_store_and_cache():
    assert PassageStore(dim=2).top_k([1.0, 0.0], k=3) == []
    assert MemoryCache(capacity=2).top_k([1.0, 0.0], k=3) == []


def test_add_after_top_k_is_scanned():
    store = PassageStore(dim=1, passages=[_passage("a", [1.0])])
    assert [p.id for p, _ in store.top_k([1.0], k=2)] == ["a"]
    store.add(_passage("b", [2.0]))
    assert [p.id for p, _ in store.top_k([1.0], k=2)] == ["b", "a"]


@pytest.mark.parametrize("query", [[np.nan, 0.0], [np.inf, 0.0], [[1.0, 0.0]], 1.0])
def test_non_finite_or_non_vector_query_rejected(query):
    store = PassageStore(dim=2, passages=[_passage("a", [1.0, 0.0])])
    cache = MemoryCache(capacity=2)
    cache.add(_passage("m", [0.0, 1.0], source="memory"))
    for top_k in (store.top_k, cache.top_k):
        with pytest.raises(ValidationError, match="query"):
            top_k(query, k=1)
    with pytest.raises(ValidationError, match="query"):
        retrieve(query, store, cache, k_kb=1, k_mem=1, z=1)


def test_overflowing_scores_rejected():
    # inf - inf is NaN, which would drop out of the partition's candidates
    store = PassageStore(dim=2, passages=[_passage("a", [1e200, 1e200])])
    with pytest.raises(ValidationError, match="overflow"), \
            pytest.warns(RuntimeWarning, match="overflow"):
        store.top_k([1e200, -1e200], k=1)


def test_query_dimension_mismatch_rejected():
    store = PassageStore(dim=2, passages=[_passage("a", [1.0, 0.0])])
    with pytest.raises(ValidationError, match="dimension"):
        store.top_k([1.0, 0.0, 0.0], k=1)


def test_passage_rejects_bad_source_and_dist():
    with pytest.raises(ValidationError):
        _passage("p", [1.0], source="web")
    with pytest.raises(ValidationError):
        _passage("p", [1.0], token_dist=np.array([0.5, 0.6]))
    for bad in ([np.nan, 0.5], [np.inf, 0.0], [1.0, np.nan], [1e308, 1e308]):
        with pytest.raises(ValidationError, match="token_dist is not a distribution"):
            _passage("p", [1.0], token_dist=np.array(bad))


# --- merging and weights ------------------------------------------------------------

def test_topk_merge_ordering():
    kb = [(_passage("k1", [1.0]), 5.0), (_passage("k2", [1.0]), 1.0)]
    mem = [(_passage("m1", [1.0], source="memory"), 3.0)]
    merged = topk_merge(kb, mem, z=2)
    assert [s for _, s in merged] == [5.0, 3.0]


def test_topk_merge_z_larger_than_total():
    kb = [(_passage("k1", [1.0]), 2.0)]
    mem = [(_passage("m1", [1.0], source="memory"), 1.0)]
    assert len(topk_merge(kb, mem, z=10)) == 2


def test_topk_merge_kb_before_memory_on_tie():
    kb = [(_passage("k1", [1.0]), 3.0)]
    mem = [(_passage("a0", [1.0], source="memory"), 3.0)]
    merged = topk_merge(kb, mem, z=1)
    assert merged[0][0].source == "kb"


def test_topk_merge_empty():
    with pytest.raises(ValidationError):
        topk_merge([], [], z=1)


def test_marginal_weights():
    np.testing.assert_allclose(marginal_weights([2.0, 2.0, 2.0]), [1 / 3] * 3, atol=1e-12)
    np.testing.assert_allclose(marginal_weights([np.log(2.0), 0.0]), [2 / 3, 1 / 3],
                               atol=1e-12)
    np.testing.assert_allclose(marginal_weights([7.0]), [1.0])


def test_marginalize_token_dists():
    out = marginalize_token_dists([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)
    single = marginalize_token_dists([1.0], [[0.3, 0.7]])
    np.testing.assert_allclose(single, [0.3, 0.7], atol=1e-12)
    weighted = marginalize_token_dists([0.75, 0.25], [[0.8, 0.2], [0.4, 0.6]])
    np.testing.assert_allclose(weighted, [0.7, 0.3], atol=1e-12)


def test_marginalize_convex_combination_bounds():
    rng = np.random.default_rng(23)
    for _ in range(50):
        z = int(rng.integers(1, 5))
        v = int(rng.integers(2, 6))
        dists = rng.random((z, v))
        dists /= dists.sum(axis=1, keepdims=True)
        weights = marginal_weights(rng.normal(size=z))
        out = marginalize_token_dists(weights, dists)
        assert abs(float(out.sum()) - 1.0) < 1e-9
        assert np.all(out <= dists.max(axis=0) + 1e-12)
        assert np.all(out >= dists.min(axis=0) - 1e-12)


def test_marginalize_rejects_mismatch_and_bad_dist():
    with pytest.raises(ValidationError):
        marginalize_token_dists([1.0], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        marginalize_token_dists([1.0], [[0.5, 0.6]])
    with pytest.raises(ValidationError, match="distribution 0"):
        marginalize_token_dists([1.0], [[np.nan, 1.0]])


# --- memory cache --------------------------------------------------------------------

def test_lru_eviction():
    cache = MemoryCache(capacity=2, policy="LRU")
    cache.add(_passage("a", [1.0], source="memory"))
    cache.add(_passage("b", [1.0], source="memory"))
    cache.touch("a")
    cache.add(_passage("c", [1.0], source="memory"))
    assert set(cache.ids()) == {"a", "c"}


def test_fifo_ignores_touch():
    cache = MemoryCache(capacity=2, policy="FIFO")
    cache.add(_passage("a", [1.0], source="memory"))
    cache.add(_passage("b", [1.0], source="memory"))
    cache.touch("a")
    cache.add(_passage("c", [1.0], source="memory"))
    assert set(cache.ids()) == {"b", "c"}


def test_readd_replaces_payload_and_refreshes_lru():
    cache = MemoryCache(capacity=2, policy="LRU")
    cache.add(_passage("a", [1.0], source="memory"))
    cache.add(_passage("b", [1.0], source="memory"))
    replacement = Passage(id="a", key=np.array([1.0]), payload="new", source="memory")
    cache.add(replacement)
    cache.add(_passage("c", [1.0], source="memory"))
    assert set(cache.ids()) == {"a", "c"}
    assert [p.payload for p in cache.passages() if p.id == "a"] == ["new"]


def test_cache_never_exceeds_capacity_and_reset():
    cache = MemoryCache(capacity=3, policy="FIFO")
    for i in range(10):
        cache.add(_passage(f"p{i}", [float(i)], source="memory"))
        assert len(cache) <= 3
    cache.reset()
    assert len(cache) == 0


def test_cache_touch_unknown_id():
    cache = MemoryCache(capacity=2)
    with pytest.raises(ValidationError):
        cache.touch("ghost")


# --- retrieve ------------------------------------------------------------------------

def test_retrieve_exact_match_ranks_first():
    store = PassageStore(dim=2, passages=[
        _passage("hit", [1.0, 0.0]), _passage("miss1", [0.0, 1.0]),
        _passage("miss2", [0.0, -1.0]),
    ])
    merged, weights = retrieve([1.0, 0.0], store, None, k_kb=3, k_mem=1, z=3)
    assert merged[0][0].id == "hit"
    assert weights[0] > max(weights[1:])


def test_retrieve_empty_memory_equals_kb_only():
    store = PassageStore(dim=2, passages=[
        _passage("a", [1.0, 0.0]), _passage("b", [0.5, 0.5])])
    cache = MemoryCache(capacity=4)
    with_cache, w1 = retrieve([1.0, 0.0], store, cache, k_kb=2, k_mem=2, z=2)
    without, w2 = retrieve([1.0, 0.0], store, None, k_kb=2, k_mem=2, z=2)
    assert [p.id for p, _ in with_cache] == [p.id for p, _ in without]
    np.testing.assert_allclose(w1, w2)


def test_retrieve_merge_softmax_composition():
    store = PassageStore(dim=1, passages=[
        _passage("k1", [5.0]), _passage("k2", [1.0])])
    cache = MemoryCache(capacity=2)
    cache.add(_passage("m1", [3.0], source="memory"))
    merged, weights = retrieve([1.0], store, cache, k_kb=2, k_mem=1, z=2)
    assert [s for _, s in merged] == [5.0, 3.0]
    np.testing.assert_allclose(weights, marginal_weights([5.0, 3.0]))


def test_retrieve_both_empty():
    store = PassageStore(dim=1)
    with pytest.raises(ValidationError):
        retrieve([1.0], store, None, k_kb=1, k_mem=1, z=1)


# --- passage files ---------------------------------------------------------------------

def test_passage_file_round_trip(tmp_path):
    store = PassageStore(dim=2, passages=[
        _passage("a", [1.0, 0.5], position=3, token_dist=np.array([0.25, 0.75])),
        _passage("b", [0.0, 1.0], source="memory"),
    ])
    path = tmp_path / "p.psg"
    write_passages(store, path)
    loaded = read_passages(path)
    assert loaded.dim == 2
    ids = [p.id for p in loaded]
    assert ids == ["a", "b"]
    first = next(iter(loaded))
    assert first.position == 3
    np.testing.assert_allclose(first.token_dist, [0.25, 0.75])


@settings(max_examples=60, deadline=None)
@given(store=passage_stores())
def test_passage_file_round_trip_property(tmp_path_factory, store):
    path = tmp_path_factory.mktemp("psg") / "p.psg"
    write_passages(store, path)
    loaded = read_passages(path)
    assert loaded.dim == store.dim and len(loaded) == len(store)
    for a, b in zip(loaded, store):
        assert (a.id, a.payload, a.source, repr(a.position)) == (b.id, b.payload, b.source,
                                                                 repr(b.position))
        assert a.key.dtype == np.float64 and a.key.tobytes() == b.key.tobytes()
        assert ((a.token_dist is None and b.token_dist is None)
                or a.token_dist.tobytes() == b.token_dist.tobytes())


def test_passage_file_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.psg"
    path.write_text('{"dim":2}\n{"id":"a","source":"kb","key":[1.0,0.0],"payload":"x"}\nbroken\n')
    with pytest.raises(ParseError, match="line 3"):
        read_passages(path)


def test_passage_file_line_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "bad.psg"
    path.write_text('{"dim":2}\n{"id":"a","source":"kb","key":[1.0,0.0],"payload":"x"}\n'
                    '\nbroken\n')
    with pytest.raises(ParseError, match=re.escape(f"{path} line 4: ")):
        read_passages(path)


def test_passage_file_wrong_key_dimension_names_line(tmp_path):
    path = tmp_path / "bad.psg"
    path.write_text('{"dim":2}\n{"id":"a","source":"kb","key":[1.0,0.0],"payload":"x"}\n'
                    '{"id":"b","source":"kb","key":[1.0],"payload":"y"}\n')
    with pytest.raises(ParseError, match=re.escape(f"{path} line 3: ") + ".*key dimension 1"):
        read_passages(path)


def test_passage_file_nan_token_dist_names_line(tmp_path):
    path = tmp_path / "bad.psg"
    path.write_text('{"dim":1}\n{"id":"a","source":"kb","key":[1.0],"payload":"x",'
                    '"token_dist":[NaN,0.5]}\n')
    with pytest.raises(ParseError, match=re.escape(f"{path} line 2: ") + ".*token_dist"):
        read_passages(path)


_PASSAGE = {"id": "a", "source": "kb", "key": [1.0, 0.0], "payload": "x"}
# a header and a passage line, and what the error says of the line it names;
# none of them is converted, as a trace's fields are not
_BAD_PASSAGE_FILES = {
    "dim_fraction": ({"dim": 2.7}, _PASSAGE, "line 1: malformed passage header: "
                     "dim must be an integer, got 2.7"),
    "dim_string": ({"dim": "2"}, _PASSAGE, "line 1: malformed passage header: "
                   "dim must be an integer, got '2'"),
    "dim_bool": ({"dim": True}, _PASSAGE, "line 1: malformed passage header: "
                 "dim must be an integer, got True"),
    "key_string": ({"dim": 2}, {**_PASSAGE, "key": ["1.0", "0.0"]},
                   "line 2: malformed passage: key must hold only numbers, got '1.0'"),
    "key_bool": ({"dim": 2}, {**_PASSAGE, "key": [1.0, False]},
                 "line 2: malformed passage: key must hold only numbers, got False"),
    "token_dist_string": ({"dim": 2}, {**_PASSAGE, "token_dist": ["1.0", "0.0"]},
                          "line 2: malformed passage: token_dist must hold only numbers, "
                          "got '1.0'"),
    "token_dist_bool": ({"dim": 2}, {**_PASSAGE, "token_dist": [True, 0.0]},
                        "line 2: malformed passage: token_dist must hold only numbers, "
                        "got True"),
    "id_int": ({"dim": 2}, {**_PASSAGE, "id": 7},
               "line 2: malformed passage: id must be a string, got 7"),
    "source_list": ({"dim": 2}, {**_PASSAGE, "source": ["kb"]},
                    "line 2: malformed passage: source must be a string, got ['kb']"),
    "payload_null": ({"dim": 2}, {**_PASSAGE, "payload": None},
                     "line 2: malformed passage: payload must be a string, got None"),
    "position_string": ({"dim": 2}, {**_PASSAGE, "position": "3"},
                        "line 2: malformed passage: position must be an integer, got '3'"),
    "position_fraction": ({"dim": 2}, {**_PASSAGE, "position": 1.5},
                          "line 2: malformed passage: position must be an integer, got 1.5"),
}


@pytest.mark.parametrize("case", _BAD_PASSAGE_FILES)
def test_passage_file_refuses_what_it_would_convert(tmp_path, case):
    header, passage, message = _BAD_PASSAGE_FILES[case]
    path = tmp_path / "bad.psg"
    path.write_text(json.dumps(header) + "\n" + json.dumps(passage) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path} {message}")):
        read_passages(path)


def _passage_fault(path, case, changed):
    """What is wrong with reading one line_mutants change of a passage
    file, if anything: it must be read, or raise a ParseError that begins
    with the file, then a line number or the rest of the message."""
    path.write_text("\n".join(changed) + "\n")
    try:
        read_passages(path)
    except ParseError as exc:
        if not re.match(rf"{re.escape(str(path))}( line \d+)?: ", str(exc)):
            return f"{case}: {exc}"
    except Exception as exc:  # a warning, too, under filterwarnings = error
        return f"{case}: {type(exc).__name__}: {exc}"
    return None


def test_one_corrupt_token_of_a_passage_file_is_a_parse_error_that_names_it(tmp_path):
    """Each line_mutants change of a passage file: _passage_fault finds
    nothing wrong."""
    lines = ['{"dim":2}', '{"id":"p0","source":"kb","key":[0.5,-1.0],"payload":"a b",'
             '"position":0,"token_dist":[0.25,0.75]}',
             '{"id":"p1","source":"memory","key":[1.5,2.0],"payload":"c","position":3}']
    faults = [_passage_fault(tmp_path / "kb.psg", *mutant) for mutant in line_mutants(lines)]
    assert not any(faults), "\n".join(filter(None, faults))


@settings(max_examples=80, deadline=None)
@given(store=passage_stores(), data=st.data())
def test_one_corrupt_token_of_a_drawn_passage_file_is_a_parse_error_that_names_it(
        tmp_path_factory, store, data):
    """One line_mutants change of a drawn store's file, as written by
    write_passages: _passage_fault finds nothing wrong."""
    path = tmp_path_factory.mktemp("psg") / "kb.psg"
    write_passages(store, path)
    mutant = data.draw(st.sampled_from(list(line_mutants(path.read_text().splitlines()))),
                       label="change")
    fault = _passage_fault(path, *mutant)
    assert fault is None, fault


# --- the matrix scan against the per-pair reference ------------------------------------

def _reference_top_k(passages, query, k):
    """The scan as it was before the key matrix: one score() per passage,
    then a full sort."""
    hits = [(p, score(query, p.key)) for p in passages]
    hits.sort(key=lambda ps: (-ps[1], ps[0].id))
    return hits[:k]


class _ReferenceCache:
    """MemoryCache as it was before slots: an id -> passage OrderedDict."""

    def __init__(self, capacity, policy):
        self.capacity, self.policy = capacity, policy
        self.entries = OrderedDict()

    def add(self, passage):
        if passage.id in self.entries:
            self.entries[passage.id] = passage
            if self.policy == "LRU":
                self.entries.move_to_end(passage.id)
        else:
            self.entries[passage.id] = passage
            while len(self.entries) > self.capacity:
                self.entries.popitem(last=False)

    def touch(self, passage_id):
        if self.policy == "LRU":
            self.entries.move_to_end(passage_id)


# integer values force score ties; the floats exercise rounding
_VALUES = st.one_of(st.integers(-3, 3).map(float),
                    st.floats(-100, 100, allow_nan=False, allow_infinity=False))
_IDS = st.sampled_from(["a", "b", "c", "d", "e"])


def _vectors(dim):
    return st.lists(_VALUES, min_size=dim, max_size=dim)


@st.composite
def _store_ops(draw):
    dim = draw(st.integers(1, 4))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("add"), _IDS, _vectors(dim)),
        st.tuples(st.just("query"), _vectors(dim), st.integers(1, 12))), max_size=25))
    return dim, ops


@settings(max_examples=200, deadline=None)
@given(_store_ops())
def test_store_top_k_equals_per_pair_reference(dim_ops):
    dim, ops = dim_ops
    store, passages = PassageStore(dim=dim), []
    for op in ops:
        if op[0] == "add":
            passage = _passage(op[1], op[2])
            store.add(passage)
            passages.append(passage)
        else:
            assert repr(store.top_k(op[1], op[2])) == repr(_reference_top_k(passages, *op[1:]))


@st.composite
def _cache_ops(draw):
    dim = draw(st.integers(1, 4))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("add"), _IDS, _vectors(dim)),
        st.tuples(st.just("touch"), _IDS),
        st.tuples(st.just("reset")),
        st.tuples(st.just("query"), _vectors(dim), st.integers(1, 6))), max_size=30))
    return dim, draw(st.integers(1, 4)), draw(st.sampled_from(["LRU", "FIFO"])), ops


@settings(max_examples=200, deadline=None)
@given(_cache_ops())
def test_cache_top_k_equals_per_pair_reference(case):
    dim, capacity, policy, ops = case
    cache, reference = MemoryCache(capacity, policy), _ReferenceCache(capacity, policy)
    for op in ops:
        if op[0] == "add":
            passage = _passage(op[1], op[2], source="memory")
            cache.add(passage)
            reference.add(passage)
        elif op[0] == "touch" and op[1] in reference.entries:
            cache.touch(op[1])
            reference.touch(op[1])
        elif op[0] == "reset":
            cache.reset()
            reference.entries.clear()
        elif op[0] == "query":
            assert repr(cache.top_k(op[1], op[2])) == repr(
                _reference_top_k(list(reference.entries.values()), *op[1:]))
        assert cache.ids() == list(reference.entries)
        assert cache.passages() == list(reference.entries.values())
