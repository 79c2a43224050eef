"""Shared data model and the line-delimited file formats for traces,
annotations, and gold labels.

A trace file is a JSON header line followed by one JSON record per
sentence. A trace is held as whole-trace columns (`Columns`), which the
reader fills and the metric kernels read; its records are read-only views
of them. All types are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Iterator, Mapping, NamedTuple, Optional

import numpy as np


class ValidationError(ValueError):
    """A constructed object violates one of its invariants. `sentence`, if
    not None, is the one sentence of a trace or series that it is about."""

    def __init__(self, message: str, sentence: Optional[int] = None):
        super().__init__(message)
        self.sentence = sentence


class ParseError(ValidationError):
    """A serialized file contains an unreadable record."""


class DegenerateStatisticsError(ValueError):
    """A statistic is undefined for this input (zero variance, no pairs)."""


PROB_SUM_TOL = 1e-9
PROB_RENORM_TOL = 1e-6


def _is_distribution(dist: np.ndarray) -> bool:
    """Finite, non-negative and summing to 1 within PROB_SUM_TOL (NaN fails
    every comparison, so it is tested for first; a sum that overflows fails
    without a numpy warning)."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(dist).all() and np.all(dist >= 0)
                    and abs(float(dist.sum()) - 1.0) <= PROB_SUM_TOL)


KNOWN_VARIANTS = ("base", "deleted", "swapped", "no_knowledge")


class Judgment(Enum):
    BIG_DECREASE = "BD"
    DECREASE = "D"
    SAME = "S"
    INCREASE = "I"
    BIG_INCREASE = "BI"


class _Faults:
    """The first fault among rows [0, end). Each check runs on the rows
    before the first fault found so far, and a fault it finds there
    replaces it, so the fault left is that of the first faulty row, under
    the first check in order that the row fails. A constructor is a
    one-row call of the checks the reader runs on whole columns."""

    def __init__(self, end: int, message: Optional[str] = None):
        self.end, self.message = end, message

    def check(self, flags, message, rows=None) -> None:
        """`flags`, one per row or per item of the rows `rows` (ascending):
        the first flagged, k, is a fault with message(k) if its row is
        before the fault found so far."""
        if type(flags) is np.ndarray:
            k = int(flags.argmax()) if flags.any() else None
        else:
            k = next(itertools.compress(itertools.count(), flags), None)
        if k is not None and (row := k if rows is None else int(rows[k])) < self.end:
            self.end, self.message = row, message(k)


def _not_int(value) -> bool:
    """Whether a value is no JSON integer: a float, bool or string is none."""
    return type(value) is bool or not isinstance(value, int)


def _int_problem(values, what: str) -> Optional[str]:
    """What is wrong with values that must be integers: the first that is none."""
    bad = [v for v in values if _not_int(v)]
    return f"{what} must be an integer, got {bad[0]!r}" if bad else None


def _not_number(value) -> bool:
    """Whether an optional value (None: absent) is no JSON number; a bool is none."""
    return value is not None and (type(value) is bool or not isinstance(value, (int, float)))


def _float(number) -> float:
    """float(number), but an integer too large for a float is +-inf, which
    the finite checks refuse, where float() raises OverflowError."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def _floats(value) -> np.ndarray:
    """A new float array of `value` (never the caller's own, which the
    constructors make read-only), with _float's +-inf for a too-large integer."""
    try:
        return np.array(value, float)
    except OverflowError:
        return np.vectorize(_float, otypes=[float])(np.array(value, object))


def _json_int(value, what: str) -> int:
    """A JSON integer: a float, bool or string is refused, not truncated."""
    if _not_int(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _embedding_dim(value) -> int:
    """A header's or trace's embedding_dim: a JSON integer of at least 1."""
    if _json_int(value, "embedding_dim") < 1:
        raise ValidationError("embedding_dim must be positive")
    return value


def _optional(values: list) -> tuple[np.ndarray, np.ndarray]:
    """Optional numbers as a float column (0 where absent) and its presence mask."""
    return (np.array([0.0 if v is None else v for v in values], float),
            np.array([v is not None for v in values], bool))


def _array_vectors(arrays: list) -> tuple:
    """Float arrays as vectors for _check_vectors: their values end to end,
    their sizes, and which are not 1-d."""
    flat = [a.reshape(-1) for a in arrays]
    return (flat[0] if len(flat) == 1 else np.concatenate(flat) if flat else np.empty(0),
            [a.size for a in arrays], [a.ndim != 1 for a in arrays])


def _check_vectors(f: _Faults, what, flat, lengths, not_1d, rows=None) -> None:
    """Each vector non-empty and 1-d, then finite. The vectors are given as
    _array_vectors gives them, named `what` (or what[k], a list), and lie
    in the rows `rows` (or one a row)."""
    name = what.__getitem__ if type(what) is list else lambda k: what
    if True in not_1d or 0 in lengths:
        f.check((bad or not size for size, bad in zip(lengths, not_1d)),
                lambda k: f"{name(k)} must be a non-empty 1-d vector", rows)
    finite = np.isfinite(flat)
    if not finite.all():
        items = np.repeat(np.arange(len(lengths)), lengths)
        f.check(~finite, lambda p: f"{name(items[p])} contains non-finite values",
                items if rows is None else np.asarray(rows)[items])


def _run_sums(flat: np.ndarray, lengths) -> np.ndarray:
    """The sum of each run of `flat`, the runs end to end with `lengths`, as
    np.sum adds a run alone: one sum(axis=1) per run length (np.add.reduceat
    adds in order, which differs in the last bit, and gives an empty run no 0)."""
    lengths = np.asarray(lengths, np.intp)
    starts, sums = np.cumsum(lengths) - lengths, np.empty(len(lengths))
    for length in _distinct(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        sums[rows] = flat[starts[rows, None] + np.arange(length)].sum(axis=1)
    return sums


def _check_sets(f: _Faults, counts, sizes, probs: tuple, stored, rows=None,
                sample_rows=None) -> None:
    """ContinuationSet's checks of the vectors of each set of counts[k] > 0
    samples of lengths `sizes` (all sets' in order): the samples of one
    length, then the stored probabilities of the sets `stored`, given as
    _array_vectors gives them: non-empty and 1-d, finite, one per sample,
    non-negative and summing to 1."""
    counts = np.asarray(counts)
    if len(set(sizes)) > 1:  # then some set's samples may differ in length
        sizes = np.asarray(sizes)
        f.check(sizes != np.repeat(sizes[np.cumsum(counts) - counts], counts),
                lambda k: "continuation sample embeddings differ in dimension", sample_rows)
    flat, lengths, _ = probs
    if len(lengths):
        lengths = np.array(lengths)
        prob_rows = np.flatnonzero(stored) if rows is None else rows[stored]
        _check_vectors(f, "continuation probabilities", *probs, prob_rows)
        f.check(lengths != counts[stored], lambda k: "probability vector length differs from "
                "sample count", prob_rows)
        f.check(flat < 0, lambda k: "continuation probabilities must be non-negative",
                np.repeat(prob_rows, lengths))
        f.check(np.abs(_run_sums(flat, lengths) - 1.0) > PROB_SUM_TOL,
                lambda k: "continuation probabilities must sum to 1", prob_rows)


def _refuse(fault: Optional[str]) -> None:
    if fault is not None:
        raise ValidationError(fault)


def _sample_fault(score) -> Optional[str]:
    """What is wrong with a continuation sample's score, if anything."""
    if _not_number(score):
        return f"sample score must be a number, got {score!r}"
    if score is not None and not math.isfinite(_float(score)):
        return "sample raw_score must be finite"
    return None


def _set_fault(horizon, count: int) -> Optional[str]:
    """What is wrong with a continuation set's horizon or sample count."""
    if _not_int(horizon):
        return f"continuation n must be an integer, got {horizon!r}"
    if horizon < 1:
        return "continuation horizon must be >= 1"
    return None if count else "continuation samples must be non-empty"


def _record_fault(index, text, avg_ll, sentiment) -> Optional[str]:
    """What is wrong with a record's index, text, avg_ll or sentiment."""
    if _not_int(index):
        return f"index must be an integer, got {index!r}"
    if index < 0:
        return "sentence index must be >= 0"
    if text is not None and not isinstance(text, str):
        return f"sentence text must be a string, got {text!r}"
    if _not_number(avg_ll):
        return f"avg_ll must be a number, got {avg_ll!r}"
    if avg_ll is not None and not math.isfinite(_float(avg_ll)):
        return "avg_log_likelihood must be finite"
    if _not_number(sentiment):
        return f"sentiment must be a number, got {sentiment!r}"
    if sentiment is not None and not -1.0 <= sentiment <= 1.0:
        return "sentiment must lie in [-1, 1]"
    return None


def _file_name(story_id) -> str:
    """A story_id that names output files: a plain file name, never a path."""
    if (type(story_id) is not str or story_id in ("", ".", "..")
            or any(c in story_id for c in "/\\\0")):
        raise ValidationError(f"story_id must be a plain file name, got {story_id!r}")
    return story_id


def _json_meta(meta) -> dict:
    """A trace's meta: a JSON object of strings."""
    if type(meta) is not dict or not all(type(x) is str for kv in meta.items() for x in kv):
        raise ValidationError(f"meta must be an object of strings, got {meta!r}")
    return meta


# slots: a chapter trace holds tens of thousands of records, sets and samples.
# eq=False: a type that holds arrays compares and hashes by identity.
@dataclass(frozen=True, slots=True, eq=False)
class ContinuationSample:
    embedding: np.ndarray
    raw_score: Optional[float] = None

    def __post_init__(self):
        embedding = _floats(self.embedding)
        f = _Faults(1)
        _check_vectors(f, "sample embedding", *_array_vectors([embedding]))
        _refuse(f.message)
        _refuse(_sample_fault(self.raw_score))
        embedding.setflags(write=False)
        object.__setattr__(self, "embedding", embedding)


@dataclass(frozen=True, slots=True, eq=False)
class ContinuationSet:
    """Imagined continuations n sentences ahead, optionally with an
    explicit probability vector over the samples."""

    horizon: int
    samples: tuple[ContinuationSample, ...]
    probabilities: Optional[np.ndarray] = None

    def __post_init__(self):
        samples = tuple(self.samples)
        _refuse(_set_fault(self.horizon, len(samples)))
        probs = [] if self.probabilities is None else [_floats(self.probabilities)]
        f = _Faults(1)
        _check_sets(f, [len(samples)], [s.embedding.shape[0] for s in samples],
                    _array_vectors(probs), [bool(probs)], sample_rows=[0] * len(samples))
        _refuse(f.message)
        object.__setattr__(self, "samples", samples)
        if probs:
            probs[0].setflags(write=False)
            object.__setattr__(self, "probabilities", probs[0])

    @property
    def embedding_dim(self) -> int:
        return self.samples[0].embedding.shape[0]

    def sample_embeddings(self) -> np.ndarray:
        return np.stack([s.embedding for s in self.samples])


@dataclass(frozen=True, slots=True, eq=False)
class SentenceRecord:
    index: int
    embedding: np.ndarray
    text: Optional[str] = None
    avg_log_likelihood: Optional[float] = None
    window_token_loglikes: Optional[Mapping[str, np.ndarray]] = None
    window_embedding: Optional[Mapping[str, np.ndarray]] = None
    sentiment: Optional[float] = None
    continuations: Optional[ContinuationSet] = None

    def __post_init__(self):
        _refuse(_record_fault(self.index, self.text, self.avg_log_likelihood, self.sentiment))
        vectors = {"embedding": _floats(self.embedding)}
        for name in ("window_token_loglikes", "window_embedding"):
            windows = getattr(self, name)
            if windows is not None:
                if not all(type(variant) is str for variant in windows):
                    raise ValidationError(f"{name} variants must be strings, got {list(windows)}")
                windows = {variant: _floats(vec) for variant, vec in windows.items()}
                vectors.update((f"{name}[{variant!r}]", vec) for variant, vec in windows.items())
                object.__setattr__(self, name, windows)
        f = _Faults(1)  # one check of all the record's vectors
        _check_vectors(f, list(vectors), *_array_vectors(list(vectors.values())),
                       [0] * len(vectors))
        _refuse(f.message)
        for vec in vectors.values():
            vec.setflags(write=False)
        object.__setattr__(self, "embedding", vectors["embedding"])


def _unchecked(cls, *values):
    """An instance of the slotted dataclass `cls` with these field values,
    not checked again: a view of columns that were."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class Windows(NamedTuple):
    """One variant's windows: those of the sentences `rows`, in order, as
    `values`, the log-likelihoods end to end or an (m, d) matrix of
    embeddings, each window of `lengths` entries."""
    rows: np.ndarray
    values: np.ndarray
    lengths: np.ndarray


@dataclass(frozen=True, eq=False)
class Columns:
    """A trace, or rows of one, as whole-trace columns: one row per
    sentence, with indices from `base`, and every array read-only. An
    optional number is 0 where its mask is False. The continuation sets
    hold counts[i] samples each (none if 0), all in `samples` in order;
    `probs` holds the stored probabilities of the sets with has_probs."""
    base: int
    embeddings: np.ndarray     # (n, d)
    text: tuple                # str or None
    avg_ll: np.ndarray
    has_avg_ll: np.ndarray
    sentiment: np.ndarray
    has_sentiment: np.ndarray
    has_win_ll: np.ndarray     # whether a sentence has a window_token_loglikes mapping
    win_ll: dict               # variant -> Windows of log-likelihoods
    has_win_emb: np.ndarray
    win_emb: dict              # variant -> Windows of embeddings
    counts: np.ndarray
    horizons: tuple            # an int, or 0 without a set
    has_probs: np.ndarray
    samples: np.ndarray        # (total, d)
    scores: np.ndarray         # (total,)
    has_score: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        arrays = [*vars(self).values(), *(a for w in self.win_ll.values() for a in w),
                  *(a for w in self.win_emb.values() for a in w)]
        for array in arrays:
            if isinstance(array, np.ndarray):
                array.setflags(write=False)

    def starts(self, counts=None) -> np.ndarray:
        """Where each row's set (or run of `counts`) starts in its column."""
        counts = self.counts if counts is None else counts
        return np.cumsum(counts) - counts


def _row(rec: SentenceRecord) -> tuple:
    """A checked record's fields, in the row form of _fields."""
    cont = rec.continuations
    return (rec.index, rec.text, rec.embedding, rec.avg_log_likelihood,
            rec.window_token_loglikes, rec.window_embedding, rec.sentiment,
            None if cont is None else (cont.horizon, [(s.embedding, s.raw_score)
                                                      for s in cont.samples], cont.probabilities))


def _one_row(rec: SentenceRecord) -> Columns:
    """The columns of one checked record, of any index, whose vectors need
    not share a length: a public scalar's one-row call of a kernel."""
    return _columns([_row(rec)], None, None, _Faults(1))


def _rows(c: Columns) -> list:
    """The rows of columns `c` in the row form of _fields, each vector a
    read-only view of its column, each window mapping sorted by variant."""
    windows = []
    for has, column in ((c.has_win_ll, c.win_ll), (c.has_win_emb, c.win_emb)):
        rows = [{} if h else None for h in has.tolist()]
        for variant, w in sorted(column.items()):
            vectors = w.values if w.values.ndim == 2 else np.split(w.values,
                                                                   np.cumsum(w.lengths)[:-1])
            for row, vec in zip(w.rows.tolist(), vectors):
                rows[row][variant] = vec
        windows.append(rows)

    def optional(values, present) -> list:
        return [v if has else None for v, has in zip(values.tolist(), present.tolist())]
    samples = list(zip(c.samples, optional(c.scores, c.has_score)))
    starts, prob_starts = c.starts().tolist(), c.starts(c.counts * c.has_probs).tolist()
    rows = []
    for r, (k, at, prob_at, avg_ll, sentiment) in enumerate(zip(
            c.counts.tolist(), starts, prob_starts, optional(c.avg_ll, c.has_avg_ll),
            optional(c.sentiment, c.has_sentiment))):
        cont = k and (c.horizons[r], samples[at:at + k],
                      c.probs[prob_at:prob_at + k] if c.has_probs[r] else None)
        rows.append((c.base + r, c.text[r], c.embeddings[r], avg_ll, windows[0][r],
                     windows[1][r], sentiment, cont or None))
    return rows


def _concat(parts: list) -> Columns:
    """The rows of `parts`, a list of Columns it empties, in order: each
    field's arrays are let go as that field is joined."""
    parts[:] = [part for part in parts if part.text] or parts[:1]
    if len(parts) == 1:
        return parts.pop()
    fields = [dict(vars(parts.pop(0))) for _ in range(len(parts))]
    offsets = np.cumsum([0] + [len(f["text"]) for f in fields]).tolist()
    joined = {}
    for name in list(fields[0]):
        values = [f.pop(name) for f in fields]
        if name == "base":
            joined[name] = values[0]
        elif name in ("text", "horizons"):
            joined[name] = tuple(itertools.chain.from_iterable(values))
        elif name in ("win_ll", "win_emb"):
            joined[name] = {variant: Windows(*map(np.concatenate, zip(*(
                (w[variant].rows + at, *w[variant][1:]) for w, at in zip(values, offsets)
                if variant in w)))) for variant in sorted(set(itertools.chain(*values)))}
        else:
            joined[name] = np.concatenate(values)
    return Columns(**joined)


@dataclass(frozen=True, eq=False)
class StoryTrace:
    """A story's trace, held only as `columns`: the records it is built
    from are checked into columns and let go. Its `sentences` are built on
    first use, as read-only views of the columns."""
    story_id: str
    sentences: tuple[SentenceRecord, ...]
    embedding_dim: int
    meta: Mapping[str, str] = field(default_factory=dict)
    columns: Columns = field(init=False, repr=False)

    def __post_init__(self):
        _file_name(self.story_id)
        rows = [_row(rec) for rec in self.sentences]
        if not rows:
            raise ValidationError("a trace needs at least one sentence")
        f = _Faults(len(rows))
        columns = _columns(rows, _embedding_dim(self.embedding_dim), 0, f)
        if f.message is not None:
            raise ValidationError(f"sentence {f.end}: {f.message}")
        object.__delattr__(self, "sentences")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "meta", dict(_json_meta(self.meta)))

    def __getattr__(self, name):
        """The sentences, built on first use: each vector a view of its
        column, with no copy and no second check."""
        if name != "sentences":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        records = []
        for index, text, e, avg_ll, win_ll, win_emb, sentiment, cont in _rows(self.columns):
            if cont is not None:
                horizon, samples, probs = cont
                cont = _unchecked(ContinuationSet, horizon, tuple(
                    _unchecked(ContinuationSample, *sample) for sample in samples), probs)
            records.append(_unchecked(SentenceRecord, index, e, text, avg_ll, win_ll, win_emb,
                                      sentiment, cont))
        object.__setattr__(self, "sentences", tuple(records))
        return self.sentences

    def __len__(self) -> int:
        return len(self.columns.text)


def _trace_of(story_id: str, columns: Columns, embedding_dim: int, meta: dict) -> StoryTrace:
    """The trace of columns that were checked, or built checked: its
    sentences are built on first use, as views of its columns."""
    trace = object.__new__(StoryTrace)
    trace.__dict__.update(story_id=_file_name(story_id), embedding_dim=embedding_dim,
                          meta=meta, columns=columns)
    return trace


@dataclass(frozen=True, eq=False)
class MetricSeries:
    """A named per-sentence curve."""

    name: str
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)  # a copy: it is made read-only
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"series {self.name!r} must be a non-empty 1-d sequence")
        infinite = np.flatnonzero(~np.isfinite(arr))
        if infinite.size:
            raise ValidationError(f"series {self.name!r} contains non-finite values, "
                                  f"first at sentence {infinite[0]}", int(infinite[0]))
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])


def per_sentence_series(what: str, curves: Mapping, name: str, trace: StoryTrace,
                        cfg) -> MetricSeries:
    """The series of the curve `name` over `trace`: curves[name](trace, cfg)
    gives its per-sentence values and the mask of the sentences that have
    its inputs. A sentence without them scores 0; a curve that no sentence
    can compute is an error."""
    # finite inputs can overflow; the series then names its first non-finite sentence
    with np.errstate(over="ignore", invalid="ignore"):
        values, available = curves[name](trace, cfg)
    if not np.any(available):
        raise ValidationError(
            f"{what} {name!r}: required inputs absent for every sentence of {trace.story_id!r}")
    return MetricSeries(name=name, values=np.where(available, values, 0.0))


@dataclass(frozen=True)
class AnnotationSet:
    story_id: str
    annotators: Mapping[str, tuple[Judgment, ...]]

    def __post_init__(self):
        cleaned = {aid: tuple(seq) for aid, seq in self.annotators.items()}
        if not cleaned:
            raise ValidationError("annotation set has no annotators")
        lengths = {len(seq) for seq in cleaned.values()}
        if len(lengths) > 1:
            raise ValidationError("annotator sequences differ in length")
        if 0 in lengths:
            raise ValidationError("annotator sequences must be non-empty")
        object.__setattr__(self, "annotators", cleaned)

    @property
    def length(self) -> int:
        return len(next(iter(self.annotators.values())))


@dataclass(frozen=True)
class GoldLabels:
    kind: str  # "salience" | "turning_points"
    salient_indices: frozenset[int] = frozenset()
    tp_positions: tuple[int, ...] = ()
    tp_windows: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self):
        if self.kind not in ("salience", "turning_points"):
            raise ValidationError(f"unknown gold label kind {self.kind!r}")
        object.__setattr__(self, "salient_indices", frozenset(self.salient_indices))
        object.__setattr__(self, "tp_positions", tuple(self.tp_positions))
        if self.kind == "salience":
            problem = _int_problem(self.salient_indices, "a salient index")
            if problem:
                raise ValidationError(problem)
            if any(i < 0 for i in self.salient_indices):
                raise ValidationError("salient indices must be >= 0")
        else:
            if len(self.tp_positions) != 5:
                raise ValidationError("turning-point labels need exactly 5 positions, "
                                      f"got {len(self.tp_positions)}")
            if self.tp_windows is not None:
                windows = tuple((lo, hi) for lo, hi in self.tp_windows)
                if len(windows) != 5:
                    raise ValidationError("turning-point windows need exactly 5 entries, "
                                          f"got {len(windows)}")
                object.__setattr__(self, "tp_windows", windows)
            for pos, window in zip(self.tp_positions, self.tp_windows or itertools.repeat(None)):
                problem = _turning_point_problem(pos, window)
                if problem:
                    raise ValidationError(problem)


def _turning_point_problem(pos: int, window: Optional[tuple[int, int]]) -> Optional[str]:
    """What is wrong with one turning-point entry, if anything."""
    problem = _int_problem((pos, *(window or ())), "a turning-point position or window bound")
    if problem:
        return problem
    if pos < 0:
        return "turning-point positions must be >= 0"
    if window is not None:
        lo, hi = window
        if lo > hi:
            return f"window ({lo}, {hi}) has lo > hi"
        if not lo <= pos <= hi:
            return f"window ({lo}, {hi}) does not contain its position {pos}"
    return None


# ---------------------------------------------------------------------------
# serialization


_dump_line = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted. (np.unique, asked for nothing else,
    collects them in a hash table: on 4,000 bigram keys it left 1.4 MiB
    more of the process resident than this sort does.)"""
    ordered = np.sort(values)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def each_distinct(fn, values: np.ndarray, dtype) -> np.ndarray:
    """fn(x) for each float64 x of `values`, as an array of `dtype` in the
    order of `values`, calling fn once per distinct bit pattern: -0.0 and
    0.0 are apart."""
    bits = np.asarray(values, float).view(np.uint64)
    distinct = _distinct(bits)
    results = np.fromiter(map(fn, distinct.view(np.float64).tolist()), dtype, len(distinct))
    return results[np.searchsorted(distinct, bits)]


def _record_parts(index, text, e, avg_ll, win_ll, win_emb, sentiment, cont) -> list:
    """A row, in the row form of _fields with its window mappings sorted,
    as one line of JSON: a list of text pieces with the row's vectors in
    their places, in written order."""
    def optional(key: str, value) -> str:
        return "" if value is None else f',"{key}":{_dump_line(value)}'
    parts = ['{"index":', _dump_line(index), optional("text", text), ',"e":', e,
             optional("avg_ll", avg_ll)]
    for name, windows in (("win_ll", win_ll), ("win_emb", win_emb)):
        if windows is not None:
            parts.append(f',"{name}":{{')
            for k, (variant, vec) in enumerate(windows.items()):
                parts += [("," if k else "") + _dump_line(variant) + ":", vec]
            parts.append("}")
    parts.append(optional("sentiment", sentiment))
    if cont is not None:
        horizon, samples, probs = cont
        parts += [',"cont":{"n":', _dump_line(horizon), ',"samples":[']
        for k, (sample, score) in enumerate(samples):
            parts += [',{"e":' if k else '{"e":', sample, optional("score", score) + "}"]
        parts += ["]", *([] if probs is None else [',"probs":', probs]), "}"]
    parts.append("}")
    return parts


# Records are written, and read, in blocks of this many. The reader holds a
# block's decoded lines until it has built their columns. The writer formats
# each distinct float of a block once: nearby records share floats (the
# provider's continuation samples are other sentences' embeddings), but a
# block's floats and their text are held until its lines are written. Building and
# writing the three 100- to 400-sentence stories of perfbench's `build`
# took 381, 341, 333, 339, 342 and 348 ms of CPU at 1, 8, 16, 32, 64 and
# 128 records a block (medians of 24 interleaved rounds), and write_trace's
# traced peak on the 400-sentence story was 0.06, 0.36, 0.68, 1.32, 2.59
# and 5.03 MiB (2-core VM, Python 3.11, numpy 2.4).
_BLOCK = 32


def write_trace(trace: StoryTrace, path) -> None:
    """trace as a file: its header line, then each record's line as it is
    made. A record's floats are written by float.__repr__, as json.dumps
    writes them; each distinct bit pattern of a block of records is
    formatted once."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump_line({"story_id": trace.story_id, "embedding_dim": trace.embedding_dim,
                             "meta": {k: trace.meta[k] for k in sorted(trace.meta)}}) + "\n")
        rows = _rows(trace.columns)
        for b in range(0, len(rows), _BLOCK):
            block = [_record_parts(*row) for row in rows[b:b + _BLOCK]]
            vectors = [part for parts in block for part in parts if type(part) is not str]
            floats = iter(each_distinct(float.__repr__, np.concatenate(vectors), object).tolist())
            for parts in block:
                fh.write("".join(part if type(part) is str else
                                 f"[{','.join(itertools.islice(floats, part.size))}]"
                                 for part in parts) + "\n")


# A bytes value is a float literal that a projected read keeps as written.
_NUMBER_TYPES = {float, int, bytes}


def _json_numbers(value, what: str):
    """A JSON array is refused if it holds a string or bool, which numpy
    would convert; anything else is left for the vector checks."""
    if type(value) is list and not set(map(type, value)) <= _NUMBER_TYPES:
        bad = next(v for v in value if type(v) not in _NUMBER_TYPES)
        raise ValidationError(f"{what} must hold only numbers, got {bad!r}")
    return value


class _Scalar(list):
    """A JSON vector field that numpy reads as a 0-d array, as its one value."""


def _json_vector(value, what: str) -> list:
    """A JSON vector field as a list of numbers, a _Scalar, or an error."""
    if type(value) is list:
        return _json_numbers(value, what)
    return _Scalar([float(_floats(value))])


def _json_vectors(vectors: list) -> tuple:
    """_json_vector's lists, or a record's checked vectors, as vectors for
    _check_vectors."""
    lengths = np.fromiter(map(len, vectors), np.intp, len(vectors))
    numbers, total = itertools.chain.from_iterable, int(lengths.sum())
    try:
        flat = np.fromiter(numbers(vectors), float, total)
    except OverflowError:  # an integer too large for a float
        flat = np.fromiter(map(_float, numbers(vectors)), float, total)
    return flat, lengths, [type(v) is _Scalar for v in vectors]


# Decodes a JSON float to the bytes of its literal, for _columns to convert,
# and a JSON string to a str: a projected read converts only the floats it
# keeps, and still tells a number from a string.
_PROJECTING_DECODER = json.JSONDecoder(parse_float=str.encode)


def _fields(raw: str, full: bool = True) -> tuple:
    """The fields of a record line, each vector as _json_vector gives it,
    and a continuation set as (n, [(sample e, score)], probs), its stored
    probabilities renormalized: what the reader gathers into columns. A
    line whose fields are not all there, or whose fields of one value are
    faulty, raises a ValidationError with the line's message. With
    full=False only index, text and e are read, each float of e as the
    bytes of its literal, and the other fields are None."""
    try:
        obj = json.loads(raw) if full else _PROJECTING_DECODER.decode(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    try:
        e = _json_vector(obj["e"], "embedding")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"missing or malformed embedding: {exc}") from None
    try:
        index, cont = obj["index"], obj.get("cont")
        if not full:
            _refuse(_record_fault(index, obj.get("text"), None, None))
            return index, obj.get("text"), e, None, None, None, None, None
        windows = [None if win is None else {variant: _json_vector(vec, f"{name}[{variant!r}]")
                                             for variant, vec in win.items()}
                   for name, win in (("window_token_loglikes", obj.get("win_ll")),
                                     ("window_embedding", obj.get("win_emb")))]
        if cont is not None:
            cont = _continuation_fields(cont)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed record: {exc}") from None
    fields = (index, obj.get("text"), e, obj.get("avg_ll"), *windows, obj.get("sentiment"), cont)
    _refuse(_record_fault(index, fields[1], fields[3], fields[6]))
    return fields


def _continuation_fields(cont) -> tuple:
    try:
        samples = [(_json_vector(s["e"], "sample embedding"), s.get("score"))
                   for s in cont["samples"]]
        probs = cont.get("probs")
        if probs is not None:
            probs = _json_vector(probs, "continuation probabilities")
            total = float(np.sum(_floats(probs)))  # as np.sum adds it
            if abs(total - 1.0) > PROB_RENORM_TOL:
                raise ValidationError(f"continuation probabilities sum to {total}, "
                                      f"outside renormalization tolerance")
            if total != 1.0 and total > 0:
                probs = type(probs)(p / total for p in probs)
        horizon = cont["n"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed continuation set: {exc}") from None
    for _, score in samples:
        _refuse(_sample_fault(score))
    _refuse(_set_fault(horizon, len(samples)))
    return horizon, samples, probs


def _read_block(raws: list, embedding_dim: int, index, full: bool) -> tuple[Columns, _Faults]:
    """_columns of the record lines `raws`, each parsed into the row form by
    _fields (only index, text and e unless `full`), and their first fault."""
    f, fields = _Faults(len(raws)), []
    for raw in raws:
        try:
            fields.append(_fields(raw, full))
        except ValidationError as exc:
            f.end, f.message = len(fields), str(exc)
            break
    return _columns(fields, embedding_dim, index, f), f


def _columns(fields: list, embedding_dim: Optional[int], index: Optional[int],
             f: _Faults) -> Columns:
    """The columns of the rows `fields`, each in the row form of _fields,
    before the first fault, which is recorded in `f`. The first row must
    carry `index` (any, if None), and each next one the index after it.
    Each row's embedding, first continuation sample and window embeddings
    must be of length embedding_dim, unless it is None."""
    indices, text, e, avg_ll, win_ll, win_emb, sentiment, conts = (
        list(map(list, zip(*fields))) or [[]] * 8)
    set_rows = np.array([r for r, c in enumerate(conts) if c is not None], np.intp)
    sets = [c for c in conts if c is not None]
    counts = np.array([len(samples) for _, samples, _ in sets], np.intp)
    sample_rows = np.repeat(set_rows, counts)
    samples = _json_vectors([v for _, samples, _ in sets for v, _ in samples])
    _check_vectors(f, "sample embedding", *samples, sample_rows)
    stored = np.array([probs is not None for *_, probs in sets], bool)
    probs = _json_vectors([probs for *_, probs in sets if probs is not None])
    _check_sets(f, counts, samples[1], probs, stored, set_rows, sample_rows)
    vectors = _json_vectors(e)
    _check_vectors(f, "embedding", *vectors)
    windows = [{}, {}]  # variant -> Windows, the variants sorted, as write_trace writes them
    for name, mappings, column in zip(("window_token_loglikes", "window_embedding"),
                                      (win_ll, win_emb), windows):
        present = [(row, mapping) for row, mapping in enumerate(mappings) if mapping]
        for variant in sorted({variant for _, mapping in present for variant in mapping}):
            rows = np.array([row for row, mapping in present if variant in mapping], np.intp)
            vecs = [mappings[row][variant] for row in rows.tolist()]
            flat, lengths, not_1d = _json_vectors(vecs)
            _check_vectors(f, f"{name}[{variant!r}]", flat, lengths, not_1d, rows)
            column[variant] = Windows(rows, flat, lengths)
    if embedding_dim is not None:
        for what, (rows, sizes) in {
                "embedding": (None, vectors[1]),
                "continuation sample": (set_rows, samples[1][np.cumsum(counts) - counts]),
                **{f"window_embedding[{variant!r}]": (w.rows, w.lengths)
                   for variant, w in windows[1].items()}}.items():
            f.check(sizes != embedding_dim, lambda k: f"{what} length {sizes[k]} does not "
                    f"match embedding_dim={embedding_dim}", rows)
    base = indices[0] if index is None and indices else index or 0
    f.check((i != base + r for r, i in enumerate(indices[:f.end])), lambda r: f"sentence index "
            f"{indices[r]}, expected {base + r}; indices must be contiguous from 0")
    if f.end < len(fields):  # a fault among the rows: the rows before it, gathered again
        return _columns(fields[:f.end], embedding_dim, index, _Faults(f.end))
    n = len(fields)
    d = int(vectors[1][0]) if n else 0  # every row's, where the lengths are checked

    def matrix(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return flat.reshape(len(lengths), -1) if len(lengths) else np.empty((0, d))
    row_counts, row_stored, horizons = np.zeros(n, np.intp), np.zeros(n, bool), [0] * n
    row_counts[set_rows], row_stored[set_rows] = counts, stored
    for row, (horizon, _, _) in zip(set_rows.tolist(), sets):
        horizons[row] = horizon
    return Columns(
        base, matrix(*vectors[:2]), tuple(text), *_optional(avg_ll), *_optional(sentiment),
        np.array([w is not None for w in win_ll], bool), windows[0],
        np.array([w is not None for w in win_emb], bool),
        {variant: w._replace(values=matrix(w.values, w.lengths))
         for variant, w in windows[1].items()}, row_counts, tuple(horizons), row_stored,
        matrix(*samples[:2]), *_optional([score for _, pairs, _ in sets for _, score in pairs]),
        probs[0])


# Binary readline gathers a line longer than its file's buffer piece by
# piece: with the default 8 KiB, the lines of a trace, about 19 KB each,
# took twice as long to read as with this.
_LINE_BUFFER = 1 << 20


def content_lines(path, fh=None, end: float = math.inf) -> Iterator[tuple[int, str]]:
    """The non-blank lines of the text file at `path`, each with its line
    number; given `fh`, those of that open binary file from its position up
    to byte `end` (just after a \\n), numbered from 1 there. \\n, \\r\\n and a
    lone \\r each end a line, as in text I/O. A line that is not UTF-8 raises
    a ParseError that names it."""
    if fh is None:
        with open(path, "rb", buffering=_LINE_BUFFER) as fh:
            yield from content_lines(path, fh)
        return
    no, at = 0, fh.tell()
    while at < end:
        chunk = fh.readline()  # streamed: a chapter trace is tens of MB
        if not chunk:
            return
        at += len(chunk)
        for line in chunk.splitlines() if b"\r" in chunk else (chunk,):
            no += 1
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path} line {no}: not valid UTF-8") from None
            if text and not text.isspace():
                yield no, text.rstrip("\n")


def _header(path, lines: Iterator[tuple[int, str]], what: str, parse) -> tuple:
    """The JSON header, the first of `lines` (content_lines of the `what`
    file at `path`): its line number, `parse` of its object, and `lines`,
    now at the line after it. A KeyError, TypeError or ValueError of the
    JSON or of `parse` names the header's line."""
    head_no, head = next(lines, (None, None))
    if head is None:
        raise ParseError(f"{path}: empty {what} file")
    try:
        return head_no, parse(json.loads(head)), lines
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path} line {head_no}: malformed {what} header: {exc}") from exc


def _story_header(header) -> tuple[str, int, dict]:
    """The story_id, embedding_dim and meta of a trace header."""
    return (_file_name(header["story_id"]), _embedding_dim(header["embedding_dim"]),
            _json_meta(header.get("meta", {})))


def read_trace(path, *, full: bool = True) -> StoryTrace:
    """The trace in `path`. With full=False each line is parsed into the row
    form with only `index`, `e` and `text`, which (with the header and the
    JSON syntax of every line) _columns checks as it checks a full read's; a
    faulty line is judged again by the full read, so both give one error.

    The record lines are read in byte ranges, each cut just after a \\n: one,
    read here, or in a file of PARALLEL_READ_BYTES or more one per process
    _map may run. Each range reads up to its first fault, and the first
    fault in line order is raised, so the error is the same at any CPU count."""
    with open(path, "rb") as fh:
        _, (story_id, embedding_dim, meta), _ = _header(
            path, content_lines(path, fh), "trace", _story_header)
        head_end, size = fh.tell(), os.fstat(fh.fileno()).st_size
        n = _cpus() if size >= PARALLEL_READ_BYTES else 1
        cuts = [0]  # the range at 0 holds the header's line
        for k in range(1, n):
            cuts.append(fh.seek(max(cuts[-1], head_end, size * k // n) - 1) + len(fh.readline()))
    spans = list(zip(cuts, cuts[1:] + [size]))
    read = partial(_range_columns, path, embedding_dim, full)
    parts = _map(read, spans)
    done = 0  # the records of the ranges before
    for columns, faulty in parts:
        if columns.text and columns.base != done:  # a gap at the cut, before any later fault
            raise _record_error(path, embedding_dim, done)
        done += len(columns.text)
        if faulty:
            raise _record_error(path, embedding_dim, done)
    if not done:
        raise ValidationError(f"{path}: trace has no sentences")
    return _trace_of(story_id, _concat([columns for columns, _ in parts]), embedding_dim, meta)


def _range_columns(path, embedding_dim: int, full: bool, span: tuple[int, int]):
    """The columns of the records on the lines in bytes [start, end) of
    `path` up to the first fault, and whether there is one: a faulty record,
    or a line that is not UTF-8. The lines are read in blocks of _BLOCK, so
    that only one block's JSON objects are held at once. The range at 0
    starts with the header, which read_trace has read, and its first record
    must carry index 0; another range's first record carries its own index,
    which read_trace checks against the records before it."""
    start, end = span
    blocks, faulty, index = [], False, 0 if start == 0 else None
    with open(path, "rb", buffering=_LINE_BUFFER) as fh:
        fh.seek(start)
        lines = content_lines(path, fh, end)
        if start == 0:
            next(lines, None)
        while not faulty:
            raws = []
            try:
                for _, raw in itertools.islice(lines, _BLOCK):
                    raws.append(raw)
            except ParseError:  # a line that is not UTF-8, after the lines read
                faulty = True
            columns, f = _read_block(raws, embedding_dim, index, full)
            blocks.append(columns)
            faulty = faulty or f.message is not None
            if len(raws) < _BLOCK:
                break
            index = columns.base + len(raws)
    return _concat(blocks), faulty


def _entry_line(path, accept) -> tuple[int, str]:
    """The number and text of the first entry line of the file at `path`
    (the lines after its header, counted j from 0) that accept(j, line)
    takes. The readers keep no line numbers, so the file is read again, on
    an error path only; a line that is not UTF-8 raises its error as it is
    reached."""
    entries = content_lines(path)
    next(entries)
    return next((no, raw) for j, (no, raw) in enumerate(entries) if accept(j, raw))


def _record_error(path, embedding_dim: int, index: int) -> ParseError:
    """The error of record `index` of the trace at `path`, which a read
    found faulty: its line, found by _entry_line, is judged again as a
    one-line full read with the index it must carry, and fails again."""
    no, raw = _entry_line(path, lambda j, _: j == index)
    message = _read_block([raw], embedding_dim, index, True)[1].message
    if message is None:
        raise AssertionError(f"{path} line {no} was judged a fault, and then not")
    return ParseError(f"{path} line {no}: {message}")


# ---------------------------------------------------------------------------
# worker processes and the parallel trace read

# A trace file this large is parsed in one byte range per CPU, by worker
# processes; a smaller one in one range, in the calling process. Below it,
# the forks and the pickle round trip cost more than they save: on 2 CPUs
# the ranges first won on a full read at about 1.9 MB and on a projected
# one at about 3.7 MB.
PARALLEL_READ_BYTES = 4 << 20

_in_worker = False  # set in each worker process of _map, whose own maps run inline


def _cpus() -> int:
    """How many processes a _map may run at once: one per usable CPU, but
    only the calling thread inside a worker of _map (no nested forks), in a
    process that runs other threads (a fork copies only the calling one),
    or where os has no sched_getaffinity (not Linux)."""
    if _in_worker or threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _map(fn, items: list) -> list:
    """fn over items, in order. Two or more items are dealt round-robin to
    worker processes forked from this one, at most one per item and _cpus()
    in all; they run in the calling thread instead where _cpus() is 1. The
    first Exception that fn raised, in item order, is raised here.

    The workers send their results through pipes that this thread reads,
    pickled with protocol 5, which keeps arrays read-only. (A pool's reader
    thread would unpickle them in a malloc arena of its own, which keeps
    the memory after the results are gone.)"""
    workers = min(len(items), _cpus())
    if workers < 2:
        return [fn(item) for item in items]
    children = []
    try:
        for k in range(workers):
            children.append(_fork_worker(fn, items[k::workers]))
        shares = [_worker_outcomes(pid, pipe) for pid, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()  # a worker still writing gets EPIPE and exits
            os.waitpid(pid, 0)
    results = []
    for k in range(len(items)):
        raised, value = shares[k % workers][k // workers]
        if raised:
            raise value
        results.append(value)
    return results


def _outcome(fn, item) -> tuple[bool, object]:
    try:
        return False, fn(item)
    except Exception as exc:  # raised again by _map, in the calling process
        return True, exc


def _fork_worker(fn, items: list):
    """A worker process forked from this one, which pickles the outcome of
    fn for each of items to a pipe: its pid and the pipe's read end."""
    global _in_worker
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the worker, which exits here and never returns to the caller
        status = 1
        try:
            os.close(read_fd)
            _in_worker = True
            with open(write_fd, "wb") as pipe:
                pickle.dump([_outcome(fn, item) for item in items], pipe, protocol=5)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _worker_outcomes(pid: int, pipe) -> list:
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise RuntimeError(f"worker process {pid} of _map exited without its results") from exc


_TOKEN_TO_JUDGMENT = {j.value: j for j in Judgment}


def _write_lines(path, lines) -> None:
    """Write the text file at `path`: `lines`, each ended by \\n."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_annotations(annotations: AnnotationSet, path) -> None:
    lines = [_dump_line({"story_id": annotations.story_id})]
    for aid in sorted(annotations.annotators):
        tokens = " ".join(j.value for j in annotations.annotators[aid])
        lines.append(f"{aid}\t{tokens}")
    _write_lines(path, lines)


def read_annotations(path) -> AnnotationSet:
    _, story_id, lines = _header(path, content_lines(path), "annotation",
                                 lambda header: header["story_id"])
    annotators, given_on = {}, {}  # annotator -> judgments, line number
    for line_no, raw in lines:
        parts = raw.split("\t", 1)
        if len(parts) != 2:
            raise ParseError(f"{path} line {line_no}: expected 'annotator<TAB>tokens'")
        aid, token_str = parts
        if aid in given_on:
            raise ParseError(f"{path} line {line_no}: annotator {aid!r} already given "
                             f"on line {given_on[aid]}")
        judgments = []
        for tok in token_str.split():
            if tok not in _TOKEN_TO_JUDGMENT:
                raise ParseError(f"{path} line {line_no}: unknown judgment token {tok!r}")
            judgments.append(_TOKEN_TO_JUDGMENT[tok])
        if not judgments:
            raise ParseError(f"{path} line {line_no}: annotator {aid!r} has no judgments")
        first = next(iter(annotators), aid)
        if len(judgments) != len(annotators.get(first, judgments)):
            raise ParseError(f"{path} line {line_no}: annotator {aid!r} has {len(judgments)} "
                             f"judgments, but {first!r} on line {given_on[first]} has "
                             f"{len(annotators[first])}")
        annotators[aid], given_on[aid] = tuple(judgments), line_no
    if not annotators:
        raise ParseError(f"{path}: annotation file has no annotators")
    return AnnotationSet(story_id=story_id, annotators=annotators)


def write_gold(labels: GoldLabels, path) -> None:
    lines = [_dump_line({"kind": labels.kind})]
    if labels.kind == "salience":
        lines.append(" ".join(str(i) for i in sorted(labels.salient_indices)))
    else:
        for i, pos in enumerate(labels.tp_positions):
            if labels.tp_windows is not None:
                lo, hi = labels.tp_windows[i]
                lines.append(f"{pos} {lo} {hi}")
            else:
                lines.append(str(pos))
    _write_lines(path, lines)


def read_gold(path) -> GoldLabels:
    head_no, kind, lines = _header(path, content_lines(path), "gold",
                                   lambda header: header["kind"])
    if kind not in ("salience", "turning_points"):
        raise ParseError(f"{path} line {head_no}: unknown gold label kind {kind!r}")
    if kind == "salience":
        indices = set()
        for line_no, raw in lines:
            try:
                entry = [int(tok) for tok in raw.split()]
            except ValueError as exc:
                raise ParseError(f"{path} line {line_no}: bad salience index: {exc}") from exc
            if min(entry) < 0:
                raise ParseError(f"{path} line {line_no}: salient indices must be >= 0")
            indices.update(entry)
        return GoldLabels(kind="salience", salient_indices=frozenset(indices))
    positions, windows = [], []
    for line_no, raw in lines:
        parts = raw.split()
        try:
            if len(parts) not in (1, 3):
                raise ValueError(f"expected 'pos' or 'pos lo hi', got {raw!r}")
            pos, *window = map(int, parts)
        except ValueError as exc:
            raise ParseError(f"{path} line {line_no}: bad turning-point entry: {exc}") from exc
        problem = _turning_point_problem(pos, tuple(window) or None)
        if problem:
            raise ParseError(f"{path} line {line_no}: {problem}")
        positions.append(pos)
        if window:
            windows.append(tuple(window))
    try:
        return GoldLabels(kind="turning_points", tp_positions=tuple(positions),
                          tp_windows=tuple(windows) if windows else None)
    except ValidationError as exc:  # every entry passed its line's checks, so a count is off
        raise ParseError(f"{path}: {exc}") from None
