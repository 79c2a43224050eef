"""Shared data model and the line-delimited file formats for traces,
annotations, and gold labels.

A trace file is a JSON header line followed by one JSON record per
sentence. All types are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import pickle
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Iterator, Mapping, Optional

import numpy as np


class ValidationError(ValueError):
    """A constructed object violates one of its invariants."""


class ParseError(ValidationError):
    """A serialized file contains an unreadable record."""


class DegenerateStatisticsError(ValueError):
    """A statistic is undefined for this input (zero variance, no pairs)."""


PROB_SUM_TOL = 1e-9
PROB_RENORM_TOL = 1e-6

KNOWN_VARIANTS = ("base", "deleted", "swapped", "no_knowledge")


class Judgment(Enum):
    BIG_DECREASE = "BD"
    DECREASE = "D"
    SAME = "S"
    INCREASE = "I"
    BIG_INCREASE = "BI"


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-d vector")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


def _json_int(value, what: str) -> int:
    """A JSON integer: a float, bool or string is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _json_number(value, what: str) -> Optional[float]:
    """An optional JSON number (None when absent or null); a bool is no number."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return value


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


# slots: a chapter trace holds tens of thousands of records, sets and samples
@dataclass(frozen=True, slots=True)
class ContinuationSample:
    embedding: np.ndarray
    raw_score: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "embedding", _as_vector(self.embedding, "sample embedding"))
        score = _json_number(self.raw_score, "sample score")
        if score is not None and not math.isfinite(score):
            raise ValidationError("sample raw_score must be finite")


@dataclass(frozen=True, slots=True)
class ContinuationSet:
    """Imagined continuations n sentences ahead, optionally with an
    explicit probability vector over the samples."""

    horizon: int
    samples: tuple[ContinuationSample, ...]
    probabilities: Optional[np.ndarray] = None

    def __post_init__(self):
        if _json_int(self.horizon, "continuation n") < 1:
            raise ValidationError("continuation horizon must be >= 1")
        samples = tuple(self.samples)
        if not samples:
            raise ValidationError("continuation samples must be non-empty")
        dims = {s.embedding.shape[0] for s in samples}
        if len(dims) > 1:
            raise ValidationError("continuation sample embeddings differ in dimension")
        object.__setattr__(self, "samples", samples)
        if self.probabilities is not None:
            probs = _as_vector(self.probabilities, "continuation probabilities")
            if probs.shape[0] != len(samples):
                raise ValidationError("probability vector length differs from sample count")
            if np.any(probs < 0):
                raise ValidationError("continuation probabilities must be non-negative")
            if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
                raise ValidationError("continuation probabilities must sum to 1")
            object.__setattr__(self, "probabilities", probs)

    @property
    def embedding_dim(self) -> int:
        return self.samples[0].embedding.shape[0]

    def sample_embeddings(self) -> np.ndarray:
        return np.stack([s.embedding for s in self.samples])


@dataclass(frozen=True, slots=True)
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
        if _json_int(self.index, "index") < 0:
            raise ValidationError("sentence index must be >= 0")
        if self.text is not None and not isinstance(self.text, str):
            raise ValidationError(f"sentence text must be a string, got {self.text!r}")
        object.__setattr__(self, "embedding", _as_vector(self.embedding, "embedding"))
        avg_ll = _json_number(self.avg_log_likelihood, "avg_ll")
        if avg_ll is not None and not math.isfinite(avg_ll):
            raise ValidationError("avg_log_likelihood must be finite")
        sentiment = _json_number(self.sentiment, "sentiment")
        if sentiment is not None and not -1.0 <= sentiment <= 1.0:
            raise ValidationError("sentiment must lie in [-1, 1]")
        for name in ("window_token_loglikes", "window_embedding"):
            windows = getattr(self, name)
            if windows is not None:
                if not all(type(variant) is str for variant in windows):
                    raise ValidationError(f"{name} variants must be strings, got {list(windows)}")
                object.__setattr__(self, name, {
                    variant: _as_vector(vec, f"{name}[{variant!r}]")
                    for variant, vec in windows.items()})


def _length_mismatch(rec: SentenceRecord, embedding_dim: int) -> Optional[str]:
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


@dataclass(frozen=True)
class StoryTrace:
    story_id: str
    sentences: tuple[SentenceRecord, ...]
    embedding_dim: int
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _file_name(self.story_id)
        sentences = tuple(self.sentences)
        if not sentences:
            raise ValidationError("a trace needs at least one sentence")
        if _json_int(self.embedding_dim, "embedding_dim") < 1:
            raise ValidationError("embedding_dim must be positive")
        for pos, rec in enumerate(sentences):
            if rec.index != pos:
                raise ValidationError(
                    f"sentence indices must be contiguous from 0; got {rec.index} at position {pos}")
            mismatch = _length_mismatch(rec, self.embedding_dim)
            if mismatch:
                raise ValidationError(f"sentence {pos}: {mismatch}")
        object.__setattr__(self, "sentences", sentences)
        object.__setattr__(self, "meta", dict(_json_meta(self.meta)))

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class MetricSeries:
    """A named per-sentence curve."""

    name: str
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"series {self.name!r} must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"series {self.name!r} contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])


def per_sentence_series(what: str, name: str, trace: StoryTrace, values,
                        available) -> MetricSeries:
    """The curve `name` over `trace` from its per-sentence values and the
    mask of the sentences that have its inputs. A sentence without them
    scores 0; a curve that no sentence can compute is an error."""
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
            if any(i < 0 for i in self.salient_indices):
                raise ValidationError("salient indices must be >= 0")
        else:
            if len(self.tp_positions) != 5:
                raise ValidationError("turning-point labels need exactly 5 positions, "
                                      f"got {len(self.tp_positions)}")
            if self.tp_windows is not None:
                windows = tuple((int(lo), int(hi)) for lo, hi in self.tp_windows)
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


def _record_parts(rec: SentenceRecord) -> list:
    """rec as one line of JSON: a list of text pieces with the record's
    vectors in their places, in written order."""
    def optional(key: str, value) -> str:
        return "" if value is None else f',"{key}":{_dump_line(value)}'
    parts = ['{"index":', _dump_line(rec.index), optional("text", rec.text),
             ',"e":', rec.embedding, optional("avg_ll", rec.avg_log_likelihood)]
    for name, windows in (("win_ll", rec.window_token_loglikes), ("win_emb", rec.window_embedding)):
        if windows is not None:
            parts.append(f',"{name}":{{')
            for k, (variant, vec) in enumerate(sorted(windows.items())):
                parts += [("," if k else "") + _dump_line(variant) + ":", vec]
            parts.append("}")
    parts.append(optional("sentiment", rec.sentiment))
    cont = rec.continuations
    if cont is not None:
        parts += [',"cont":{"n":', _dump_line(cont.horizon), ',"samples":[']
        for k, sample in enumerate(cont.samples):
            parts += [',{"e":' if k else '{"e":', sample.embedding,
                      optional("score", sample.raw_score) + "}"]
        probs = [] if cont.probabilities is None else [',"probs":', cont.probabilities]
        parts += ["]", *probs, "}"]
    parts.append("}")
    return parts


# Records are written in blocks of this many, and each distinct float of a
# block is formatted once. Nearby records share floats (the provider's
# continuation samples are other sentences' embeddings), but a block's
# floats and their text are held until its lines are written. Building and
# writing the three 100- to 400-sentence stories of perfbench's `build`
# took 381, 341, 333, 339, 342 and 348 ms of CPU at 1, 8, 16, 32, 64 and
# 128 records a block (medians of 24 interleaved rounds), and write_trace's
# traced peak on the 400-sentence story was 0.06, 0.36, 0.68, 1.32, 2.59
# and 5.03 MiB (2-core VM, Python 3.11, numpy 2.4).
_WRITE_BLOCK = 32


def write_trace(trace: StoryTrace, path) -> None:
    """trace as a file: its header line, then each record's line as it is
    made. A record's floats are written by float.__repr__, as json.dumps
    writes them; each distinct bit pattern of a block of records is
    formatted once."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump_line({"story_id": trace.story_id, "embedding_dim": trace.embedding_dim,
                             "meta": {k: trace.meta[k] for k in sorted(trace.meta)}}) + "\n")
        for b in range(0, len(trace.sentences), _WRITE_BLOCK):
            block = [_record_parts(rec) for rec in trace.sentences[b:b + _WRITE_BLOCK]]
            vectors = [part for parts in block for part in parts if type(part) is not str]
            floats = iter(each_distinct(float.__repr__, np.concatenate(vectors), object).tolist())
            for parts in block:
                fh.write("".join(part if type(part) is str else
                                 f"[{','.join(itertools.islice(floats, part.size))}]"
                                 for part in parts) + "\n")


_NUMBER_TYPES = {float, int}


def _json_numbers(value, what: str):
    """A JSON array is refused if it holds a string or bool, which numpy
    would convert; anything else is left for the vector checks."""
    if type(value) is list and not set(map(type, value)) <= _NUMBER_TYPES:
        bad = next(v for v in value if type(v) not in _NUMBER_TYPES)
        raise ValidationError(f"{what} must hold only numbers, got {bad!r}")
    return value


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


# Binary readline gathers a line longer than its file's buffer piece by
# piece: with the default 8 KiB, the lines of a trace, about 19 KB each,
# took twice as long to read as with this.
_LINE_BUFFER = 1 << 20


def content_lines(path, fh=None, end: float = math.inf) -> Iterator[tuple[int, str]]:
    """The non-blank lines of the text file at `path`, each with its line
    number; given `fh`, those of that open binary file from its position up
    to byte `end` (just after a \\n), numbered from 1 there. \\n, \\r\\n and a
    lone \\r each end a line, as in text I/O. A line that is not UTF-8 raises
    a ParseError that names it, with its number as `line_no`."""
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
                fault = ParseError(f"{path} line {no}: not valid UTF-8")
                fault.line_no = no
                raise fault from None
            if text and not text.isspace():
                yield no, text.rstrip("\n")


# Decodes a JSON float to the bytes of its literal and a JSON string to a
# str, so a projected read converts only the floats it keeps, and can still
# tell a number from a string.
_PROJECTING_DECODER = json.JSONDecoder(parse_float=str.encode)


def _projected_record(raw: str, embedding_dim: int,
                      index: Optional[int]) -> Optional[SentenceRecord]:
    """The index, e and text of a record line, or None unless the line is a
    JSON object whose `index` is the integer `index` (any, if None), whose
    `e` holds `embedding_dim` finite JSON floats and whose `text` is a
    string or absent."""
    try:
        obj = _PROJECTING_DECODER.decode(raw)
    except json.JSONDecodeError:
        return None
    if type(obj) is not dict:
        return None
    e = obj.get("e")
    if (type(obj.get("index")) is not int or index not in (None, obj["index"])
            or type(e) is not list or len(e) != embedding_dim or set(map(type, e)) != {bytes}):
        return None
    try:  # refuses a non-string text, and a float literal out of range (read as inf)
        return SentenceRecord(index=obj["index"], embedding=np.array(e, float),
                              text=obj.get("text"))
    except ValidationError:
        return None


def _full_record(path, line_no: int, raw: str, embedding_dim: int,
                 index: Optional[int]) -> SentenceRecord:
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


def _trace_header(path, head_no: int, head: str) -> tuple[str, int, dict]:
    """The story_id, embedding_dim and meta of a trace header line."""
    try:
        header = json.loads(head)
        story_id = _file_name(header["story_id"])
        embedding_dim = _json_int(header["embedding_dim"], "embedding_dim")
        meta = _json_meta(header.get("meta", {}))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path} line {head_no}: malformed trace header: {exc}") from exc
    return story_id, embedding_dim, meta


def _record(path, line_no: int, raw: str, embedding_dim: int, index: Optional[int],
            full: bool) -> SentenceRecord:
    """The record on a line, which must carry `index` (any, if None): every
    field, or with full=False its index, e and text."""
    rec = None if full else _projected_record(raw, embedding_dim, index)
    if rec is None:
        rec = _full_record(path, line_no, raw, embedding_dim, index)
        if not full:
            rec = SentenceRecord(index=rec.index, embedding=rec.embedding, text=rec.text)
    return rec


def read_trace(path, *, full: bool = True) -> StoryTrace:
    """The trace in `path`. With full=False its records carry only `index`,
    `e` and `text`, and only those fields (with the header and the JSON
    syntax of every line) are checked; a line the projection does not
    accept is judged by the full read, so both give the same errors.

    The record lines are read in byte ranges, each cut just after a \\n: one,
    read here, or in a file of PARALLEL_READ_BYTES or more one per process
    _map may run. Each range reads up to its first fault, and the first
    fault in line order is raised, so the error is the same at any CPU count."""
    with open(path, "rb") as fh:
        head_no, head = next(content_lines(path, fh), (None, None))
        if head is None:
            raise ParseError(f"{path}: empty trace file")
        story_id, embedding_dim, meta = _trace_header(path, head_no, head)
        head_end, size = fh.tell(), os.fstat(fh.fileno()).st_size
        n = _cpus() if size >= PARALLEL_READ_BYTES else 1
        cuts = [0]  # the range at 0 holds the header's line
        for k in range(1, n):
            cuts.append(fh.seek(max(cuts[-1], head_end, size * k // n) - 1) + len(fh.readline()))
    spans = list(zip(cuts, cuts[1:] + [size]))
    if n == 1:
        parts = [_range_records(path, embedding_dim, full, spans[0])]
    else:
        parts = [_VectorUnpickler(*part).load()
                 for part in _map(partial(_packed_range, path, embedding_dim, full), spans)]
    records: list[SentenceRecord] = []
    for (start, _), (part, fault) in zip(spans, parts):
        if part and part[0].index != len(records):  # a gap at the cut, before any later fault
            raise _line_fault(path, embedding_dim, full, start, None, len(records))
        records += part
        if fault is not None:
            raise _line_fault(path, embedding_dim, full, start, fault, len(records))
    if not records:
        raise ValidationError(f"{path}: trace has no sentences")
    return StoryTrace(story_id=story_id, sentences=tuple(records),
                      embedding_dim=embedding_dim, meta=meta)


def _range_records(path, embedding_dim: int, full: bool, span: tuple[int, int]):
    """The records on the lines in bytes [start, end) of `path` up to the
    first fault, and that fault's line, or None: its number counted from
    `start`, and its text (None where it is not UTF-8). The range at 0
    starts with the header, which read_trace has read, and its first record
    must carry index 0; another range's first record carries its own index,
    which read_trace checks against the records before it."""
    start, end = span
    records: list[SentenceRecord] = []
    index = 0 if start == 0 else None
    with open(path, "rb", buffering=_LINE_BUFFER) as fh:
        fh.seek(start)
        lines = content_lines(path, fh, end)
        if start == 0:
            next(lines, None)
        try:
            for no, raw in lines:
                try:
                    records.append(_record(path, no, raw, embedding_dim, index, full))
                except ParseError:
                    return records, (no, raw)
                index = records[-1].index + 1
        except ParseError as fault:  # a line that is not UTF-8
            return records, (fault.line_no, None)
    return records, None


def _line_fault(path, embedding_dim: int, full: bool, start: int,
                line: Optional[tuple[int, Optional[str]]], index: int) -> ParseError:
    """The error of a line of the range at byte `start`: `line` as
    _range_records gives a fault, or, if None, the range's first line. Only
    here are the line ends before `start` counted, for its number in the
    file; a record line is judged again with that number and the index it
    must carry, and fails again."""
    with open(path, "rb") as fh:
        head = fh.read(start)
        no, raw = line or next(content_lines(path, fh))
    no += head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    if raw is None:
        return ParseError(f"{path} line {no}: not valid UTF-8")
    try:
        _record(path, no, raw, embedding_dim, index, full)
    except ParseError as exc:
        return exc
    raise AssertionError(f"{path} line {no} was judged a fault, and then not")


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


def _packed_range(path, embedding_dim: int, full: bool, span: tuple[int, int]):
    """_range_records of a range, for the pipe from a worker: pickled by
    _VectorPickler, with the flat array of its vectors and their sizes."""
    out = io.BytesIO()
    pickler = _VectorPickler(out)
    pickler.dump(_range_records(path, embedding_dim, full, span))
    vectors = pickler.vectors or [np.empty(0)]
    return out.getvalue(), np.concatenate(vectors), [v.size for v in vectors]


class _VectorPickler(pickle.Pickler):
    """Pickles records with their vectors held out, in `vectors`, so that
    they travel as one flat array: one pickled array instead of thousands."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.vectors: list[np.ndarray] = []

    def persistent_id(self, obj):
        if type(obj) is not np.ndarray:
            return None
        self.vectors.append(obj)
        return len(self.vectors) - 1


class _VectorUnpickler(pickle.Unpickler):
    """Loads what _VectorPickler packed, each vector a read-only view of
    the flat array, as read-only as the serial read's vectors."""

    def __init__(self, data: bytes, flat: np.ndarray, sizes: list[int]):
        super().__init__(io.BytesIO(data))
        flat.setflags(write=False)  # before any view of it is taken
        self.vectors = [flat[end - size:end]
                        for end, size in zip(itertools.accumulate(sizes), sizes)]

    def persistent_load(self, pid):
        return self.vectors[pid]


_TOKEN_TO_JUDGMENT = {j.value: j for j in Judgment}


def write_annotations(annotations: AnnotationSet, path) -> None:
    lines = [_dump_line({"story_id": annotations.story_id})]
    for aid in sorted(annotations.annotators):
        tokens = " ".join(j.value for j in annotations.annotators[aid])
        lines.append(f"{aid}\t{tokens}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_annotations(path) -> AnnotationSet:
    lines = content_lines(path)
    head_no, head = next(lines, (None, None))
    if head is None:
        raise ParseError(f"{path}: empty annotation file")
    try:
        story_id = json.loads(head)["story_id"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"{path} line {head_no}: malformed annotation header: {exc}") from exc
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_gold(path) -> GoldLabels:
    lines = content_lines(path)
    head_no, head = next(lines, (None, None))
    if head is None:
        raise ParseError(f"{path}: empty gold file")
    try:
        kind = json.loads(head)["kind"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"{path} line {head_no}: malformed gold header: {exc}") from exc
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
