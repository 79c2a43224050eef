"""Dense passage retrieval over a knowledgebase plus a bounded episodic
memory cache, with softmax marginalization weights.

Search is an exact dot-product scan; the ordering and tie contracts are
fixed so an approximate index could be swapped in without changing the
exact-mode tests. Each store keeps its keys as one (n, d) matrix and scores
a query with one np.vecdot, which runs the per-pair np.dot kernel on each
row, so every score equals score(query, key) bit for bit. A matrix product
(keys @ query) is not used: its blocked kernel sums in another order and
differs from the per-pair dot in the last ulp.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import ParseError, ValidationError, _json_int, _json_numbers, content_lines
from .suspense import softmax


def _is_distribution(dist: np.ndarray) -> bool:
    """Finite, non-negative and summing to 1 (NaN fails every comparison,
    so it is tested for first)."""
    return bool(np.isfinite(dist).all() and np.all(dist >= 0)
                and abs(float(dist.sum()) - 1.0) <= 1e-9)


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as it holds arrays
class Passage:
    id: str
    key: np.ndarray
    payload: str
    source: str  # "kb" | "memory"
    position: Optional[int] = None
    token_dist: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.source not in ("kb", "memory"):
            raise ValidationError(f"unknown passage source {self.source!r}")
        key = np.asarray(self.key, float, order="C")  # contiguous, as a key matrix row is
        if key.ndim != 1 or key.size == 0 or not np.isfinite(key).all():
            raise ValidationError(f"passage {self.id!r}: key must be a finite 1-d vector")
        key.setflags(write=False)
        object.__setattr__(self, "key", key)
        if self.token_dist is not None:
            dist = np.asarray(self.token_dist, float)
            if not _is_distribution(dist):
                raise ValidationError(f"passage {self.id!r}: token_dist is not a distribution")
            dist.setflags(write=False)
            object.__setattr__(self, "token_dist", dist)


class PassageStore:
    """Fixed-dimension collection of passages with exact top-k lookup."""

    def __init__(self, dim: int, passages: Sequence[Passage] = ()):
        if dim < 1:
            raise ValidationError("store dimension must be >= 1")
        self.dim = dim
        self._passages: list[Passage] = []
        self._keys: Optional[np.ndarray] = None  # rebuilt by the first scan after an add
        for p in passages:
            self.add(p)

    def add(self, passage: Passage) -> None:
        if passage.key.shape[0] != self.dim:
            raise ValidationError(
                f"passage {passage.id!r}: key dimension {passage.key.shape[0]} "
                f"does not match store dimension {self.dim}")
        self._passages.append(passage)
        self._keys = None

    def __len__(self) -> int:
        return len(self._passages)

    def __iter__(self):
        return iter(self._passages)

    def top_k(self, query, k: int) -> list[tuple[Passage, float]]:
        if self._keys is None:
            self._keys = np.array([p.key for p in self._passages]).reshape(-1, self.dim)
        return _top_k(self._passages, self._keys, query, k)


class MemoryCache:
    """Bounded passage cache with LRU or FIFO eviction. Cleared between
    works via reset().

    Each entry owns one slot: a row of the key matrix and the same index
    into the passage list. Slots 0..len-1 are always the ones in use,
    because an eviction or a same-id replace reuses its slot."""

    def __init__(self, capacity: int, policy: str = "LRU", dim: Optional[int] = None):
        if capacity < 1:
            raise ValidationError("cache capacity must be >= 1")
        policy = policy.upper()
        if policy not in ("LRU", "FIFO"):
            raise ValidationError(f"unknown cache policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self.dim = dim
        self._slots: OrderedDict[str, int] = OrderedDict()  # id -> slot, eviction order
        self._passages: list[Passage] = []
        self._keys = np.empty((0, dim or 0))

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._slots

    def ids(self) -> list[str]:
        return list(self._slots)

    def passages(self) -> list[Passage]:
        return [self._passages[slot] for slot in self._slots.values()]

    def add(self, passage: Passage) -> None:
        if self.dim is None:
            self.dim = passage.key.shape[0]
            self._keys = np.empty((0, self.dim))
        elif passage.key.shape[0] != self.dim:
            raise ValidationError(
                f"passage {passage.id!r}: key dimension {passage.key.shape[0]} "
                f"does not match cache dimension {self.dim}")
        slot = self._slots.get(passage.id)
        if slot is not None:
            if self.policy == "LRU":
                self._slots.move_to_end(passage.id)
        elif len(self._slots) == self.capacity:
            _, slot = self._slots.popitem(last=False)
        else:
            slot = len(self._passages)
            self._passages.append(passage)
            if slot == len(self._keys):  # grow the key matrix geometrically
                grown = np.empty((min(self.capacity, 2 * slot + 1), self.dim))
                grown[:slot] = self._keys
                self._keys = grown
        self._slots[passage.id] = slot
        self._passages[slot] = passage
        self._keys[slot] = passage.key

    def touch(self, passage_id: str) -> None:
        if passage_id not in self._slots:
            raise ValidationError(f"no cached passage with id {passage_id!r}")
        if self.policy == "LRU":
            self._slots.move_to_end(passage_id)

    def reset(self) -> None:
        self._slots.clear()
        self._passages.clear()

    def top_k(self, query, k: int) -> list[tuple[Passage, float]]:
        return _top_k(self._passages, self._keys[:len(self._passages)], query, k)


def score(query, key) -> float:
    """Retrieval score: dot product of query and passage key."""
    q = np.asarray(query, float)
    k = np.asarray(key, float)
    if q.shape != k.shape:
        raise ValidationError("query/key dimension mismatch")
    return float(np.dot(q, k))


def _top_k(passages: Sequence[Passage], keys: np.ndarray, query,
           k: int) -> list[tuple[Passage, float]]:
    """Exact scan of passages (key matrix `keys`, one row each): the k
    highest-scoring passages, ties in id order."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    q = np.asarray(query, float)
    if q.ndim != 1 or not np.isfinite(q).all():
        raise ValidationError("query must be a finite 1-d vector")
    if not passages:
        return []
    if q.shape[0] != keys.shape[1]:
        raise ValidationError("query/key dimension mismatch")
    # np.dot of one-element vectors is a plain product, which keeps the sign of a zero
    scores = keys[:, 0] * q[0] if q.shape[0] == 1 else np.vecdot(keys, q)
    if not np.isfinite(scores).all():
        raise ValidationError("retrieval scores overflow")
    n = len(passages)
    if k < n:  # keep every score tied with the k-th largest
        kth = np.partition(scores, n - k)[n - k]
        candidates = np.flatnonzero(scores >= kth)
    else:
        candidates = np.arange(n)
    hits = [(passages[i], s) for i, s in zip(candidates.tolist(), scores[candidates].tolist())]
    hits.sort(key=lambda ps: (-ps[1], ps[0].id))
    return hits[:k]


_SOURCE_RANK = {"kb": 0, "memory": 1}


def topk_merge(kb_hits: Sequence[tuple[Passage, float]],
               mem_hits: Sequence[tuple[Passage, float]],
               z: int) -> list[tuple[Passage, float]]:
    """Top z scored passages across both sources; ties go kb before
    memory, then id order."""
    if z < 1:
        raise ValidationError("z must be >= 1")
    merged = list(kb_hits) + list(mem_hits)
    if not merged:
        raise ValidationError("nothing to merge: both hit lists are empty")
    merged.sort(key=lambda ps: (-ps[1], _SOURCE_RANK[ps[0].source], ps[0].id))
    return merged[:z]


def marginal_weights(scores) -> np.ndarray:
    """Softmax-normalized retrieval scores."""
    scores = np.asarray(scores, float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValidationError("scores must be a non-empty 1-d sequence")
    return softmax(scores)


def marginalize_token_dists(weights, dists) -> np.ndarray:
    """Convex combination of per-passage token distributions."""
    weights = np.asarray(weights, float)
    mat = np.stack([np.asarray(d, float) for d in dists])
    if weights.shape[0] != mat.shape[0]:
        raise ValidationError("one weight per distribution required")
    for i, row in enumerate(mat):
        if not _is_distribution(row):
            raise ValidationError(f"distribution {i} is not a valid probability vector")
    out = weights @ mat
    return out / out.sum()


def retrieve(query, kb: PassageStore, cache: Optional[MemoryCache],
             k_kb: int, k_mem: int, z: int) -> tuple[list[tuple[Passage, float]], np.ndarray]:
    """Exact top-k lookup in the KB and memory, merged to the top z with
    softmax marginalization weights."""
    kb_hits = kb.top_k(query, k_kb) if len(kb) else []
    mem_hits = cache.top_k(query, k_mem) if cache is not None and len(cache) else []
    if not kb_hits and not mem_hits:
        raise ValidationError("both the KB and memory are empty")
    merged = topk_merge(kb_hits, mem_hits, z)
    weights = marginal_weights([s for _, s in merged])
    return merged, weights


# ---------------------------------------------------------------------------
# passage store files: header with dimension, one passage per line


def write_passages(store: PassageStore, path) -> None:
    lines = [json.dumps({"dim": store.dim}, separators=(",", ":"))]
    for p in store:
        obj: dict = {"id": p.id, "source": p.source,
                     "key": [float(v) for v in p.key], "payload": p.payload}
        if p.position is not None:
            obj["position"] = p.position
        if p.token_dist is not None:
            obj["token_dist"] = [float(v) for v in p.token_dist]
        lines.append(json.dumps(obj, separators=(",", ":"), allow_nan=False))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_passages(path) -> PassageStore:
    """The passage file at `path`. `dim` and a `position` must be JSON
    integers, `id`, `source` and `payload` strings, and `key` and
    `token_dist` arrays of JSON numbers: nothing is converted."""
    lines = content_lines(path)
    head_no, head = next(lines, (None, None))
    if head is None:
        raise ParseError(f"{path}: empty passage file")
    try:
        store = PassageStore(dim=_json_int(json.loads(head)["dim"], "dim"))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path} line {head_no}: malformed passage header: {exc}") from exc
    for line_no, raw in lines:
        try:
            obj = json.loads(raw)
            for name in ("id", "source", "payload"):
                if type(obj[name]) is not str:
                    raise ValidationError(f"{name} must be a string, got {obj[name]!r}")
            store.add(Passage(
                id=obj["id"], key=np.asarray(_json_numbers(obj["key"], "key"), float),
                payload=obj["payload"], source=obj["source"],
                position=_json_int(obj["position"], "position") if "position" in obj else None,
                token_dist=(np.asarray(_json_numbers(obj["token_dist"], "token_dist"), float)
                            if "token_dist" in obj else None),
            ))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path} line {line_no}: malformed passage: {exc}") from exc
    return store
