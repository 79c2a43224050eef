"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of storymetrics from outside the
program. Each call becomes a span (name, start, end, parent); counters
record work done at the same boundaries. Parents are kept per thread, and
work submitted to the CLI's thread pool is parented to the span that
submitted it, so a command's self time excludes its workers' time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float


class Recorder:
    """Thread-safe span and counter store. Spans stay in memory until the
    caller reads them; every span also counts `<name>.calls`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, parent, name, start, end))
                self.counts[name + ".calls"] += 1

    def call_under(self, parent: Optional[int], fn: Callable, *args, **kwargs):
        """Run fn in this thread as if called from inside span `parent`."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self.counts = defaultdict(float)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name sum of span durations minus the part of each span's
    interval that its child spans cover (children may overlap when they
    run on several threads)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = covered_length([(max(c.start, s.start), min(c.end, s.end))
                                  for c in children.get(s.id, ())])
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Patcher:
    """Replaces a function under every name the program looks it up by,
    and restores the originals on exit."""

    def __init__(self, package: str = "storymetrics"):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def function(self, module, attr: str, make_wrapper: Callable) -> None:
        """Wrap module.attr, and every alias of it in the package's
        modules (for example a `from .model import read_trace`)."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, alias, wrapper)

    def method(self, cls, attr: str, make_wrapper: Callable) -> None:
        self._replace(cls, attr, make_wrapper(cls.__dict__[attr]))

    def attribute(self, owner, attr: str, new) -> None:
        self._replace(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def spanned(rec: Recorder, name, after: Optional[Callable] = None) -> Callable:
    """Wrapper factory: a span named `name` (or name(*args, **kwargs)) per
    call; `after(result, *args, **kwargs)` records counters."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            result = rec.call(label, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper
    return make


def counted(rec: Recorder, name: str) -> Callable:
    """Wrapper factory that only counts calls (for hot inner functions)."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.count(name)
            return fn(*args, **kwargs)
        return wrapper
    return make


def propagating_executor(rec: Recorder) -> type:
    """A ThreadPoolExecutor whose tasks run under the submitter's span."""
    class PropagatingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(rec.call_under, rec.current(), fn, *args, **kwargs)
    return PropagatingExecutor
