"""In-memory span recorder that patches timing wrappers onto dcpbench functions.

A wrapper is installed where the caller looks the function up: a module
attribute for module-level functions, the class attribute for methods, and
the importing module's own binding for names brought in with
`from ... import`. `Hooks.restore()` puts every original object back.

Spans carry name, start, end, parent span and thread. A call made from a
worker thread with no open span of its own takes the installing thread's
innermost open span as its parent, so band-thread engine calls hang under
the replay that started them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


PATCH_MARK = "__perfbench_patch__"


class Hooks:
    """Replaces attributes and remembers the originals for restore().

    Every replacement carries the PATCH_MARK attribute, so a leftover one
    can be found after restore().
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Set owner.attr to make(original)."""
        original = getattr(owner, attr)
        replacement = make(original)
        setattr(replacement, PATCH_MARK, True)
        setattr(owner, attr, replacement)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans, counters and sampled values from patched functions."""

    def __init__(self):
        self.hooks = Hooks()
        self.spans: list[Span] = []
        self._counters: Counter = Counter()
        self._tallies: list[tuple[str, list]] = []
        self.values: defaultdict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = self._stack()

    def add(self, counter: str, n: int = 1) -> None:
        # Engines run on band threads, so counter updates take the lock.
        with self._lock:
            self._counters[counter] += n

    @property
    def counters(self) -> Counter:
        merged = Counter(self._counters)
        for name, hits in self._tallies:
            merged[name] += len(hits)
        return merged

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        """Time every call of owner.attr as a span called `name`.

        probe(args) is called before the wrapped function and returns a
        callable that receives the result, for counters measured at the
        same boundary.
        """

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                done = probe(args) if probe is not None else None
                result = self.span(name, original, *args, **kwargs)
                if done is not None:
                    done(result)
                return result
            return traced

        self.hooks.patch(owner, attr, make)

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of owner.attr without a span (for per-run hot calls)."""
        # list.append is atomic and far cheaper than a lock on a hot path.
        hits: list = []
        self._tallies.append((counter, hits))
        tally = hits.append

        def make(original):
            @functools.wraps(original)
            def counted(*args, **kwargs):
                tally(None)
                return original(*args, **kwargs)
            return counted

        self.hooks.patch(owner, attr, make)

    def record(self, owner, attr: str, series: str) -> None:
        """Keep every return value of owner.attr in values[series]."""

        def make(original):
            @functools.wraps(original)
            def recorded(*args, **kwargs):
                result = original(*args, **kwargs)
                self.values[series].append(float(result))
                return result
            return recorded

        self.hooks.patch(owner, attr, make)


# ---------------------------------------------------------------------------
# Derived quantities

def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Parent/child lookups over one batch of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: defaultdict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_time(self, span: Span) -> float:
        """Duration minus the part of the interval its child spans cover."""
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children.get(span.id, ()))
        return span.duration - covered

    def total_self(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def has_ancestor(self, span: Span, prefixes: tuple[str, ...]) -> bool:
        pid = span.parent
        while pid is not None:
            parent = self.by_id.get(pid)
            if parent is None:
                return False
            if parent.name.startswith(prefixes):
                return True
            pid = parent.parent
        return False

    def outermost(self, name: str, prefixes: tuple[str, ...]) -> list[Span]:
        """Spans called `name` with no ancestor whose name has a prefix."""
        return [s for s in self.named(name) if not self.has_ancestor(s, prefixes)]

    def parallelism(self, names: tuple[str, ...]) -> float:
        """Summed busy time of outermost `names` spans over their union."""
        spans = [s for s in self.spans
                 if s.name in names and not self.has_ancestor(s, names)]
        wall = union_length((s.start, s.end) for s in spans)
        return sum(s.duration for s in spans) / wall if wall > 0 else 0.0
