"""Span and counter recording for the traced run, and self-time arithmetic.

The traced run measures kspecfun from outside: it rebinds the names one
module imported from another (for example `kspecfun.quadrature.eval_gmk_bessel`)
to wrappers that record a span around each call, then restores them.  Spans
stay in memory while a unit of work runs and are written out after it.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter_ns


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent, point, attrs).

    `parent` is the index of the enclosing span, -1 at the root.  Spans
    opened with `new_point=True` start a new verify point; every span inside
    one shares its `point` id.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._point = -1
        self._points = 0
        self._undo: list = []

    def call(self, name, fn, args=(), kwargs=None, attrs=None, new_point=False):
        """Run fn(*args, **kwargs) inside a span; attrs(args, result) annotates it."""
        spans = self.spans
        sid = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        outer = self._point
        if new_point:
            self._point = self._points
            self._points += 1
        self._stack.append(sid)
        out = None
        start = perf_counter_ns()
        try:
            out = fn(*args, **(kwargs or {}))
            return out
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            info = attrs(args, out) if attrs is not None and out is not None else None
            spans[sid] = (name, start, end, parent, self._point, info)
            self._point = outer

    def wrap(self, module, attr: str, name: str, attrs=None, new_point=False) -> None:
        """Rebind module.attr to a span-recording wrapper until `restore`."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs, new_point)

        setattr(module, attr, traced)
        self._undo.append((module, attr, fn))

    def restore(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def take(self) -> list:
        """Hand over the recorded spans and start an empty list."""
        out, self.spans = self.spans, []
        return out


class Counters:
    """Call counters on hot helpers, which get no spans."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._undo: list = []

    def wrap(self, module, attr: str, key: str | None = None, observe=None) -> None:
        """Rebind module.attr to count calls under `key` and/or pass
        (args, result) to `observe`, until `restore`."""
        fn = getattr(module, attr)
        counts = self.counts

        if observe is None:
            counts.setdefault(key, 0)

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:

            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                observe(args, out)
                return out

        setattr(module, attr, counted)
        self._undo.append((module, attr, fn))

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def restore(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = union_length(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        )
        out.append(end - start - covered)
    return out


def write_spans(path, spans, unit: int) -> None:
    """Append spans as JSON lines to a gzip file; ids are unit-local indices."""
    with gzip.open(path, "at", encoding="ascii") as fh:
        for i, (name, start, end, parent, point, info) in enumerate(spans):
            fh.write(json.dumps(dict(
                unit=unit, id=i, name=name, start_ns=start, end_ns=end,
                parent=parent, point=point, attrs=info,
            )) + "\n")
