"""In-memory spans around the library's public callables.

A :class:`Tracer` replaces a callable at the name its caller looks it up
with a wrapper that records one span per call, then puts every original
back on :meth:`Tracer.restore`. Nothing here is installed unless a traced
run asks for it, so untraced runs execute the library unmodified.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span, None for a root

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans are recorded by one thread with stack discipline, so children of
    one parent never overlap and their durations add up.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.duration_ns
    return [s.duration_ns - c for s, c in zip(spans, child_ns)]


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Calls, inclusive time and self time per span name."""
    out: dict[str, SpanStats] = defaultdict(SpanStats)
    for span, own in zip(spans, self_times_ns(spans)):
        stats = out[span.name]
        stats.calls += 1
        stats.total_ns += span.duration_ns
        stats.self_ns += own
    return dict(out)


class Tracer:
    """Records spans and counters; patches and restores callables."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counters, in place."""
        self.spans.clear()
        self.counts.clear()

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), 0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return func(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper.

        ``before(args, kwargs)`` runs ahead of the span and its return value
        is handed to ``after(args, kwargs, result, state)``, which runs once
        the span has closed; both update counters and stay out of the span's
        time. A staticmethod stays a staticmethod.
        """
        original = vars(owner)[attr]
        is_static = isinstance(original, staticmethod)
        func = original.__func__ if is_static else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            result = tracer.call(name, func, *args, **kwargs)
            if after:
                after(args, kwargs, result, state)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched original back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
