"""Spans recorded by the benchmark around its calls into the package.

A span has a module (the layer), a name, its duration and its parent; a
layer's self time is its spans' durations minus the time covered by their
child spans.  Spans stay in memory; the benchmark reports their totals.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


def untraced(module, name, fn, *args):
    """Call fn(*args) without recording anything."""
    return fn(*args)


@dataclass
class Span:
    module: str
    name: str
    parent: int | None  # index of the enclosing span, None for a root
    start: float = 0.0
    duration: float = 0.0
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def __call__(self, module: str, name: str, fn, *args):
        """Call fn(*args) inside a span of `module`."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(module, name, parent)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span.duration = time.perf_counter() - span.start
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += span.duration

    def self_seconds(self, key=lambda span: span.module) -> dict[str, float]:
        """Self time summed by key (by default, by module)."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[key(span)] += span.self_time
        return dict(out)

    def calls(self) -> dict[str, int]:
        """Number of spans by module."""
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.module] += 1
        return dict(out)
