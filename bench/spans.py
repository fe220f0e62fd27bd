"""In-memory spans recorded around calls into popdyn's layers.

A span holds its name, wall-clock start and end, its parent span, the unit
it belongs to and the id of the thread that ran it.  Parents come from a
per-thread stack: worker threads (such as those of the CLI's ``simulate
--seeds`` pool) do not inherit the caller's stack, so a span that opens on
an empty stack is parented to the unit currently running.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    unit: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; ``install`` wraps a module attribute in one."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self.unit
        sp = Span(next(self._ids), name, parent, self.unit, threading.get_ident(), 0.0)
        stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    @contextmanager
    def unit_span(self):
        """Span of one workload unit; spans opened by any thread inside it belong to it."""
        with self.span("unit") as sp:
            self.unit = sp.id
            try:
                yield sp
            finally:
                self.unit = None

    def install(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``counts(args, result)`` returns a dict attached to the span; it runs
        after the span has closed, so its cost is not charged to the layer.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            if counts is not None:
                sp.counts = counts(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> float:
    """Wall duration of ``span`` minus the part of it its children cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return (span.end - span.start) - covered(clipped)
