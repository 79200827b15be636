"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(name, start, end, parent, unit)``: ``parent`` is the index
of the span that was open on the same thread when it began (-1 for a
root) and ``unit`` is the document, edit or request id shared by all of
one operation's spans.  Spans stay in memory until the run writes them out.

:class:`SpanTelemetry` is the program's public ``ParseTelemetry`` with
its span hooks forwarded to a tracer, so the parser's speculation spans
(``synpred:<rule>``) nest under the benchmark's ``parser.parse`` span
and nested speculation nests under the outermost one.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Span name the parser's speculation spans are recorded under.
SPECULATION = "parser.speculation"


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit")

    def __init__(self, name: str, start: float, parent: int, unit):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.unit = unit

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "unit": self.unit}


class Tracer:
    """Collects spans; one open-span stack per thread."""

    def __init__(self, clock=time.perf_counter):
        self.spans: List[Span] = []
        self.clock = clock
        self._local = threading.local()
        # Re-entrant: a collector callback may open a span on this thread.
        self._lock = threading.RLock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, unit=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if unit is None and parent >= 0:
            unit = self.spans[parent].unit
        span = Span(name, self.clock(), parent, unit)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def finish(self, index: int) -> float:
        span = self.spans[index]
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError("span %s closed out of order" % span.name)
        stack.pop()
        return span.duration

    @contextmanager
    def span(self, name: str, unit=None):
        index = self.begin(name, unit)
        try:
            yield index
        finally:
            self.finish(index)

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
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


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus the part of each span's
    interval that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[str, float] = {}
    for i, s in enumerate(spans):
        own = s.duration - _covered(
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(i, ()) if b > s.start and a < s.end)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def outermost(spans: Sequence[Span], name: str) -> List[int]:
    """Indexes of the ``name`` spans that have no ``name`` ancestor (nested
    speculation overlaps its outer span and must not count twice)."""
    out = []
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


def make_span_telemetry(tracer: Tracer, **kwargs):
    """A ``ParseTelemetry`` whose spans are also recorded in ``tracer``.

    Built lazily so that importing this module does not import the
    program under test.
    """
    from repro.runtime.telemetry import ParseTelemetry

    open_spans: Dict[int, int] = {}

    class SpanTelemetry(ParseTelemetry):
        def start_span(self, name):
            handle = super().start_span(name)
            open_spans[id(handle)] = tracer.begin(
                SPECULATION if name.startswith("synpred:") else name)
            return handle

        def end_span(self, span):
            elapsed = super().end_span(span)
            tracer.finish(open_spans.pop(id(span)))
            return elapsed

    kwargs.setdefault("capture_events", False)
    return SpanTelemetry(**kwargs)
