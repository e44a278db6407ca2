"""In-memory spans around the benchmark driver's calls into forrlab.

A span records a name, a start and end time from ``time.perf_counter``, the
index of the span that was open when it started (its parent) and the trace
it belongs to (one trace per timed pass, the set-up, or the calibration).
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children; because children nest
inside their parent, the self times of one trace add up to the duration of
its root span.

``NullTracer`` has the same interface and records nothing, so the untraced
passes that give the end-to-end numbers pay one extra Python call per layer
call and nothing else.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time


@dataclasses.dataclass
class Span:
    name: str
    trace: str
    index: int
    parent: int
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Tracing on: every ``call`` and ``span`` appends a Span."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._trace = ""

    def begin_trace(self, trace: str) -> None:
        if self._open:
            raise RuntimeError("cannot start a trace while a span is open")
        self._trace = trace

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        span = Span(name, self._trace, index, self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def trace_spans(self, *traces: str) -> list[Span]:
        wanted = set(traces)
        return [s for s in self.spans if s.trace in wanted]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span, keyed by span index.

    A child outside ``spans`` is not subtracted, so pass whole traces.
    """
    own = {s.index: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own
