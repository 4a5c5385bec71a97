"""Spans for the traced benchmark run, recorded from outside the program.

A ``Tracer`` replaces public functions of the jcvitals modules at the
attribute where the pipeline and the benchmark look them up, and records one
span per call: name, layer, start, end, parent span and trace id. While
``tracemalloc`` runs it also records, per span, the peak traced allocation
above what was allocated when the span began. Counters computed from the
shapes of returned arrays are added at the same boundaries.
"""
from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    layer: str
    trace_id: str
    parent: int | None
    start: float
    end: float = 0.0
    peak_alloc_bytes: int = 0
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.trace_id = ""
        self._open: list[int] = []  # indices of open spans, innermost last
        self._mem: list[list[int]] = []  # per open span: [traced bytes at start, running peak]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        parent = self._open[-1] if self._open else None
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        self.spans.append(Span(name, layer, self.trace_id, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, error: BaseException | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if error is not None:
            span.error = f"{type(error).__name__}: {error}"
        self._open.pop()
        if tracemalloc.is_tracing() and self._mem:
            start, running = self._mem.pop()
            running = max(running, tracemalloc.get_traced_memory()[1])
            span.peak_alloc_bytes = running - start
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], running)
            tracemalloc.reset_peak()

    def wrap(self, owner, attr: str, name: str, layer: str, count=None, trace_id=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until ``restore``.

        ``count(tracer, result, *args, **kwargs)`` adds counters after a call
        returns; ``trace_id(*args, **kwargs)`` gives the call, and every span
        under it, its own trace id. A call that raises ends its span with the
        error recorded.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            outer_id = self.trace_id
            if trace_id is not None:
                self.trace_id = trace_id(*args, **kwargs)
            index = self.begin(name, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.end(index, exc)
                raise
            finally:
                self.trace_id = outer_id
            self.end(index)
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by that span's child spans."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals = defaultdict(float)
        for i, span in enumerate(self.spans):
            totals[span.layer] += span.duration - child_time[i]
        return dict(totals)

    def inclusive_times(self) -> dict[str, float]:
        """Seconds per span name, child spans included."""
        totals = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.duration
        return dict(totals)

    def peak_alloc(self) -> dict[str, int]:
        peaks = defaultdict(int)
        for span in self.spans:
            peaks[span.name] = max(peaks[span.name], span.peak_alloc_bytes)
        return dict(peaks)

    def as_dict(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counters": dict(self.counters)}
