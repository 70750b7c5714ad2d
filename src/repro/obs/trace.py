"""Span-based tracing with a hierarchical timing tree.

Usage::

    tracer = Tracer()
    with tracer.span("campaign.collect", domains=5000):
        with tracer.span("campaign.scan", vantage="us"):
            ...

Every ``span`` is timed with the wall clock; nesting is tracked per
thread so concurrent scanners do not interleave their trees.  After a
run, the tracer offers three read-outs:

* :meth:`Tracer.roots` — the raw span tree (each span knows its
  children and its *self time*, i.e. wall time minus child time);
* :meth:`Tracer.aggregate` — per-name totals (count / total / self),
  the "where did the time go" table;
* :meth:`Tracer.to_chrome_trace` — Chrome trace-event JSON (open in
  ``chrome://tracing`` or https://ui.perfetto.dev), the format the
  acceptance criteria require: a list of complete events
  ``{"name", "ph": "X", "ts", "dur", "pid", "tid", "args"}``.

The sampling probe (:mod:`repro.obs.probe`) reads
:meth:`Tracer.active_stacks` from its own thread, which is why the
per-thread stacks live behind a lock rather than in a ``threading.local``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]


@dataclass
class Span:
    """One timed region; ``end`` stays None while the span is open."""

    name: str
    start: float
    attrs: dict[str, object] = field(default_factory=dict)
    end: float | None = None
    children: list["Span"] = field(default_factory=list)
    thread_id: int = 0

    @property
    def duration(self) -> float:
        """Wall seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def self_time(self) -> float:
        """Wall time not accounted for by direct children."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def tree(self, *, indent: int = 0) -> str:
        """Human-readable nested rendering, durations in ms."""
        label = f"{'  ' * indent}{self.name}: {self.duration * 1e3:.3f} ms"
        if self.attrs:
            rendered = " ".join(f"{k}={v}" for k, v in self.attrs.items())
            label += f"  [{rendered}]"
        lines = [label]
        lines.extend(c.tree(indent=indent + 1) for c in self.children)
        return "\n".join(lines)

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self._span)


class Tracer:
    """Collects spans into per-thread trees; thread-safe."""

    def __init__(self, *, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        #: finished + in-flight top-level spans, in start order
        self._roots: list[Span] = []
        #: open-span stack per thread id (read by the sampling probe)
        self._stacks: dict[int, list[Span]] = {}

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attrs: object) -> _SpanContext:
        # start is stamped in _push (context entry), not here.
        return _SpanContext(self, Span(name, 0.0, dict(attrs)))

    def _push(self, span: Span) -> None:
        tid = threading.get_ident()
        span.thread_id = tid
        span.start = self._clock()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                stack[-1].children.append(span)
            else:
                self._roots.append(span)
            stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end = self._clock()
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.get(tid, [])
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:  # mis-nested exit; drop through to it
                del stack[stack.index(span):]
            if not stack:
                self._stacks.pop(tid, None)

    # -- read-outs -----------------------------------------------------

    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def active_stacks(self) -> dict[int, tuple[str, ...]]:
        """Open span names per thread — the sampling probe's input."""
        with self._lock:
            return {
                tid: tuple(s.name for s in stack)
                for tid, stack in self._stacks.items()
                if stack
            }

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-name ``{count, total_s, self_s}`` across every tree."""
        totals: dict[str, dict[str, float]] = {}
        for root in self.roots():
            for span in root.walk():
                entry = totals.setdefault(
                    span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
                )
                entry["count"] += 1
                entry["total_s"] += span.duration
                entry["self_s"] += span.self_time
        return totals

    def tree(self) -> str:
        """All root trees rendered beneath each other."""
        return "\n".join(root.tree() for root in self.roots())

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()
            self._stacks.clear()

    # -- export --------------------------------------------------------

    def to_chrome_trace(self) -> list[dict[str, object]]:
        """Chrome trace-event list (phase ``X`` complete events, µs)."""
        events: list[dict[str, object]] = []
        pid = os.getpid()
        for root in self.roots():
            for span in root.walk():
                if span.end is None:
                    continue
                events.append({
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": span.thread_id,
                    "args": {k: str(v) for k, v in span.attrs.items()},
                })
        events.sort(key=lambda e: e["ts"])
        return events

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_chrome_trace(), indent=indent)


class _NullSpanContext:
    """Shared no-op context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """Disabled-instrumentation tracer: every span is the same no-op."""

    __slots__ = ()

    def span(self, name: str, **attrs: object) -> _NullSpanContext:
        return _NULL_SPAN

    def roots(self) -> list[Span]:
        return []

    def active_stacks(self) -> dict[int, tuple[str, ...]]:
        return {}

    def aggregate(self) -> dict[str, dict[str, float]]:
        return {}

    def tree(self) -> str:
        return ""

    def clear(self) -> None:
        pass

    def to_chrome_trace(self) -> list[dict[str, object]]:
        return []

    def to_json(self, *, indent: int | None = 2) -> str:
        return "[]"


NULL_TRACER = NullTracer()
