"""Span-based tracing with a hierarchical timing tree, and the one
primitive that marks a pipeline phase.

Usage::

    with obs.instrumented() as (registry, tracer):
        with phase_scope("collect", domains=5000):
            ...  # steps inside the phase open Tracer.span contexts
    print(tracer.tree())

Every ``span`` is timed with the wall clock; nesting is tracked per
thread so concurrent scanners do not interleave their trees.  After a
run, the tracer offers three read-outs:

* :meth:`Tracer.roots` — the raw span tree (each span knows its
  children and its duration);
* :meth:`Tracer.tree` — that tree rendered as indented text;
* :meth:`Tracer.to_chrome_trace` — Chrome trace-event JSON (open in
  ``chrome://tracing`` or https://ui.perfetto.dev), the format the
  acceptance criteria require: a list of complete events
  ``{"name", "ph": "X", "ts", "dur", "pid", "tid", "args"}``.

A pipeline phase is marked with :func:`phase_scope`, never with a bare
span: it opens the active tracer's span under the phase's name and
attributes the block's wall clock, CPU time and peak RSS to that same
name as ``phase.wall_seconds`` / ``phase.cpu_seconds`` /
``phase.rss_peak_bytes`` histogram observations.  So ``report``'s
"Phase resources", ``stats``'s phase rows and ``scan --trace-out`` name
each region once.  Histograms rather than gauges, so a phase entered
many times (one ``analyze`` per shard, say) keeps every observation.
:func:`read_rss_bytes` is the pure-Python RSS reader behind the last
one.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import NullMetricsRegistry

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer", "phase_scope",
           "read_rss_bytes"]


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
        #: open-span stack per thread id
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

    def tree(self) -> str:
        """All root trees rendered beneath each other."""
        return "\n".join(root.tree() for root in self.roots())

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

    def tree(self) -> str:
        return ""

    def to_chrome_trace(self) -> list[dict[str, object]]:
        return []

    def to_json(self, *, indent: int | None = 2) -> str:
        return "[]"


NULL_TRACER = NullTracer()


_PAGE_SIZE: int | None = None


def read_rss_bytes() -> int | None:
    """The process's resident set size in bytes, or ``None``.

    Reads ``/proc/self/statm`` (second field: resident pages) and
    multiplies by the page size — no dependency on ``psutil`` or
    ``resource``.  Platforms without procfs (macOS, Windows) get
    ``None`` back; callers treat that as "RSS not observable" and skip
    the metric rather than fail.
    """
    global _PAGE_SIZE
    try:
        with open("/proc/self/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        if _PAGE_SIZE is None:
            _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
        return resident_pages * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return None


@contextmanager
def phase_scope(phase: str, registry=None, **attrs: object):
    """Mark this block as the pipeline phase ``phase``.

    Opens the active tracer's span named ``phase``, carrying ``attrs``,
    and on exit observes one sample into each ``phase.*`` histogram
    (labeled ``phase=<name>``) — on the active registry by default, so
    both halves are no-ops when instrumentation is disabled.  Peak RSS
    is approximated as max(entry, exit).  Under the null registry the
    scope reads neither RSS nor the clocks: nothing would keep them.
    """
    from repro import obs  # late import: repro.obs imports this module
    from repro.obs.catalogue import BUCKET_BOUNDS

    if registry is None:
        registry = obs.get_metrics()
    if isinstance(registry, NullMetricsRegistry):
        with obs.get_tracer().span(phase, **attrs):
            yield
        return
    rss_before = read_rss_bytes()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    try:
        with obs.get_tracer().span(phase, **attrs):
            yield
    finally:
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        registry.histogram(
            "phase.wall_seconds",
            buckets=BUCKET_BOUNDS["phase.wall_seconds"], phase=phase,
        ).observe(wall)
        registry.histogram(
            "phase.cpu_seconds",
            buckets=BUCKET_BOUNDS["phase.cpu_seconds"], phase=phase,
        ).observe(cpu)
        rss_after = read_rss_bytes()
        if rss_after is not None:
            registry.histogram(
                "phase.rss_peak_bytes",
                buckets=BUCKET_BOUNDS["phase.rss_peak_bytes"], phase=phase,
            ).observe(max(rss_before or 0, rss_after))
