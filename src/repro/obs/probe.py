"""A timer-based sampling profiler over the span tracer.

``sys.setprofile`` instruments *every* call and would tax the hot path
it is meant to observe; this probe instead wakes on a timer in its own
daemon thread and records which spans are open on every worker thread
at that instant (read from :meth:`repro.obs.trace.Tracer.active_stacks`).
The result is a statistical picture — "78% of samples landed inside
``campaign.analyze`` > ``compliance.chain``" — at a fixed, tiny cost
independent of how much work the pipeline does.

Usage::

    tracer = Tracer()
    with SamplingProbe(tracer, interval=0.005) as probe:
        run_campaign()
    for stack, hits in probe.hotspots():
        print(" > ".join(stack), hits)

The module also owns the process-resource side of attribution:

* :func:`read_rss_bytes` — a pure-Python ``/proc/self/statm`` reader
  (``None`` on platforms without it, never an exception), which the
  probe optionally samples alongside stacks (``sample_rss=True``,
  exported as the ``probe.rss`` gauge);
* :func:`phase_scope` — a context manager that attributes wall clock,
  CPU time, and peak RSS to one named pipeline phase as
  ``phase.wall_seconds`` / ``phase.cpu_seconds`` /
  ``phase.rss_peak_bytes`` histogram observations.  Histograms rather
  than gauges so a phase entered many times (one scope per shard, say)
  keeps every observation.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter as _TallyCounter
from contextlib import contextmanager

__all__ = ["SamplingProbe", "phase_scope", "read_rss_bytes"]

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
def phase_scope(phase: str, registry=None):
    """Attribute this block's wall/CPU/RSS cost to one named phase.

    Observes one sample into each ``phase.*`` histogram (labeled
    ``phase=<name>``) on exit — on the active registry by default, so
    the scope is a no-op when instrumentation is disabled.  Peak RSS is
    approximated as max(entry, exit); the sampling probe exists for
    finer-grained curves.
    """
    if registry is None:
        registry = _active_registry()
    rss_before = read_rss_bytes()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    try:
        yield
    finally:
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        from repro.obs.catalogue import BUCKET_BOUNDS

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


def _active_registry():
    """The live metrics registry (late import avoids an obs init cycle)."""
    from repro import obs

    return obs.get_metrics()


class SamplingProbe:
    """Periodically samples the tracer's active span stacks.

    Parameters
    ----------
    tracer:
        The tracer whose open spans are observed.  A
        :class:`~repro.obs.trace.NullTracer` is accepted and simply
        yields no samples.
    interval:
        Seconds between samples (wall clock).  The default 10 ms gives
        ~100 samples/second, plenty for phase-level attribution.
    sample_rss:
        When True, every sample also reads :func:`read_rss_bytes` and
        publishes the latest value as the ``probe.rss`` gauge on the
        active registry.  A no-op on platforms without
        ``/proc/self/statm``.
    """

    def __init__(self, tracer, *, interval: float = 0.01,
                 sample_rss: bool = False) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.tracer = tracer
        self.interval = interval
        self.sample_rss = sample_rss
        self._samples: _TallyCounter[tuple[str, ...]] = _TallyCounter()
        self._idle_samples = 0
        self._rss_samples = 0
        self._rss_last = 0
        self._rss_peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "SamplingProbe":
        if self._thread is not None:
            raise RuntimeError("probe already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-probe", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "SamplingProbe":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    # -- sampling ------------------------------------------------------

    def sample_once(self) -> int:
        """Take one sample now; returns how many stacks were recorded.

        Public so tests (and deterministic pipelines) can sample
        without the timing thread.
        """
        if self.sample_rss:
            rss = read_rss_bytes()
            if rss is not None:
                with self._lock:
                    self._rss_samples += 1
                    self._rss_last = rss
                    if rss > self._rss_peak:
                        self._rss_peak = rss
                _active_registry().gauge("probe.rss").set(rss)
        stacks = self.tracer.active_stacks()
        with self._lock:
            if not stacks:
                self._idle_samples += 1
                return 0
            for stack in stacks.values():
                self._samples[stack] += 1
            return len(stacks)

    # -- read-outs -----------------------------------------------------

    @property
    def total_samples(self) -> int:
        with self._lock:
            return sum(self._samples.values()) + self._idle_samples

    @property
    def rss_peak(self) -> int:
        """Highest RSS seen (bytes); 0 without ``sample_rss`` support."""
        with self._lock:
            return self._rss_peak

    def hotspots(self) -> list[tuple[tuple[str, ...], int]]:
        """(span stack, hit count) pairs, hottest first."""
        with self._lock:
            return self._samples.most_common()

    def snapshot(self) -> dict[str, object]:
        """JSON-friendly export: stacks keyed ``"a > b > c"``."""
        with self._lock:
            out: dict[str, object] = {
                "interval_s": self.interval,
                "total_samples": sum(self._samples.values())
                + self._idle_samples,
                "idle_samples": self._idle_samples,
                "stacks": {
                    " > ".join(stack): hits
                    for stack, hits in self._samples.most_common()
                },
            }
            if self._rss_samples:
                out["rss"] = {
                    "samples": self._rss_samples,
                    "last_bytes": self._rss_last,
                    "peak_bytes": self._rss_peak,
                }
            return out
