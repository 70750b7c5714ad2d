"""Run one ``repro.cli.main(argv)`` in this process and time it from outside.

    python bench/launch.py PROBE.json [--trace] -- ARGV...

The launcher imports the package from ``src/`` next to this directory,
calls the real CLI entry point and writes ``PROBE.json`` when ``main``
returns.  It changes no code under ``src/``: every measurement comes
from wrapping public functions at the places they are bound.

Untraced, only ``Ecosystem.generate`` and ``Ecosystem.install`` are
wrapped, so the parent can compute the benchmark's set-up time (spawn
to the end of generation, plus installation on the simulated network).
An untraced run also samples the speed of the CPU it runs on: every
:data:`SAMPLE_INTERVAL_S` of process CPU time a ``SIGPROF`` handler
times :func:`spin`, a fixed piece of pure-Python work.  The parent
divides the measured times by the mean spin time, so that a host that
runs every instruction slower for a while does not read as a slower
program (see :class:`SpeedSampler`).

With ``--trace`` every function in :data:`LAYERS` is wrapped in
  * the module that defines it,
  * every other ``repro`` module global holding the same object (the
    from-imports, such as ``repro.net.tls.to_pem_bundle``),
  * the class attribute, for methods.
Each call becomes a span (name, start, end, parent); self time is the
span's duration minus the time its child spans cover.  Spans stay in
memory and are written to ``spans.json`` beside ``PROBE.json`` at exit.
Only the main thread of this process is traced: forked workers and
other threads run the original functions' work untraced.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: layer -> (defining module, qualified name) of each traced function
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "webpki": (("repro.webpki.ecosystem", "Ecosystem.generate"),
               ("repro.webpki.ecosystem", "Ecosystem.install")),
    "x509": (("repro.x509.encoding", "to_pem_bundle"),
             ("repro.x509.encoding", "load_pem_bundle")),
    "net": (("repro.net.scanner", "Scanner.scan_domain"),
            ("repro.net.simnet", "SimulatedNetwork.connect")),
    "campaign": (("repro.measurement.campaign", "Campaign.collect"),
                 ("repro.measurement.campaign", "Campaign.analyze")),
    "core": (("repro.core.compliance", "analyze_chain"),
             ("repro.core.topology", "ChainTopology.__init__"),
             ("repro.core.order", "analyze_order"),
             ("repro.core.completeness", "analyze_completeness"),
             ("repro.core.leaf", "classify_leaf_placement"),
             ("repro.core.relation", "issued")),
    "trust": (("repro.trust.aia", "StaticAIARepository.fetch"),
              ("repro.trust.rootstore", "RootStore.find_issuers_of")),
    "tables": (("repro.measurement.tables", "TableContext.build"),),
    "parallel": (("repro.measurement.parallel", "analyze_observations"),),
    "store": (("repro.measurement.store", "VerdictStore.__init__"),
              ("repro.measurement.store", "VerdictStore.get_report"),
              ("repro.measurement.store", "VerdictStore.put_report"),
              ("repro.measurement.store", "VerdictStore.flush")),
    "journal": (("repro.obs.journal", "RunJournal.record"),
                ("repro.obs.journal", "RunJournal.record_verdict"),
                ("repro.obs.journal", "RunJournal.flush")),
    "report": (("repro.obs.report", "report_from_journal"),),
    "chainbuilder": (("repro.chainbuilder.differential",
                      "DifferentialHarness.run"),
                     ("repro.chainbuilder.engine", "ChainBuilder.build")),
}


#: process CPU time between two speed samples
SAMPLE_INTERVAL_S = 0.06
#: iterations of one spin: about 1 ms of a quiet 2-vCPU Xeon guest
SPIN_ITERATIONS = 6000
#: the reference CPU, in whose seconds the harness reports times, is
#: one on which a spin takes exactly this long
SPIN_REFERENCE_NS = 1_000_000


def spin() -> dict:
    """Fixed pure-Python work; its duration measures the CPU's speed.

    It touches a few kilobytes and allocates no object the cyclic
    collector tracks, so the program's heap does not change its cost.
    """
    table = {}
    for i in range(SPIN_ITERATIONS):
        table[i & 127] = str(i)
    return table


class SpeedSampler:
    """Times :func:`spin` every :data:`SAMPLE_INTERVAL_S` of CPU time.

    On a shared host the speed of each vCPU wanders by 10-20% within
    seconds, and the vCPUs wander independently.  A calibration run
    before or after the measured run, maybe on the other vCPU, misses
    that; a sample taken inside the run, on the run's own core, does
    not.  Samples are (end, duration) pairs in ``monotonic_ns``.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []

    def _sample(self, signum, frame) -> None:
        start = time.monotonic_ns()
        spin()
        end = time.monotonic_ns()
        self.samples.append((end, end - start))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def summary(self, setup_windows, main_window) -> dict:
        """Count and total spin time inside and outside set-up.

        Each phase is converted to reference seconds by the speed seen
        during it: set-up is short, and the host's speed in it often
        differs from the speed over the whole run.
        """
        phases = {"setup": [0, 0], "rest": [0, 0]}
        main_ns = 0
        for end, duration in self.samples:
            phase = phases["setup" if any(start <= end <= stop for
                                          start, stop in setup_windows)
                            else "rest"]
            phase[0] += 1
            phase[1] += duration
            if main_window[0] <= end <= main_window[1]:
                main_ns += duration
        return {**{name: {"count": count, "total_ns": total}
                   for name, (count, total) in phases.items()},
                "main_ns": main_ns}


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname}"


class SpanRecorder:
    """In-memory spans plus per-name self time and per-call durations."""

    def __init__(self) -> None:
        self.main_thread = threading.get_ident()
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []
        self.self_ns: list[int] = []
        self.durations_ns: list[list[int]] = []
        # open spans: [span index, ns covered by finished children]
        self.stack: list[list[int]] = []
        self.observers: dict[int, object] = {}

    def register(self, name: str, observer=None) -> int:
        self.names.append(name)
        self.self_ns.append(0)
        self.durations_ns.append([])
        index = len(self.names) - 1
        if observer is not None:
            self.observers[index] = observer
        return index

    def wrap(self, index: int, fn):
        clock = time.perf_counter_ns
        stack = self.stack
        spans = self.spans
        observer = self.observers.get(index)
        main_thread = self.main_thread
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != main_thread:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            span = len(spans)
            spans.append((index, 0, 0, parent))
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[span] = (index, start, end, parent)
                self.self_ns[index] += duration - frame[1]
                self.durations_ns[index].append(duration)
                if stack:
                    stack[-1][1] += duration
            if observer is not None:
                observer(args, result)
            return result

        return traced


class Observations:
    """Counts taken from the arguments and results of traced calls."""

    def __init__(self) -> None:
        self.bundle_texts: set[int] = set()
        self.decodes = 0
        self.scans = 0
        self.scan_successes = 0
        self.scan_attempts = 0

    def on_decode(self, args, result) -> None:
        self.decodes += 1
        self.bundle_texts.add(hash(args[0]))

    def on_scan(self, args, record) -> None:
        self.scans += 1
        self.scan_successes += bool(record.success)
        self.scan_attempts += record.attempts


def _wrap_function(recorder: SpanRecorder, index: int, module, name: str):
    original = getattr(module, name)
    traced = recorder.wrap(index, original)
    for other_name, other in list(sys.modules.items()):
        # only the package's own modules: this launcher runs as
        # __main__ and must not rebind the names it holds itself
        if other is None or not (other_name == "repro"
                                 or other_name.startswith("repro.")):
            continue
        for attr, value in list(vars(other).items()):
            if value is original:
                setattr(other, attr, traced)


def _wrap_method(recorder: SpanRecorder, index: int, cls, name: str):
    raw = cls.__dict__[name]
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(cls, name, type(raw)(recorder.wrap(index, raw.__func__)))
    else:
        setattr(cls, name, recorder.wrap(index, raw))


def install_tracing(recorder: SpanRecorder, observations: Observations):
    observers = {
        "x509.load_pem_bundle": observations.on_decode,
        "net.Scanner.scan_domain": observations.on_scan,
    }
    for layer, functions in LAYERS.items():
        for module_name, qualname in functions:
            name = span_name(layer, qualname)
            index = recorder.register(name, observers.get(name))
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".", 1)
                _wrap_method(recorder, index, getattr(module, class_name),
                             method)
            else:
                _wrap_function(recorder, index, module, qualname)


def install_setup_timer(probe: dict) -> None:
    """Wrap generation and installation with bare timers."""
    from repro.webpki.ecosystem import Ecosystem

    generate = Ecosystem.__dict__["generate"].__func__
    install = Ecosystem.__dict__["install"]

    def timed_generate(cls, *args, **kwargs):
        result = generate(cls, *args, **kwargs)
        probe.setdefault("generate_end_ns", time.monotonic_ns())
        return result

    def timed_install(self, *args, **kwargs):
        start = time.monotonic_ns()
        try:
            return install(self, *args, **kwargs)
        finally:
            end = time.monotonic_ns()
            probe["install_ns"] += end - start
            probe["install_windows"].append((start, end))

    Ecosystem.generate = classmethod(functools.wraps(generate)(timed_generate))
    Ecosystem.install = functools.wraps(install)(timed_install)


def _percentile(sorted_values: list[int], q: float) -> int:
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


def layer_summary(recorder: SpanRecorder, observations: Observations,
                  main_ns: int) -> dict:
    """Per-function calls/self time, per-call percentiles, ratios."""
    functions = {}
    for index, name in enumerate(recorder.names):
        durations = sorted(recorder.durations_ns[index])
        functions[name] = {
            "calls": len(durations),
            "self_s": recorder.self_ns[index] / 1e9,
            "total_s": sum(durations) / 1e9,
            "p50_us": _percentile(durations, 0.50) / 1e3 if durations else 0,
            # a p99 needs >= 10 samples beyond it
            "p99_us": (_percentile(durations, 0.99) / 1e3
                       if len(durations) >= 1000 else 0),
        }
    covered = sum(recorder.self_ns)
    return {
        "functions": functions,
        "main_s": main_ns / 1e9,
        "other_s": (main_ns - covered) / 1e9,
        "spans": len(recorder.spans),
        "decode_distinct_ratio": (len(observations.bundle_texts)
                                  / observations.decodes
                                  if observations.decodes else 0.0),
        "scan_success_ratio": (observations.scan_successes
                               / observations.scans
                               if observations.scans else 0.0),
        "scan_attempts_per_scan": (observations.scan_attempts
                                   / observations.scans
                                   if observations.scans else 0.0),
    }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    if "--" not in argv or argv.index("--") < 1:
        print("usage: launch.py PROBE.json [--trace] -- ARGV...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    options, cli_argv = argv[:split], argv[split + 1:]
    probe_path = Path(options[0])
    traced = "--trace" in options[1:]

    # the spans of a traced run would count the spins as their own time
    sampler = None if traced else SpeedSampler()
    if sampler is not None:
        sampler.start()
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"launch.py: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    from repro.cli import main as cli_main

    probe: dict = {"install_ns": 0, "install_windows": []}
    recorder = observations = None
    if traced:
        recorder, observations = SpanRecorder(), Observations()
        install_tracing(recorder, observations)
    install_setup_timer(probe)

    children_before = _children_cpu()
    start = time.monotonic_ns()
    try:
        code = cli_main(cli_argv)
    finally:
        end = time.monotonic_ns()
        main_ns = end - start
        if sampler is not None:
            sampler.stop()
            setup_windows = [(0, probe.get("generate_end_ns", 0)),
                             *probe["install_windows"]]
            probe["spin"] = sampler.summary(setup_windows, (start, end))
            main_ns -= probe["spin"]["main_ns"]
        probe["main_s"] = main_ns / 1e9
        # the CLI defaults fork nothing; a reaped worker shows up here
        probe["mode"] = ("fork-pool" if _children_cpu() > children_before
                         else "in-process")
        if recorder is not None:
            probe["layers"] = layer_summary(recorder, observations, main_ns)
            spans_path = probe_path.with_name("spans.json")
            spans_path.write_text(json.dumps(
                {"names": recorder.names, "clock": "perf_counter_ns",
                 "fields": ["name", "start", "end", "parent"],
                 "spans": recorder.spans},
                separators=(",", ":")), encoding="utf-8")
        probe_path.write_text(json.dumps(probe), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
