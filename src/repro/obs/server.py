"""Embedded live-telemetry HTTP server for in-flight campaigns.

Every observability surface before this one was post-hoc — snapshot
files, journals, end-of-run reports.  :class:`TelemetryServer` makes a
*running* campaign answer over HTTP, the way long-lived scan services
are operated:

=============  =====================================================
``/metrics``   OpenMetrics text of the live registry (Prometheus-
               scrapable), snapshot-based so a scrape never holds the
               hot path's locks beyond one ``snapshot()`` call
``/healthz``   the :class:`~repro.obs.health.HealthMonitor` verdict as
               JSON — HTTP 200 when every rule passes, 503 otherwise
               (stock load-balancer / uptime-checker semantics)
``/progress``  phase, done/total, ok/error counts, rate, degraded
               vantages as JSON (:class:`RunStatus`)
``/report``    a partial :class:`~repro.obs.report.RunReport` built
               from the in-flight journal (JSON)
=============  =====================================================

The server binds localhost by default, takes an ephemeral port when
asked for port 0 (CI does exactly this), runs request handlers on
daemon threads, and never *writes* to the campaign's registry — its
own request accounting lives on plain attributes so a scraped run's
final metrics, reports, and journals stay byte-identical to an
unscraped run's.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.obs.export import to_openmetrics
from repro.obs.health import HealthMonitor

__all__ = [
    "RunStatus",
    "TelemetryServer",
    "parse_serve_address",
]

#: content type the OpenMetrics spec mandates for scrapes
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


class RunStatus:
    """Thread-safe progress state the ``/progress`` endpoint serves.

    The campaign (or its CLI driver) is the single writer —
    :meth:`begin_phase` on each phase boundary, :meth:`advance` per
    unit of work, :meth:`mark_degraded` when a vantage drops out — and
    any number of HTTP handler threads read :meth:`snapshot`.
    """

    def __init__(self, *, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._started = clock()
        self._phase_started = self._started
        self.phase = "starting"
        self.done = 0
        self.total = 0
        self.ok = 0
        self.errors = 0
        self.degraded: dict[str, str] = {}
        self.finished = False

    def begin_phase(self, phase: str, total: int = 0) -> None:
        with self._lock:
            self.phase = phase
            self.total = total
            self.done = self.ok = self.errors = 0
            self._phase_started = self._clock()

    def advance(self, n: int = 1, *, ok: bool = True) -> None:
        with self._lock:
            self.done += n
            if ok:
                self.ok += n
            else:
                self.errors += n

    def mark_degraded(self, vantage: str, reason: str) -> None:
        with self._lock:
            self.degraded[vantage] = reason

    def finish(self) -> None:
        with self._lock:
            self.finished = True
            self.phase = "finished"

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            now = self._clock()
            phase_elapsed = max(now - self._phase_started, 1e-9)
            return {
                "phase": self.phase,
                "finished": self.finished,
                "done": self.done,
                "total": self.total,
                "ok": self.ok,
                "errors": self.errors,
                "rate_per_s": self.done / phase_elapsed,
                "phase_elapsed_s": now - self._phase_started,
                "elapsed_s": now - self._started,
                "degraded_vantages": dict(self.degraded),
            }


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Routes one GET; the owning server hangs off the server object."""

    server_version = "repro-telemetry/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:
        pass  # request logging would interleave with scan output

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        owner: TelemetryServer = self.server.owner  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        # counted before the reply is written, so a client that has
        # read its response is guaranteed to observe the increment
        owner.count_request()
        try:
            if path == "/metrics":
                body = to_openmetrics(owner.registry.snapshot())
                self._reply(200, body, OPENMETRICS_CONTENT_TYPE)
            elif path == "/healthz":
                self._healthz(owner)
            elif path == "/progress":
                self._progress(owner)
            elif path == "/report":
                self._report(owner)
            else:
                self._reply_json(404, {"error": f"no route {path!r}"})
        except BrokenPipeError:
            pass
        except Exception as exc:  # a scrape must never kill the scan
            try:
                self._reply_json(500, {"error": str(exc)})
            except OSError:
                pass

    def _healthz(self, owner: "TelemetryServer") -> None:
        if owner.health is None:
            self._reply_json(
                200, {"ok": True, "checks": [], "failures": [],
                      "unmatched_rules": []},
            )
            return
        report = owner.health.evaluate(owner.registry.snapshot())
        self._reply_json(200 if report.ok else 503, report.to_dict())

    def _progress(self, owner: "TelemetryServer") -> None:
        if owner.status is None:
            self._reply_json(404, {"error": "no progress tracking "
                                            "configured for this run"})
            return
        self._reply_json(200, owner.status.snapshot())

    def _report(self, owner: "TelemetryServer") -> None:
        if owner.journal_path is None:
            self._reply_json(404, {"error": "no journal configured "
                                            "for this run"})
            return
        from repro.errors import JournalError
        from repro.obs.report import report_from_journal

        try:
            report = report_from_journal(owner.journal_path)
        except JournalError as exc:
            self._reply_json(503, {"error": str(exc)})
            return
        self._reply(200, report.to_json() + "\n", "application/json")

    # -- plumbing ------------------------------------------------------

    def _reply(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _reply_json(self, code: int, payload: dict[str, Any]) -> None:
        self._reply(code, json.dumps(payload, sort_keys=True) + "\n",
                    "application/json")


class TelemetryServer:
    """Lifecycle wrapper around the embedded ``ThreadingHTTPServer``.

    Parameters
    ----------
    registry:
        The campaign's metrics registry; ``/metrics`` and ``/healthz``
        render its snapshots.
    host / port:
        Bind address.  The default binds localhost; port 0 asks the
        kernel for an ephemeral port — read the real one from
        :attr:`port` / :attr:`url` after :meth:`start`.
    health:
        Optional :class:`~repro.obs.health.HealthMonitor` driving
        ``/healthz``; without one the endpoint reports trivially ok.
    status:
        Optional :class:`RunStatus` behind ``/progress``.
    journal_path:
        Optional in-flight journal behind ``/report``.
    """

    def __init__(self, registry, *, host: str = "127.0.0.1",
                 port: int = 0, health: HealthMonitor | None = None,
                 status: RunStatus | None = None,
                 journal_path: str | Path | None = None) -> None:
        self.registry = registry
        self.requested_host = host
        self.requested_port = port
        self.health = health
        self.status = status
        self.journal_path = (
            Path(journal_path) if journal_path is not None else None
        )
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._requests_lock = threading.Lock()
        #: plain attribute, deliberately not a registry counter: the
        #: scrape traffic must not perturb the campaign's own metrics
        self.requests_served = 0

    def count_request(self) -> None:
        with self._requests_lock:
            self.requests_served += 1

    # -- lifecycle -----------------------------------------------------

    @property
    def started(self) -> bool:
        return self._httpd is not None

    @property
    def host(self) -> str:
        if self._httpd is not None:
            return self._httpd.server_address[0]
        return self.requested_host

    @property
    def port(self) -> int:
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self.requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            raise RuntimeError("telemetry server already started")
        httpd = ThreadingHTTPServer(
            (self.requested_host, self.requested_port), _TelemetryHandler
        )
        httpd.daemon_threads = True
        httpd.owner = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="repro-obs-telemetry", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start() if self._httpd is None else self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def parse_serve_address(spec: str) -> tuple[str, int]:
    """``[HOST:]PORT`` to ``(host, port)``; host defaults to localhost.

    ``--serve 0`` / ``--serve 127.0.0.1:0`` bind an ephemeral port.
    """
    host, sep, raw = spec.rpartition(":")
    if not sep:
        host, raw = "127.0.0.1", spec
    if not host:
        raise ValueError(f"serve address {spec!r}: empty host")
    try:
        port = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"serve address {spec!r}: {raw!r} is not a port number"
        ) from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"serve address {spec!r}: port out of range")
    return host, port
