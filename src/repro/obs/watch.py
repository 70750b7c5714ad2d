"""``repro watch`` — a live dashboard over a running campaign.

Two ways to follow a run, one rendering:

* :class:`JournalSource` tails the run's append-only journal — works
  on the same machine with nothing but the filesystem, and even after
  the run finished (the dashboard then shows the final state);
* :class:`HttpSource` polls a :class:`~repro.obs.server.TelemetryServer`
  (``scan --serve``) — works across processes and, with a non-local
  bind, across machines.

Each poll produces a *frame* (a plain dict — easy to test, easy to
render), and :func:`watch` drives the loop: on a TTY the frame is
repainted in place with ANSI cursor movement; on anything else
(redirected output, CI logs) it degrades to one plain status line per
poll, mirroring :class:`~repro.obs.export.ProgressLine`'s TTY gate.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

from repro.errors import JournalError, PayloadError
from repro.obs.journal import read_journal
from repro.obs.report import RunReport, build_report

__all__ = ["HttpSource", "JournalSource", "render_frame", "watch"]

#: rule rows kept in the dashboard (hottest first)
_TOP_RULES = 4


class SourceError(RuntimeError):
    """The source could not produce a frame this poll."""


class JournalSource:
    """Frames from tailing a run journal on disk."""

    def __init__(self, path: str | Path, *, clock=time.monotonic) -> None:
        self.path = Path(path)
        self._clock = clock
        self._last: tuple[float, int] | None = None  # (when, verdicts)

    @property
    def label(self) -> str:
        return str(self.path)

    def frame(self) -> dict[str, Any]:
        try:
            manifest, events = read_journal(self.path)
            report = build_report(manifest, events)
        except PayloadError as exc:
            # a verdict that does not decode names its domain, not the
            # journal holding it
            raise SourceError(f"{self.path}: {exc}") from exc
        except JournalError as exc:
            raise SourceError(str(exc)) from exc

        retries = sum(max(0, event.get("attempts", 1) - 1)
                      for event in events if event["type"] == "scan")

        done = report.verdict_total
        total = report.observations or 0
        now = self._clock()
        rate = 0.0
        if self._last is not None:
            elapsed = now - self._last[0]
            if elapsed > 0:
                rate = max(0, done - self._last[1]) / elapsed
        self._last = (now, done)

        collecting = report.observations is None
        finished = (not collecting and total > 0 and done >= total)
        return {
            "source": self.label,
            "phase": ("collect" if collecting
                      else "finished" if finished else "analyze"),
            "finished": finished,
            "done": done,
            "total": total,
            "rate": rate,
            "health_ok": None,
            "health_failures": (),
            **_report_cells(report),
            "retries": retries,
            "breaker_trips": 0,  # not journaled; HTTP mode reports it
            "scan_errors": sum(v.attempted - v.reached
                               for v in report.vantages),
        }


class HttpSource:
    """Frames from polling a ``scan --serve`` telemetry endpoint."""

    def __init__(self, url: str, *, timeout: float = 5.0) -> None:
        self.base = url.rstrip("/")
        self.timeout = timeout
        self.ever_connected = False

    @property
    def label(self) -> str:
        return self.base

    def _get_json(self, route: str) -> tuple[int, dict[str, Any] | None]:
        try:
            with urllib.request.urlopen(
                self.base + route, timeout=self.timeout
            ) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                return exc.code, json.loads(exc.read())
            except (ValueError, OSError):
                return exc.code, None
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise SourceError(str(exc)) from exc

    def frame(self) -> dict[str, Any]:
        code, progress = self._get_json("/progress")
        self.ever_connected = True
        progress = progress if code == 200 and progress else {}

        health_code, health = self._get_json("/healthz")
        health = health or {}
        failures = tuple(
            f"{f.get('metric')}={f.get('value'):g} "
            f"(rule {f.get('rule')})"
            if isinstance(f.get("value"), (int, float))
            else str(f.get("rule"))
            for f in health.get("failures", ())
        )

        frame: dict[str, Any] = {
            "source": self.label,
            "phase": progress.get("phase", "unknown"),
            "finished": bool(progress.get("finished")),
            "done": int(progress.get("done", 0)),
            "total": int(progress.get("total", 0)),
            "rate": float(progress.get("rate_per_s", 0.0)),
            "health_ok": health_code == 200,
            "health_failures": failures,
            "vantages": [],
            "verdicts": None,
            "rules": [],
            "retries": None,
            "breaker_trips": None,
            "scan_errors": int(progress.get("errors", 0)),
        }
        for vantage, reason in sorted(
            (progress.get("degraded_vantages") or {}).items()
        ):
            frame["vantages"].append({
                "vantage": vantage, "reached": None, "attempted": None,
                "degraded": reason,
            })

        report_code, payload = self._get_json("/report")
        if report_code == 200 and payload:
            try:
                cells = _report_cells(RunReport.from_dict(payload))
            except PayloadError as exc:
                raise SourceError(f"{self.base}/report: {exc}") from exc
            if not cells["vantages"]:
                # keep the degraded vantages /progress named
                del cells["vantages"]
            frame.update(cells)
        return frame


def _report_cells(report: RunReport) -> dict[str, Any]:
    """The frame cells a run report fills, for either source: vantages,
    verdict totals and the hottest rules."""
    return {
        "vantages": [
            {
                "vantage": v.vantage,
                "reached": v.reached,
                "attempted": v.attempted,
                "degraded": v.degraded_reason,
            }
            for v in report.vantages
        ],
        "verdicts": {
            "total": report.verdict_total,
            "compliant": report.verdict_compliant,
            "noncompliant": report.verdict_noncompliant,
        },
        "rules": [
            (r.rule_id, r.domains)
            for r in sorted(report.rules,
                            key=lambda r: (-r.domains, r.rule_id))
            if r.verdict not in ("compliant", "pass", "ok")
        ][:_TOP_RULES],
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _progress_cell(frame: dict[str, Any]) -> str:
    done, total = frame["done"], frame["total"]
    cell = f"{done:,}"
    if total:
        cell += f"/{total:,} ({100.0 * done / total:5.1f}%)"
    if frame["rate"]:
        cell += f"  {frame['rate']:,.0f}/s"
    return cell


def render_frame(frame: dict[str, Any]) -> list[str]:
    """The dashboard as a list of plain-text lines."""
    lines = [
        f"repro watch — {frame['source']}",
        f"phase    : {frame['phase']:<10} {_progress_cell(frame)}",
    ]
    if frame["health_ok"] is not None:
        if frame["health_ok"]:
            lines.append("health   : ok")
        else:
            detail = "; ".join(frame["health_failures"]) or "failing"
            lines.append(f"health   : FAILING — {detail}")
    if frame["vantages"]:
        cells = []
        for v in frame["vantages"]:
            cell = str(v["vantage"])
            if v.get("attempted"):
                share = 100.0 * (v.get("reached") or 0) / v["attempted"]
                cell += (f" {v.get('reached', 0):,}/{v['attempted']:,}"
                         f" ({share:.1f}%)")
            if v.get("degraded"):
                cell += f" DEGRADED({v['degraded']})"
            cells.append(cell)
        lines.append(f"vantages : {'   '.join(cells)}")
    if frame["verdicts"]:
        verdicts = frame["verdicts"]
        lines.append(
            f"verdicts : {verdicts['total']:,} total — "
            f"{verdicts['compliant']:,} compliant / "
            f"{verdicts['noncompliant']:,} non-compliant"
        )
    if frame["rules"]:
        cells = [f"{rule_id}×{count:,}"
                 for rule_id, count in frame["rules"]]
        lines.append(f"rules    : {'  '.join(cells)}")
    activity = []
    if frame.get("retries"):
        activity.append(f"retries {frame['retries']:,}")
    if frame.get("breaker_trips"):
        activity.append(f"breaker trips {frame['breaker_trips']:,}")
    if frame.get("scan_errors"):
        activity.append(f"scan errors {frame['scan_errors']:,}")
    if activity:
        lines.append(f"activity : {'  '.join(activity)}")
    return lines


def _plain_line(frame: dict[str, Any]) -> str:
    """The one-line non-TTY rendering of a frame."""
    cell = f"watch {frame['phase']} {_progress_cell(frame)}"
    if frame["health_ok"] is False:
        cell += "  health=FAILING"
    degraded = [v["vantage"] for v in frame["vantages"]
                if v.get("degraded")]
    if degraded:
        cell += f"  degraded={','.join(degraded)}"
    return cell


def watch(source, *, interval: float = 1.0, once: bool = False,
          stream=None, force_tty: bool | None = None,
          sleep=time.sleep, max_polls: int | None = None) -> int:
    """Poll ``source`` and render until the run finishes.

    Returns an exit code: 0 on a completed (or ``once``-sampled) run,
    2 when the source never produced a frame.  ``max_polls`` bounds
    the loop for tests; ``force_tty`` overrides the isatty probe.
    """
    stream = stream if stream is not None else sys.stdout
    is_tty = (force_tty if force_tty is not None
              else bool(getattr(stream, "isatty", lambda: False)()))
    painted = 0
    polls = 0
    produced = False

    def paint(frame: dict[str, Any]) -> None:
        nonlocal painted
        if is_tty:
            lines = render_frame(frame)
            if painted:
                # rewind over the previous frame, clearing each line
                stream.write(f"\x1b[{painted}F")
            stream.write("".join(f"\x1b[2K{line}\n" for line in lines))
            painted = len(lines)
        else:
            stream.write(_plain_line(frame) + "\n")
        stream.flush()

    while True:
        polls += 1
        try:
            frame = source.frame()
        except SourceError as exc:
            ever = getattr(source, "ever_connected", produced) or produced
            if ever:
                # The endpoint answered before and is gone now: the
                # run (and its embedded server) ended.
                return 0
            if once or (max_polls is not None and polls >= max_polls):
                print(f"repro-chain watch: {exc}", file=sys.stderr)
                return 2
            sleep(interval)
            continue
        produced = True
        paint(frame)
        if once or frame["finished"]:
            return 0
        if max_polls is not None and polls >= max_polls:
            return 0
        sleep(interval)
