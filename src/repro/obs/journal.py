"""Append-only JSONL run journals for measurement campaigns.

A long campaign over millions of domains must survive crashes and
remain auditable afterwards.  The journal is the campaign's durable
spine: line 1 is a **run manifest** (config, seed, root-store digest),
every further line is one event — a scan result, a per-domain
compliance verdict with its evidence records, a differential outcome —
appended and flushed as it happens.

Crash safety is structural, not transactional: because records are
newline-delimited JSON appended in order, the only damage a crash can
inflict is a truncated final line, and :func:`read_journal` silently
drops it.  Resuming is then: reload the journal, verify the manifest
matches the run you are about to repeat (same config, same seed, same
trust anchors), index what is already recorded, and skip that work:
the journal alone decides what a resumed run must not append again
(:data:`_EVENT_IDENTITY`).  ``repro.measurement.campaign`` threads
this through ``Campaign.analyze`` so an interrupted campaign finishes
with final tables byte-identical to an uninterrupted one.

Appends are buffered: ``flush_every`` controls how many records may
accumulate in the userspace buffer before a ``flush()`` pushes them to
the OS (default 1 — flush per record, the maximally durable PR 2
behaviour; campaign-scale runs pass a larger window via the CLI's
``--journal-flush-every``).  Batching changes *when* bytes reach the
file, never *what* reaches it: a crash can lose at most the last
``flush_every - 1`` complete records plus one truncated line, and a
resumed run simply re-derives the lost verdicts — the no-duplicate
guarantee holds because unflushed records were never on disk to
duplicate.  Use the journal as a context manager (or call
:meth:`RunJournal.close`) so the tail is flushed on normal and
exceptional exits alike.

The journal keeps nothing it has written: a :class:`RunJournal`
holds the identity of each verdict it appended (its domain and chain),
so a (domain, chain) is appended at most once, and the payloads of the
verdicts it resumed, which :meth:`RunJournal.verdict_for` serves.  A
verdict this process recorded is read back, like any other event, from
the file (:func:`read_journal`).

The journal layer knows nothing about certificates — events are plain
dicts, and the verdict payloads are
:meth:`repro.core.compliance.ChainComplianceReport.to_dict` output.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Any

from repro.errors import JournalError

__all__ = [
    "JOURNAL_VERSION",
    "RunJournal",
    "encode_verdict_event",
    "manifest_identity",
    "read_journal",
    "validate_journal",
]

#: Bump when the event schema changes incompatibly.
JOURNAL_VERSION = 1

#: Manifest fields that must match for a journal to be resumable.
_IDENTITY_FIELDS = ("config", "seed", "root_store_digest")

#: What makes two events "the same record", per type: the fields that
#: identify it (one ``collection`` per run).  A resumed journal does not
#: append an event whose identity it holds, nor a verdict it already
#: appended this run, and the validator reports duplicates.
_EVENT_IDENTITY: dict[str, tuple[str, ...]] = {
    "scan": ("domain", "vantage"),
    "degradation": ("vantage",),
    "collection": (),
    "verdict": ("domain", "chain_key"),
    "differential": ("domain", "chain_key"),
    "shard": ("index", "start", "stop"),
}

#: One reused compact encoder for the append hot path: skipping the
#: per-call ``json.dumps`` argument plumbing and the circular-reference
#: scan measurably cuts per-record serialisation cost, and journal
#: payloads are trees by construction.
_encode_record = json.JSONEncoder(
    separators=(",", ":"), check_circular=False
).encode


def _plain(value) -> bool:
    """True when ``value`` JSON-encodes as ``"value"`` verbatim."""
    return (type(value) is str and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value)


def encode_verdict_event(domain: str, chain_key: tuple[str, ...],
                         report: Any) -> str:
    """The exact journal line (sans newline) for one verdict event.

    ``report`` is either the ``ChainComplianceReport.to_dict()`` payload
    or the report object itself — anything exposing ``to_json()`` (the
    compact encoding of its ``to_dict()``) takes the fast path, which is
    what keeps verdict appends off the campaign's critical path.  The
    two spellings produce byte-identical lines.
    """
    to_json = getattr(report, "to_json", None)
    report_json = to_json() if to_json is not None else _encode_record(report)
    domain_json = f'"{domain}"' if _plain(domain) else _encode_record(domain)
    if not chain_key:
        key_json = "[]"
    elif all(map(_plain, chain_key)):
        key_json = '["' + '","'.join(chain_key) + '"]'
    else:
        key_json = _encode_record(list(chain_key))
    return "".join((
        '{"type":"verdict","domain":', domain_json,
        ',"chain_key":', key_json,
        ',"report":', report_json, "}",
    ))


def manifest_identity(manifest: dict[str, Any]) -> dict[str, Any]:
    """The subset of a manifest that defines run identity.

    ``run_id`` and timestamps may differ between the original run and
    its resumption; config, seed, and the trust-anchor digest may not.
    """
    return {key: manifest.get(key) for key in _IDENTITY_FIELDS}


def _event_identity(event: dict[str, Any]) -> str | None:
    """The event's :data:`_EVENT_IDENTITY` as one JSON string (so any
    field value hashes, and a list and a tuple key alike), or None."""
    names = _EVENT_IDENTITY.get(event["type"])
    if names is None:
        return None
    return _encode_record([event["type"], *map(event.get, names)])


def _refuse_corrupt(path: str | Path, problems: list[str]) -> None:
    """Raise one :class:`JournalError` naming the first few problems."""
    if problems:
        shown = "; ".join(problems[:3])
        if len(problems) > 3:
            shown += f"; and {len(problems) - 3} more problem(s)"
        raise JournalError(f"{Path(path)}: corrupt journal: {shown}")


def _is_chain_key(value: Any) -> bool:
    """True for a verdict's ``chain_key``: a list of hex strings, the
    fingerprints of the chain it judged, which resume and the shard fold
    turn back into bytes."""
    if type(value) is not list:
        return False
    try:
        for fingerprint in value:
            bytes.fromhex(fingerprint)
    except (TypeError, ValueError):
        return False
    return True


def _read(path: Path) -> tuple[dict[str, Any], list[dict[str, Any]], int]:
    """``(manifest, events, clean_end)`` of one journal file, where
    ``clean_end`` ends the last complete line: what follows is a torn
    tail from a crash, which the events leave out."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalError(
            f"{path}: cannot read journal: {exc.strerror or exc}"
        ) from exc
    clean_end = data.rfind(b"\n") + 1
    try:
        lines = data[:clean_end].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise JournalError(f"{path}: not a UTF-8 journal ({exc})") from None
    del data
    lines.pop()  # the empty string after the final newline
    records: list[dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise JournalError(
                f"{path}:{number}: malformed journal line: {exc}"
            ) from None
        if not (isinstance(record, dict)
                and type(record.get("type")) is str):
            raise JournalError(
                f"{path}:{number}: journal records must be objects "
                f"with a 'type'"
            )
        if record["type"] == "verdict":
            if not ("domain" in record and "report" in record):
                _refuse_corrupt(path, [
                    f"line {number}: verdict event missing domain/report"
                ])
            if not _is_chain_key(record.get("chain_key")):
                _refuse_corrupt(path, [
                    f"line {number}: verdict chain_key is not a list of "
                    f"fingerprint hex strings"
                ])
        records.append(record)
    if not records:
        raise JournalError(f"{path}: empty journal (no manifest line)")
    manifest = records[0]
    if manifest["type"] != "manifest":
        raise JournalError(
            f"{path}: first journal line must be the manifest, "
            f"got type {manifest['type']!r}"
        )
    if manifest.get("journal_version") != JOURNAL_VERSION:
        raise JournalError(
            f"{path}: unsupported journal version "
            f"{manifest.get('journal_version')!r}"
        )
    return manifest, records[1:], clean_end


def read_journal(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read ``(manifest, events)`` from a journal file.

    Tolerates a truncated final line (the crash case) by dropping it.
    Raises :class:`JournalError` if the file is empty, its first line is
    not a manifest, a verdict lacks its domain or report or has a
    ``chain_key`` that is not a list of hex strings, or an
    *interior* line is malformed — interior damage means the file is
    not an append-only journal and resuming from it would silently drop
    verdicts.
    """
    return _read(Path(path))[:2]


#: The validator's message for a second event of one identity, by type.
_DUPLICATE = {
    "collection": "second collection summary (one-summary invariant)",
    "scan": "duplicate scan event for {domain!r} from vantage {vantage!r}",
    "degradation": "duplicate degradation event for vantage {vantage!r}",
    "verdict": "duplicate verdict for {domain!r} (chain already recorded)",
}


def _event_problems(events: list[dict[str, Any]]) -> list[str]:
    """Structural invariant violations in an ordered event list.

    The append-only discipline (plus resume dedup) guarantees three
    things about every journal this package writes; a journal breaking
    any of them was edited, interleaved, or mis-merged, and resuming
    from it would silently drop or duplicate observations:

    * *one-summary* — at most one ``collection`` event, and at most one
      ``degradation`` event per vantage;
    * *monotonic sequence* — collection-phase events (``scan``,
      ``degradation``) never appear after the ``collection`` summary
      that closes the phase;
    * *no duplicates* — each (domain, vantage) scan and each
      (domain, chain_key) verdict is recorded at most once, where
      "the same record" is :data:`_EVENT_IDENTITY`.
    """
    problems: list[str] = []
    summarised = False
    seen: set[str] = set()
    for number, event in enumerate(events, start=2):  # line 1: manifest
        kind = event["type"]
        if summarised and kind in ("scan", "degradation"):
            problems.append(
                f"line {number}: {kind} event after the collection "
                f"summary (sequence not monotonic)"
            )
        summarised = summarised or kind == "collection"
        duplicate = _DUPLICATE.get(kind)
        if duplicate is None:
            continue
        identity = _event_identity(event)
        if identity in seen:
            problems.append(f"line {number}: " + duplicate.format(
                domain=event.get("domain"), vantage=event.get("vantage")
            ))
        seen.add(identity)
    return problems


def validate_journal(path: str | Path) -> tuple[dict[str, Any],
                                                list[dict[str, Any]]]:
    """:func:`read_journal` plus the structural invariant checks.

    The ``journal tail``-style verification consumers run before
    trusting a journal: manifest presence and version (enforced by
    :func:`read_journal`), the one-summary invariant, monotonic
    phase sequencing, and no duplicate scan/verdict records.  Raises
    :class:`JournalError` naming the first few offending lines;
    returns ``(manifest, events)`` on success so callers do not pay a
    second read.
    """
    manifest, events = read_journal(path)
    _refuse_corrupt(path, _event_problems(events))
    return manifest, events


class RunJournal:
    """One campaign's append-only event log.

    Create a fresh journal with :meth:`create`, or pick up where a
    crashed run stopped with :meth:`open` (which creates when the file
    does not exist, and otherwise resumes after verifying the manifest
    identity).  Events append with :meth:`record`; per-domain verdicts
    get the dedicated :meth:`record_verdict` / :meth:`verdict_for` pair
    that powers resume.  The instance holds no verdict it wrote, only
    the (domain, chain) identities of the verdicts the file holds.

    Parameters
    ----------
    flush_every:
        Flush after this many buffered records (default 1: every
        record, the most durable setting).  Larger windows amortise
        flush cost across records on campaign-scale runs; at most
        ``flush_every - 1`` complete records (plus one truncated line)
        can be lost to a crash, and resume re-derives them.
    """

    def __init__(self, path: str | Path, manifest: dict[str, Any], *,
                 flush_every: int = 1) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = Path(path)
        self.manifest = manifest
        self.flush_every = flush_every
        self.resumed_events: list[dict[str, Any]] = []
        #: (domain, chain_key) → payload of each resumed verdict
        self._resumed_verdicts: dict[tuple[str, tuple[str, ...]],
                                     dict[str, Any]] = {}
        #: (domain, chain_key) of every verdict the file holds: resumed
        #: ones and those this process appended
        self._verdict_keys: set[tuple[str, tuple[str, ...]]] = set()
        #: identities of the resumed non-verdict events (fresh: empty)
        self._resumed: set[str] = set()
        self._events_written = 0
        self._pending = 0
        self._handle: io.TextIOBase | None = None
        #: per-event-type ``journal.events`` counters, revalidated
        #: against the live registry (obs.enable can swap it mid-run)
        self._counters: dict[str, tuple[Any, Any]] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, manifest: dict[str, Any], *,
               flush_every: int = 1) -> "RunJournal":
        """Start a fresh journal, truncating anything already at ``path``."""
        journal = cls(path, cls._stamp(manifest), flush_every=flush_every)
        journal._handle = open(journal.path, "w", encoding="utf-8")
        journal._append(journal.manifest)
        # The manifest always hits the disk immediately: the journal's
        # identity must exist before any buffered event can be lost.
        journal.flush()
        return journal

    @classmethod
    def open(cls, path: str | Path, manifest: dict[str, Any], *,
             flush_every: int = 1) -> "RunJournal":
        """Create at ``path``, or resume the journal already there.

        Resuming verifies :func:`manifest_identity` equality and raises
        :class:`JournalError` on mismatch — a journal from a different
        config/seed/root store must not silently absorb this run.
        """
        path = Path(path)
        if not path.exists() or path.stat().st_size == 0:
            return cls.create(path, manifest, flush_every=flush_every)
        recorded, events, clean_end = _read(path)
        stamped = cls._stamp(manifest)
        ours, theirs = manifest_identity(stamped), manifest_identity(recorded)
        if ours != theirs:
            raise JournalError(
                f"{path}: manifest mismatch — journal was recorded with "
                f"{theirs}, this run is {ours}"
            )
        journal = cls(path, recorded, flush_every=flush_every)
        journal.resumed_events = events
        for event in events:
            if event["type"] == "verdict":
                key = (event["domain"], tuple(event["chain_key"]))
                journal._resumed_verdicts[key] = event["report"]
                journal._verdict_keys.add(key)
                continue
            identity = _event_identity(event)
            if identity is not None:
                journal._resumed.add(identity)
        if clean_end < path.stat().st_size:
            # cut a torn final line off in place: resumed lines keep
            # their bytes
            with open(path, "r+b") as handle:
                handle.truncate(clean_end)
                handle.flush()
                os.fsync(handle.fileno())
        journal._handle = open(path, "a", encoding="utf-8")
        return journal

    @staticmethod
    def _stamp(manifest: dict[str, Any]) -> dict[str, Any]:
        stamped = {"type": "manifest", "journal_version": JOURNAL_VERSION}
        stamped.update(manifest)
        return stamped

    # -- writing -------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        # hot path: no sort_keys — readers never depend on key order
        self._append_line(_encode_record(record), record["type"])

    def _append_line(self, line: str, event_type: str) -> None:
        """Write one already-encoded record (no trailing newline)."""
        if self._handle is None:
            raise JournalError(f"{self.path}: journal is closed")
        self._handle.write(line + "\n")
        self._pending += 1
        if self._pending >= self.flush_every:
            self.flush()
        self._events_written += 1
        registry = _active_registry()
        cached = self._counters.get(event_type)
        if cached is not None and cached[0] is registry:
            counter = cached[1]
        else:
            counter = registry.counter("journal.events", type=event_type)
            if isinstance(registry, _OBS_MODULE.NullMetricsRegistry):
                counter = None  # metrics off: skip the no-op inc entirely
            self._counters[event_type] = (registry, counter)
        if counter is not None:
            counter.inc()

    def flush(self) -> None:
        """Push buffered records to the OS."""
        if self._handle is None or not self._pending:
            return
        self._handle.flush()
        self._pending = 0

    def record(self, event_type: str, **fields: Any) -> None:
        """Append one event — unless the resumed journal holds its
        identity; ``type`` is reserved for ``event_type``."""
        record = {"type": event_type}
        record.update(fields)
        if self._resumed and _event_identity(record) in self._resumed:
            return
        self._append(record)

    def holds(self, event_type: str, **fields: Any) -> bool:
        """True when the resumed journal holds an event of this
        identity — one :meth:`record` would not append again."""
        return bool(self._resumed) and _event_identity(
            {"type": event_type, **fields}
        ) in self._resumed

    def record_degradation(self, vantage: str, reason: str,
                           **fields: Any) -> None:
        """Append one ``degradation`` event: a vantage that could not
        deliver a full sweep (circuit breaker still open at the end,
        or zero successful scans).  Like every event, it is not
        appended again when the resumed journal holds one for this
        vantage, so each vantage is recorded at most once per run."""
        self.record("degradation", vantage=vantage, reason=reason, **fields)

    def degraded_vantages(self) -> dict[str, str]:
        """Vantage → reason for the ``degradation`` events already on
        disk when this journal was opened (resume view)."""
        return {
            event["vantage"]: event.get("reason", "unknown")
            for event in self.events("degradation")
            if "vantage" in event
        }

    def record_verdict(self, domain: str, chain_key: tuple[str, ...],
                       report: Any) -> None:
        """Append one per-domain compliance verdict with its evidence —
        unless the file already holds a verdict for this (domain,
        chain), resumed or appended by this process.

        ``chain_key`` is the tuple of fingerprint hexes of the served
        chain — the same (domain, chain) identity the union merge uses —
        and ``report`` is ``ChainComplianceReport.to_dict()`` output, or
        the report object itself (anything with ``to_json()``), which
        skips the dict build entirely.  Only the identity is kept: the
        line goes to the file, and the payload stays with the caller.
        """
        key = (domain, tuple(chain_key))
        if key not in self._verdict_keys:
            self._append_line(encode_verdict_event(domain, chain_key, report),
                              "verdict")
            self._verdict_keys.add(key)

    # -- resume reads --------------------------------------------------

    def verdict_for(self, domain: str,
                    chain_key: tuple[str, ...]) -> dict[str, Any] | None:
        """The payload of the verdict for one observation that the file
        held when this journal was opened, if any.  A verdict appended
        by this process is not served: its payload was not kept."""
        return self._resumed_verdicts.get((domain, chain_key))

    @property
    def verdict_count(self) -> int:
        """Verdicts the file holds: resumed plus appended this run."""
        return len(self._verdict_keys)

    @property
    def events_written(self) -> int:
        """Events appended by *this* process (excludes resumed ones)."""
        return self._events_written

    def events(self, event_type: str | None = None) -> list[dict[str, Any]]:
        """Resumed events, optionally filtered by type.

        Only what was on disk when the journal was opened — streaming
        reads of events written by this process would require reopening
        the file, which :func:`read_journal` does.
        """
        if event_type is None:
            return list(self.resumed_events)
        return [e for e in self.resumed_events if e.get("type") == event_type]

    def validate(self) -> None:
        """Check the resumed event stream's structural invariants.

        The instance-level spelling of :func:`validate_journal`: the
        manifest must carry its stamp fields and the events read at
        :meth:`open` time must satisfy the one-summary, monotonic-
        sequence, and no-duplicate invariants.  Raises
        :class:`JournalError` on the first violation set; a journal
        created fresh this run trivially passes.
        """
        if self.manifest.get("type") != "manifest" or (
            self.manifest.get("journal_version") != JOURNAL_VERSION
        ):
            raise JournalError(
                f"{self.path}: manifest is missing its type/version stamp"
            )
        _refuse_corrupt(self.path, _event_problems(self.resumed_events))

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


_OBS_MODULE = None


def _active_registry():
    """The live metrics registry (late import avoids an obs init cycle)."""
    global _OBS_MODULE
    if _OBS_MODULE is None:
        from repro import obs

        _OBS_MODULE = obs
    return _OBS_MODULE.get_metrics()
