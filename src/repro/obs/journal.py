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

:func:`read_journal` is the one read of a journal file, resume
included: it checks the JSON type of every event field a reader takes
(:data:`_EVENT_FIELDS`) and the invariants every journal this package
writes keeps, so every reader refuses a damaged file in the same words.

Appends are buffered: ``flush_every`` controls how many records may
accumulate in the userspace buffer before a ``flush()`` pushes them to
the OS (default 1 — flush per record, the maximally durable setting;
the CLI's commands flush every 64 records).  Batching changes *when*
bytes reach the file, never *what* reaches it: a crash can lose at most
the last ``flush_every - 1`` complete records plus one truncated line,
and a resumed run simply re-derives the lost verdicts — the
no-duplicate guarantee holds because unflushed records were never on
disk to duplicate.  Use the journal as a context manager (or call
:meth:`RunJournal.close`) so the tail is flushed on normal and
exceptional exits alike.

The journal keeps nothing it has written: a :class:`RunJournal`
holds the identity of each verdict it appended (its domain and chain),
so a (domain, chain) is appended at most once, and the payloads of the
verdicts it resumed, which :meth:`RunJournal.verdict_for` serves.  A
verdict this process recorded is read back, like any other event, from
the file (:func:`read_journal`).

The journal layer knows nothing about certificates — events are plain
dicts, and a verdict's ``report`` is the text
:meth:`repro.core.compliance.ChainComplianceReport.to_json` wrote,
which the journal frames as it is handed.  Every reader decodes it
back through a :class:`repro.core.compliance.ReportTable`, one per
pass (resume, the shard fold, ``explain``, the run report), so each
refuses a verdict that does not decode in the same words.  The compact
JSON primitives the verdict codec and the verdict store share live
here, at the bottom of the import graph: :data:`encode_compact`,
:func:`encode_str` and :func:`encode_str_array`, and the exact JSON
type checks every decoder applies (:func:`typed` and its kin).
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
    "encode_compact",
    "encode_str",
    "encode_str_array",
    "encode_verdict_event",
    "is_chain_key",
    "json_kind",
    "manifest_identity",
    "read_journal",
    "typed",
    "typed_number",
    "typed_strings",
]

#: Bump when the event schema changes incompatibly.
JOURNAL_VERSION = 1

#: Manifest fields that must match for a journal to be resumable.
_IDENTITY_FIELDS = ("config", "seed", "root_store_digest")

#: What makes two events "the same record", per type: the fields that
#: identify it (one ``collection`` per run).  A resumed journal does not
#: append an event whose identity it holds, nor a verdict it already
#: appended this run, and :func:`read_journal` refuses duplicates.
_EVENT_IDENTITY: dict[str, tuple[str, ...]] = {
    "scan": ("domain", "vantage"),
    "degradation": ("vantage",),
    "collection": (),
    "verdict": ("domain", "chain_key"),
    "differential": ("domain", "chain_key"),
    "shard": ("index", "start", "stop"),
}

#: The one compact JSON encoder, reused for the journal's records, the
#: verdict store's lines and the verdict codec's escapes: skipping the
#: per-call ``json.dumps`` argument plumbing and the circular-reference
#: scan measurably cuts per-record serialisation cost, and what it
#: encodes is a tree by construction.
encode_compact = json.JSONEncoder(
    separators=(",", ":"), check_circular=False
).encode


def _plain(value) -> bool:
    """True when ``value`` JSON-encodes as ``"value"`` verbatim."""
    return (type(value) is str and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value)


def encode_str(value: str) -> str:
    """:data:`encode_compact` of one string, with a fast path for plain
    ASCII text."""
    return f'"{value}"' if _plain(value) else encode_compact(value)


def encode_str_array(values) -> str:
    """The compact JSON array of some strings — a chain key's
    fingerprints, a report's defect list — assembled without the
    encoder when every string is plain."""
    if not values:
        return "[]"
    if all(map(_plain, values)):
        return '["' + '","'.join(values) + '"]'
    return encode_compact(list(values))


def encode_verdict_event(domain: str, chain_key: tuple[str, ...],
                         report_json: str) -> str:
    """The exact journal line (sans newline) for one verdict event:
    ``report_json`` is the report's
    :meth:`~repro.core.compliance.ChainComplianceReport.to_json` text,
    framed as it is."""
    return "".join((
        '{"type":"verdict","domain":', encode_str(domain),
        ',"chain_key":', encode_str_array(chain_key),
        ',"report":', report_json, "}",
    ))


#: How a refusal names the JSON type a value held.
_JSON_KINDS = {str: "a string", int: "an integer", bool: "a boolean",
               float: "a number", list: "an array", dict: "an object",
               type(None): "null"}


def json_kind(value) -> str:
    """The JSON type of a decoded value, as a refusal names it."""
    return _JSON_KINDS.get(type(value), type(value).__name__)


def typed(section, name: str, kind: type, nullable: bool = False):
    """``section[name]`` when its JSON type is exactly ``kind`` (``bool``
    is not an ``int`` here), or null where ``nullable``; anything else
    raises :class:`TypeError` naming the field."""
    value = section[name]
    if type(value) is kind or (nullable and value is None):
        return value
    wanted = _JSON_KINDS[kind] + (" or null" if nullable else "")
    raise TypeError(f"{name!r} must be {wanted}, not {json_kind(value)}")


def typed_strings(section, name: str) -> list:
    """``section[name]`` when it is an array of strings, else a
    :class:`TypeError` naming the field."""
    values = section[name]
    if type(values) is not list:
        raise TypeError(f"{name!r} must be an array of strings, "
                        f"not {json_kind(values)}")
    for value in values:
        if type(value) is not str:
            raise TypeError(f"{name!r} must be an array of strings, "
                            f"not one holding {json_kind(value)}")
    return values


def manifest_identity(manifest: dict[str, Any]) -> dict[str, Any]:
    """The subset of a manifest that defines run identity.

    ``run_id`` and timestamps may differ between the original run and
    its resumption; config, seed, and the trust-anchor digest may not.
    """
    return {key: manifest.get(key) for key in _IDENTITY_FIELDS}


def _event_identity(event: dict[str, Any]) -> tuple | None:
    """The event's :data:`_EVENT_IDENTITY` as one tuple (a list field as
    a tuple, so a list and a tuple key alike), or None."""
    names = _EVENT_IDENTITY.get(event["type"])
    if names is None:
        return None
    return (event["type"], *[tuple(value) if type(value) is list else value
                             for value in map(event.get, names)])


def is_chain_key(value: Any) -> bool:
    """True for a verdict's ``chain_key``: the fingerprints of the chain
    it judged, each 32 bytes in the 64 lowercase hex digits every
    lookup key is written in, which resume and the shard fold turn back
    into bytes.  The verdict store's replay holds its records' keys to
    the same rule."""
    if type(value) is not list:
        return False
    try:
        for fingerprint in value:
            if not (len(fingerprint) == 64
                    and bytes.fromhex(fingerprint).hex() == fingerprint):
                return False
    except (TypeError, ValueError):
        return False
    return True


def typed_number(section, name: str):
    """``section[name]`` when it is a JSON number (an integer or not, but
    not a boolean), else a :class:`TypeError` naming the field."""
    value = section[name]
    if type(value) is float or type(value) is int:
        return value
    raise TypeError(f"{name!r} must be a number, not {json_kind(value)}")


def _string_map(event, name):
    for value in typed(event, name, dict).values():
        if type(value) is not str:
            raise TypeError(f"{name!r} must map strings to strings, "
                            f"not to {json_kind(value)}")


def _fingerprints(event, name):
    if not is_chain_key(event[name]):
        raise TypeError(f"{name!r} is not a list of fingerprint hex strings")


def _evidence_records(event, name):
    # obs.evidence imports this module's type checks
    from repro.obs.evidence import evidence_from_dict

    for record in typed(event, name, list):
        try:
            evidence_from_dict(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise TypeError(f"{name!r} holds a record that is not evidence "
                            f"({type(exc).__name__}: {exc})") from None


#: Every event field a reader takes, by event type: (name, required,
#: exact JSON type or a check raising TypeError).  The identity fields
#: (:data:`_EVENT_IDENTITY`) are required, so every identity hashes.
_EVENT_FIELDS: dict[str, tuple[tuple[str, bool, Any], ...]] = {
    "manifest": (("run", False, str), ("cache", False, dict)),
    "scan": (("domain", True, str), ("vantage", True, str),
             ("success", False, bool), ("wire_bytes", False, int),
             ("attempts", False, int), ("duration", False, typed_number)),
    "degradation": (("vantage", True, str), ("reason", False, str)),
    "collection": (("domains", False, int), ("observations", False, int),
                   ("unique_chains", False, int),
                   ("unique_certificates", False, int),
                   ("degraded_vantages", False, _string_map)),
    "verdict": (("domain", True, str), ("chain_key", True, _fingerprints),
                ("report", True, dict)),
    "differential": (("domain", True, str),
                     ("chain_key", True, _fingerprints),
                     ("chain_length", False, int),
                     ("results", False, _string_map),
                     ("attribution", False, _evidence_records)),
    "shard": (("index", True, int), ("start", True, int),
              ("stop", True, int), ("observations", False, int)),
}

#: The refusal of a second event of one identity, by type.
_DUPLICATE = {
    "collection": "second collection summary (one-summary invariant)",
    "scan": "duplicate scan event for {domain!r} from vantage {vantage!r}",
    "degradation": "duplicate degradation event for vantage {vantage!r}",
    "verdict": "duplicate verdict for {domain!r} (chain already recorded)",
}


def _read(path: Path) -> tuple[dict[str, Any], list[dict[str, Any]], int]:
    """:func:`read_journal`, and ``clean_end``, which ends the last
    complete line: what follows is a torn tail, which the events leave
    out."""
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
    lines.reverse()  # popped from the end: each line is freed once parsed
    records: list[dict[str, Any]] = []
    problems: list[str] = []
    summarised = False
    seen: set[tuple] = set()
    number = 0
    while lines:
        line = lines.pop()
        number += 1
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise JournalError(
                f"{path}:{number}: malformed journal line: {exc}"
            ) from None
        if not (type(record) is dict and type(record.get("type")) is str):
            raise JournalError(
                f"{path}:{number}: journal records must be objects "
                f"with a 'type'"
            )
        records.append(record)
        kind = record["type"]
        fields = _EVENT_FIELDS.get(kind, ())
        sound = True
        for name, required, check in fields:
            if name not in record:
                if required:
                    problems.append(f"line {number}: {kind} event missing "
                                    f"{name!r}")
                    sound = False
            elif type(record[name]) is not check:
                try:
                    if type(check) is type:
                        typed(record, name, check)  # raises: another type
                    else:
                        check(record, name)
                except TypeError as exc:
                    problems.append(f"line {number}: {kind} {exc}")
                    sound = False
        if not sound:
            continue
        # The append-only discipline (plus resume dedup) keeps these in
        # every journal this package writes; a journal breaking one was
        # edited, interleaved or mis-merged.
        if summarised and kind in ("scan", "degradation"):
            problems.append(
                f"line {number}: {kind} event after the collection "
                f"summary (sequence not monotonic)"
            )
        summarised = summarised or kind == "collection"
        duplicate = _DUPLICATE.get(kind)
        if duplicate is not None:
            identity = _event_identity(record)
            if identity in seen:
                problems.append(f"line {number}: " + duplicate.format(
                    domain=record.get("domain"),
                    vantage=record.get("vantage")))
            seen.add(identity)
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
    if problems:
        shown = "; ".join(problems[:3])
        if len(problems) > 3:
            shown += f"; and {len(problems) - 3} more problem(s)"
        raise JournalError(f"{path}: corrupt journal: {shown}")
    return manifest, records[1:], clean_end


def read_journal(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read ``(manifest, events)`` from a journal file: the one read
    every journal reader, resume included, goes through.

    Tolerates a truncated final line (the crash case) by dropping it.
    Raises :class:`JournalError` if the file is empty, its first line is
    not a manifest of this :data:`JOURNAL_VERSION`, or an *interior*
    line is malformed, and, naming the first few lines at fault, on an
    event field a reader takes that is absent where required or of
    another JSON type (:data:`_EVENT_FIELDS`), a second ``collection``
    summary, a ``scan`` or ``degradation`` after it, or a second event
    of one :data:`_EVENT_IDENTITY` — damage resuming would turn into
    dropped or doubled observations.
    """
    return _read(Path(path))[:2]


class RunJournal:
    """One campaign's append-only event log.

    Create a fresh journal with :meth:`create`, or pick up where a
    crashed run stopped with :meth:`open` (which creates when the file
    does not exist, and otherwise resumes the file :func:`read_journal`
    accepts after verifying the manifest identity).  Events append with
    :meth:`record`; per-domain verdicts get the dedicated
    :meth:`record_verdict` / :meth:`verdict_for` pair that powers
    resume.  The instance holds no verdict it wrote, only
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

        Resuming reads the file as :func:`read_journal` does, refusing
        what it refuses, verifies :func:`manifest_identity` equality and
        raises :class:`JournalError` on mismatch — a journal from a
        different config/seed/root store must not silently absorb this
        run.
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
        self._append_line(encode_compact(record), record["type"])

    def _append_line(self, line: str, event_type: str) -> None:
        """Write one already-encoded record (no trailing newline)."""
        if self._handle is None:
            raise JournalError(f"{self.path}: journal is closed")
        self._handle.write(line + "\n")
        self._pending += 1
        if self._pending >= self.flush_every:
            self.flush()
        self._events_written += 1
        # the live registry, asked each time: obs.enable can swap it
        # mid-run, and a repeated lookup is one dictionary probe
        _active_registry().counter("journal.events", type=event_type).inc()

    def flush(self) -> None:
        """Push buffered records to the OS."""
        if self._handle is None or not self._pending:
            return
        self._handle.flush()
        self._pending = 0

    def record(self, event_type: str, **fields: Any) -> None:
        """Append one event — unless the resumed journal :meth:`holds`
        its identity; ``type`` is reserved for ``event_type``."""
        if not self.holds(event_type, **fields):
            self._append({"type": event_type, **fields})

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
        }

    def record_verdict(self, domain: str, chain_key: tuple[str, ...],
                       report_json: str) -> None:
        """Append one per-domain compliance verdict with its evidence —
        unless the file already holds a verdict for this (domain,
        chain), resumed or appended by this process.

        ``chain_key`` is the tuple of fingerprint hexes of the served
        chain — the same (domain, chain) identity the union merge uses —
        and ``report_json`` the report's ``to_json()`` text, which
        :func:`encode_verdict_event` frames.  Only the identity is kept:
        the line goes to the file, and the report stays with the caller.
        """
        key = (domain, tuple(chain_key))
        if key not in self._verdict_keys:
            self._append_line(
                encode_verdict_event(domain, chain_key, report_json),
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
