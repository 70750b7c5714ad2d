"""Persistent content-addressed verdict store for warm-start campaigns.

A longitudinal re-scan is dominated by chains that have not changed
since the last run, yet an analysis result held in process dies with
it, so every ``scan`` invocation would re-pay the full analyse cost.
:class:`VerdictStore` keeps the verdicts across runs: a crash-safe,
append-only store that persists

* compliance reports, content-addressed on
  ``(chain_key, root_store_digest, schema_version)`` — the same
  byte-identical chain evaluated against the same trust anchors always
  yields the same R2/R3 verdicts, and a cross-domain hit only needs the
  R1 leaf classification rebound in process
  (:func:`~repro.core.compliance.rebind_for_domain`); and
* differential client outcomes, keyed on
  ``(domain, chain_key, capability_digest)`` — client validation is
  name-sensitive end to end, and the capability digest pins every
  client policy field, per-client root store, and AIA capability the
  outcome depended on.

Storage format
--------------

``meta.json`` names the store (format marker, store id, schema
version); ``segments/NNNNNN.seg`` files hold one JSON record per line,
encoded with the report codec the journal already pins byte-identical
(:meth:`~repro.core.compliance.ChainComplianceReport.to_json` /
:class:`~repro.core.compliance.ReportTable`).  Writes append to the highest-numbered segment and a
full segment is sealed (fsync) before the next one starts; compaction
writes the live records to a temp file, fsyncs, and atomically renames
it into place before unlinking the old segments — a crash at any point
leaves either the old segments or old + compacted, and replay is
idempotent (later records supersede earlier ones).

Opening a store replays every segment into an in-memory index,
decoding each record as it indexes the line: a report becomes its
:class:`~repro.core.compliance.ChainComplianceReport`, an outcome a
checked ``{"chain_length", "results"}`` dict, so the index holds one
value type per record kind and a hit is a dictionary lookup.  One
:class:`~repro.core.compliance.ReportTable` decodes a whole replay and
encodes every report the store writes after it, so equal report
sections are one object, replayed or written, and equal key strings
one string; it keeps each section's text, from which
:meth:`VerdictStore.report_json` assembles a served report's.  A torn
*final* record (the crash left a partial line) is truncated away and
counted as a recovery; other damage, and a live record that does not
decode, raises :class:`~repro.errors.StoreError` naming the file or
the chain, as :func:`check_store` (which shares the reader) reports
it.  Records written under a different :data:`SCHEMA_VERSION` are
skipped (counted stale) and dropped by :meth:`VerdictStore.compact`.
Only live records count: a stale record, or one a later record
supersedes, is never refused for its payload.

Concurrency model: all reads and writes go through the opening
process, its single writer appending every record — there are no
multi-process write races by construction.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.core.compliance import ChainComplianceReport, ReportTable
from repro.errors import PayloadError, StoreError
from repro.obs.journal import encode_compact, encode_str_array, is_chain_key

__all__ = [
    "SCHEMA_VERSION",
    "StoreCheck",
    "VerdictStore",
    "check_store",
]

_log = obs.get_logger("measurement.store")

#: Version of the record layout *and* of the analysis semantics the
#: stored verdicts embody.  Bump it whenever either changes: records
#: carrying another version are ignored on open and dropped by
#: ``compact()``, so a store can never serve verdicts computed under
#: different rules.
SCHEMA_VERSION = 1

_FORMAT = "repro-verdict-store"
_STORE_VERSION = 1
_META = "meta.json"
_SEGMENTS = "segments"
_SEGMENT_SUFFIX = ".seg"

#: Default rotation threshold.  Small enough that compaction and
#: recovery touch bounded files, large enough that a reference
#: campaign fits in a handful of segments.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: A chain identity in its journal form: fingerprint hex strings.
HexKey = tuple[str, ...]


def _timed(method):
    """Accumulate the method's wall time into ``self.op_seconds``.

    The per-operation store cost is the number the cold-overhead gate
    is about; accounting for it directly is stable where differencing
    two whole-run wall clocks on a shared runner is not.
    """
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return method(self, *args, **kwargs)
        finally:
            self.op_seconds += time.perf_counter() - start
    return wrapper


def _encode_report_line(key_hex: HexKey, digest: str,
                        report_json: str) -> bytes:
    # the digest is hex, so raw interpolation is safe; the chain key is
    # framed as the journal frames it, and the report payload reuses the
    # byte-pinned to_json codec.
    return ('{"kind":"report","schema":%d,"digest":"%s","chain_key":%s,'
            '"report":%s}\n'
            % (SCHEMA_VERSION, digest, encode_str_array(key_hex), report_json)
            ).encode("utf-8")


def _encode_outcome_line(domain: str, key_hex: HexKey, digest: str,
                         chain_length: int, results: dict[str, str]) -> bytes:
    payload = {
        "kind": "outcome",
        "schema": SCHEMA_VERSION,
        "domain": domain,
        "digest": digest,
        "chain_key": list(key_hex),
        "chain_length": chain_length,
        "results": results,
    }
    return (encode_compact(payload) + "\n").encode("utf-8")


def _replace_file(path: Path, chunks) -> None:
    """Write ``chunks`` (bytes) to a sibling temp file, fsync it and
    rename it over ``path``: a crash leaves the old file or the new
    one, plus at most a ``*.tmp`` leftover."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.writelines(chunks)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _segment_files(root: Path, pattern: str = "*" + _SEGMENT_SUFFIX
                   ) -> list[Path]:
    """The segments (or, ``pattern="*.tmp"``, compaction leftovers)."""
    return sorted((root / _SEGMENTS).glob(pattern))


def _read_meta(root: Path) -> dict | None:
    """The store's checked ``meta.json``; None when ``root`` holds no
    store yet (no ``meta.json`` and no segment).  Raises
    :class:`StoreError` naming ``meta.json`` when it is unreadable, not
    a verdict store's, of another store version, or missing beside
    segments."""
    try:
        meta = json.loads((root / _META).read_bytes())
    except FileNotFoundError:
        if _segment_files(root):
            raise StoreError(
                f"{_META}: missing, but {_SEGMENTS}/ holds "
                f"{len(_segment_files(root))} segment(s)"
            ) from None
        return None
    except OSError as exc:
        raise StoreError(f"{_META}: unreadable ({exc})") from None
    except ValueError as exc:
        raise StoreError(f"{_META}: not valid JSON ({exc})") from None
    if not isinstance(meta, dict) or meta.get("format") != _FORMAT:
        found = meta.get("format") if isinstance(meta, dict) else meta
        raise StoreError(f"{_META}: not a verdict store (format {found!r})")
    if meta.get("store_version") != _STORE_VERSION:
        raise StoreError(f"{_META}: unsupported store version "
                         f"{meta.get('store_version')!r}")
    return meta


def _replay_segment(segment: Path, table: ReportTable, reports: dict,
                    outcomes: dict, undecodable: dict
                    ) -> tuple[int, int | None, int, int]:
    """Index one segment's records, decoded, into ``reports`` and
    ``outcomes``.

    ``table`` is the replay's one :class:`ReportTable`: it decodes every
    report, sharing the sections that repeat across records, and
    interns the index keys' strings (the digest, identical in every
    record, and the chain-key fingerprints).  A live record's key is
    held to :func:`_key_problem`: its ``chain_key`` to the rule the
    journal reader holds verdicts to, its ``digest`` (and an outcome's
    ``domain``) to be a string.

    A record whose payload does not decode leaves the index and puts
    its refusal in ``undecodable`` under ``(kind, key)``, until a later
    record of that key replaces it.  Returns ``(size, torn_at, stale,
    superseded)``: ``torn_at`` is the byte offset of a torn final
    record (missing newline, or a final line that does not parse),
    else None; ``stale`` counts records of another schema version or
    kind, ``superseded`` those that replaced an earlier record.  Damage
    before the final record, and a record missing a field or with a
    malformed key, raise :class:`StoreError` naming the segment.
    """
    data = segment.read_bytes()
    name = f"{_SEGMENTS}/{segment.name}"
    intern = table.intern
    stale = superseded = 0
    offset = 0
    lines = data.split(b"\n")
    last = len(lines) - 1
    for index, raw in enumerate(lines):
        if index == last:
            # data ending with a newline leaves one empty trailer;
            # anything else is a partial record from a mid-write crash
            return len(data), (offset if raw else None), stale, superseded
        try:
            record = json.loads(raw)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
        except (ValueError, RecursionError) as exc:
            if index == last - 1 and not lines[last]:
                # unparseable *final* complete line: torn tail too
                return len(data), offset, stale, superseded
            raise StoreError(
                f"{name}: corrupt record at byte {offset}: {exc}"
            ) from None
        try:
            kind = record.get("kind")
            if record.get("schema") != SCHEMA_VERSION:
                stale += 1
            elif kind not in ("report", "outcome"):
                stale += 1  # a kind from a newer writer: skippable
            else:
                problem = _key_problem(kind, record)
                if problem is not None:
                    raise StoreError(f"{name}: record at byte {offset} has "
                                     f"a malformed key ({problem})")
                chain = tuple(map(intern, record["chain_key"]))
                digest = intern(record["digest"])
                if kind == "report":
                    superseded += _index("report", (chain, digest),
                                         record["report"], table, reports,
                                         undecodable)
                else:
                    superseded += _index(
                        "outcome", (record["domain"], chain, digest),
                        {"chain_length": record["chain_length"],
                         "results": record["results"]},
                        table, outcomes, undecodable)
        except KeyError as exc:
            raise StoreError(f"{name}: record at byte {offset} is missing "
                             f"field {exc}") from None
        offset += len(raw) + 1
    return len(data), None, stale, superseded


def _key_problem(kind: str, record: dict) -> str | None:
    """Why a live record's key cannot key the index, or None: its
    ``chain_key`` must pass the journal reader's rule
    (:func:`~repro.obs.journal.is_chain_key`), and its ``digest`` (and
    an outcome's ``domain``) be a string, as every lookup's is."""
    if not is_chain_key(record["chain_key"]):
        return "chain_key is not a list of fingerprint hex strings"
    for name in ("domain", "digest") if kind == "outcome" else ("digest",):
        if type(record[name]) is not str:
            return f"{name} is not a string"
    return None


def _index(kind: str, key: tuple, payload, table: ReportTable,
           entries: dict, undecodable: dict) -> bool:
    """Decode one live record's ``payload`` into ``entries[key]`` — a
    report into its object through ``table``, an outcome checked for an
    integer ``chain_length`` and ``results`` mapping client names to
    labels — or, when it does not decode, its refusal naming the chain
    into ``undecodable``.  True when it superseded an earlier record of
    ``key``."""
    superseded = key in entries or (kind, key) in undecodable
    try:
        if kind == "report":
            entries[key] = table.decode(payload)
        else:
            results = payload["results"]
            if not (type(payload["chain_length"]) is int
                    and type(results) is dict
                    and all(type(label) is str
                            for label in results.values())):
                raise PayloadError("outcome payload does not decode")
            entries[key] = payload
    except PayloadError as exc:
        entries.pop(key, None)
        chain = key[0] if kind == "report" else key[1]
        undecodable[kind, key] = (f"stored {kind} for chain "
                                  f"{encode_str_array(chain)}: {exc}")
    else:
        undecodable.pop((kind, key), None)
    return superseded


@dataclass
class StoreCheck:
    """Read-only health report over a store directory.

    Produced by :func:`check_store`, which never repairs anything —
    unlike opening the store, which truncates torn tails and removes
    compaction leftovers.  ``cache verify`` renders this.
    """

    path: str
    ok: bool = True
    #: False when ``meta.json`` was refused or absent: not a store
    is_store: bool = False
    store_id: str = ""
    segments: int = 0
    disk_bytes: int = 0
    reports: int = 0
    outcomes: int = 0
    stale_records: int = 0
    superseded_records: int = 0
    problems: list[str] = field(default_factory=list)


def check_store(path) -> StoreCheck:
    """Verify a store directory without opening (and thus repairing) it.

    Reads it through the opener's functions, so whatever the opener
    refuses is listed in the words of the refusal; so are torn segment
    tails and compaction leftovers (the last writer did not shut down
    cleanly; a plain reopen repairs both) and every live report or
    outcome that does not decode, which the opener refuses too.  Stale
    and superseded records are counted.
    """
    root = Path(path)
    check = StoreCheck(path=str(root))
    try:
        meta = _read_meta(root)
        if meta is None:
            raise StoreError(f"{_META}: missing (not a verdict store)")
    except StoreError as exc:
        check.ok = False
        check.problems.append(str(exc))
        return check
    check.is_store = True
    check.store_id = str(meta.get("store_id", ""))
    for leftover in _segment_files(root, "*.tmp"):
        check.problems.append(
            f"{_SEGMENTS}/{leftover.name}: interrupted compaction "
            f"leftover (reopening the store removes it)"
        )
    table = ReportTable()
    reports: dict = {}
    outcomes: dict = {}
    undecodable: dict[tuple, str] = {}
    for segment in _segment_files(root):
        check.segments += 1
        try:
            size, torn_at, stale, superseded = _replay_segment(
                segment, table, reports, outcomes, undecodable
            )
        except StoreError as exc:
            check.problems.append(str(exc))
            continue
        check.disk_bytes += size
        check.stale_records += stale
        check.superseded_records += superseded
        if torn_at is not None:
            check.problems.append(
                f"{_SEGMENTS}/{segment.name}: torn final record at "
                f"byte {torn_at} ({size - torn_at} trailing bytes; "
                f"reopening the store truncates it)"
            )
    kinds = [kind for kind, _ in undecodable]
    check.reports = len(reports) + kinds.count("report")
    check.outcomes = len(outcomes) + kinds.count("outcome")
    check.problems.extend(undecodable.values())
    check.ok = not check.problems
    return check


class VerdictStore:
    """A crash-safe on-disk verdict store rooted at ``path``.

    Creating the instance opens (or initialises) the store: segments
    are replayed into the in-memory index, every live record decoded,
    torn tails truncated, and interrupted-compaction leftovers
    removed; other damage, and a live record that does not decode, is
    refused as :func:`check_store` reports it.  All methods run in the opening
    process — see the module docstring's concurrency model.
    """

    def __init__(self, path, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        self.path = Path(path)
        self.segment_bytes = segment_bytes
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: wall seconds spent inside store operations (probes, puts,
        #: flushes) — the campaign-visible cost of having a store
        self.op_seconds = 0.0
        #: torn final records truncated away on open
        self.recovered_records = 0
        #: interrupted-compaction temp files removed on open
        self.removed_tmp = 0
        #: records skipped on replay for carrying another schema version
        self.stale_records = 0
        #: replayed records that overwrote an earlier index entry
        self.superseded_records = 0
        # index values, replayed or written by this process alike:
        # report objects, and checked outcome dicts
        self._reports: dict[tuple[HexKey, str], ChainComplianceReport] = {}
        #: decodes the replay and encodes every write, so an equal
        #: report section is one object in the whole index
        self._table = ReportTable()
        self._outcomes: dict[tuple[str, HexKey, str], dict] = {}
        self._segments: list[Path] = []
        self._handle = None
        self._active_bytes = 0
        self._meta: dict = {}
        try:
            self._open()
        except (OSError, StoreError) as exc:
            raise StoreError(f"{self.path}: {exc}") from None

    # -- lifecycle -----------------------------------------------------

    @property
    def _segments_dir(self) -> Path:
        return self.path / _SEGMENTS

    def _open(self) -> None:
        meta = _read_meta(self.path)
        self._segments_dir.mkdir(parents=True, exist_ok=True)
        if meta is None:
            meta = {
                "format": _FORMAT,
                "store_version": _STORE_VERSION,
                "schema_version": SCHEMA_VERSION,
                "store_id": os.urandom(8).hex(),
            }
            _replace_file(self.path / _META, [
                (json.dumps(meta, sort_keys=True) + "\n").encode("utf-8")
            ])
        self._meta = meta
        for leftover in _segment_files(self.path, "*.tmp"):
            leftover.unlink()
            self.removed_tmp += 1
        self._segments = _segment_files(self.path)
        undecodable: dict[tuple, str] = {}
        for segment in self._segments:
            size, torn_at, stale, superseded = _replay_segment(
                segment, self._table, self._reports, self._outcomes,
                undecodable
            )
            self.stale_records += stale
            self.superseded_records += superseded
            if torn_at is not None:
                with open(segment, "r+b") as handle:
                    handle.truncate(torn_at)
                    handle.flush()
                    os.fsync(handle.fileno())
                self.recovered_records += 1
                _log.warning("store.recovered_tail", segment=segment.name,
                             truncated_at=torn_at,
                             dropped_bytes=size - torn_at)
        self._table.end_decode()
        if undecodable:
            raise StoreError(next(iter(undecodable.values())))
        if self.removed_tmp or self.recovered_records:
            obs.get_metrics().counter("store.recovered").inc(
                self.removed_tmp + self.recovered_records
            )
        if not self._segments:
            self._segments = [self._segments_dir
                              / f"{1:06d}{_SEGMENT_SUFFIX}"]
        active = self._segments[-1]
        self._handle = open(active, "ab")
        self._active_bytes = active.stat().st_size
        _log.info("store.opened", path=str(self.path),
                  segments=len(self._segments),
                  reports=len(self._reports),
                  outcomes=len(self._outcomes),
                  recovered=self.recovered_records,
                  stale=self.stale_records)

    def close(self) -> None:
        """Flush and seal the active segment; further writes raise."""
        if self._handle is not None:
            self.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the append path ----------------------------------------------

    def _append(self, line: bytes) -> None:
        if self._handle is None:
            raise StoreError(f"{self.path}: store is closed")
        self._handle.write(line)
        self._active_bytes += len(line)
        if self._active_bytes >= self.segment_bytes:
            self._rotate()

    @_timed
    def flush(self) -> None:
        """Push the lines ``put_*`` appended to the active segment's
        buffered handle to the OS.  Lines still buffered are lost on a
        crash — like a torn final record, their verdicts are recomputed
        on the next run; the store itself stays replayable."""
        if self._handle is not None:
            self._handle.flush()

    def _segment_number(self, segment: Path) -> int:
        return int(segment.name[: -len(_SEGMENT_SUFFIX)])

    def _rotate(self) -> None:
        """Seal the active segment durably and start the next one."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        nxt = self._segment_number(self._segments[-1]) + 1
        active = self._segments_dir / f"{nxt:06d}{_SEGMENT_SUFFIX}"
        self._segments.append(active)
        self._handle = open(active, "ab")
        self._active_bytes = 0
        _log.info("store.rotated", segment=active.name,
                  segments=len(self._segments))

    # -- compliance reports -------------------------------------------

    @_timed
    def get_report(self, key_hex: HexKey,
                   digest: str) -> ChainComplianceReport | None:
        """The stored report for ``(chain, trust anchors)``, if any."""
        report = self._reports.get((tuple(key_hex), digest))
        metrics = obs.get_metrics()
        if report is None:
            self.misses += 1
            metrics.counter("store.misses", kind="report").inc()
            return None
        self.hits += 1
        metrics.counter("store.hits", kind="report").inc()
        return report

    @_timed
    def put_report(self, key_hex: HexKey, digest: str,
                   report: ChainComplianceReport
                   ) -> tuple[ChainComplianceReport, str] | None:
        """Persist a report; return the one the index now holds and its
        ``to_json`` text, or None (a no-op) when already stored.

        The store's :class:`ReportTable` encodes the report, so the
        index holds it rebuilt on the sections it already holds (the
        report itself when its sections are new), and equal sections
        are one object for written and replayed records alike; callers
        keep the returned report, and may frame the text again (the
        journal does).  The record's line goes to the active segment's
        buffered handle at once; it reaches the OS at the next
        :meth:`flush` (or when the buffer fills) and disk at
        :meth:`close` or rotation.
        """
        key = (tuple(key_hex), digest)
        if key in self._reports:
            return None
        report, text = self._table.encode(report)
        self._append(_encode_report_line(key[0], digest, text))
        self._reports[key] = report
        self.writes += 1
        obs.get_metrics().counter("store.writes", kind="report").inc()
        return report, text

    def report_json(self, report: ChainComplianceReport) -> str:
        """``report``'s :meth:`~repro.core.compliance.ChainComplianceReport.to_json`
        text, each section the index holds served from the text the
        store's :class:`ReportTable` keeps for it (see
        :meth:`ReportTable.text`): a served report costs lookups, and
        only a section the store does not hold (a leaf re-bound to
        another domain) is encoded."""
        return self._table.text(report)

    # -- differential outcomes ----------------------------------------

    @_timed
    def get_outcome(self, domain: str, key_hex: HexKey,
                    capability_digest: str) -> dict | None:
        """The stored outcome payload ``{"chain_length", "results"}``.

        The caller owns reconstruction into a
        :class:`~repro.chainbuilder.differential.ChainOutcome`; the
        store checked the payload's shape when it indexed the record
        (:func:`_index`).  Treat the returned dict as read-only.
        """
        value = self._outcomes.get((domain, tuple(key_hex),
                                    capability_digest))
        metrics = obs.get_metrics()
        if value is None:
            self.misses += 1
            metrics.counter("store.misses", kind="outcome").inc()
            return None
        self.hits += 1
        metrics.counter("store.hits", kind="outcome").inc()
        return value

    @_timed
    def put_outcome(self, domain: str, key_hex: HexKey,
                    capability_digest: str, *, chain_length: int,
                    results: dict[str, str]) -> bool:
        """Persist one client-outcome row; no-op when already stored.

        Appended like :meth:`put_report`.
        """
        key = (domain, tuple(key_hex), capability_digest)
        if key in self._outcomes:
            return False
        results = dict(results)
        self._append(_encode_outcome_line(
            domain, key[1], capability_digest, chain_length, results
        ))
        self._outcomes[key] = {
            "chain_length": chain_length, "results": results,
        }
        self.writes += 1
        obs.get_metrics().counter("store.writes", kind="outcome").inc()
        return True

    # -- maintenance ---------------------------------------------------

    def compact(self) -> dict:
        """Drop superseded and version-mismatched records.

        Live records are written to ``segments/<next>.seg.tmp``,
        fsynced, atomically renamed into place, and only then are the
        old segments unlinked — a crash at any point leaves a replayable
        store (replay is idempotent, later records supersede earlier
        ones).  Returns a summary dict for logs and the CLI.
        """
        if self._handle is None:
            raise StoreError(f"{self.path}: store is closed")
        before = len(self._segments)
        dropped = self.stale_records + self.superseded_records
        self.close()
        nxt = self._segment_number(self._segments[-1]) + 1
        target = self._segments_dir / f"{nxt:06d}{_SEGMENT_SUFFIX}"

        def lines():
            for (key_hex, digest), report in self._reports.items():
                yield _encode_report_line(key_hex, digest, report.to_json())
            for (domain, key_hex, digest), value in self._outcomes.items():
                yield _encode_outcome_line(domain, key_hex, digest,
                                           value["chain_length"],
                                           value["results"])

        _replace_file(target, lines())
        for segment in self._segments:
            segment.unlink()
        self._segments = [target]
        self.stale_records = 0
        self.superseded_records = 0
        self._handle = open(target, "ab")
        self._active_bytes = target.stat().st_size
        kept = len(self._reports) + len(self._outcomes)
        _log.info("store.compacted", segments_before=before,
                  kept=kept, dropped=dropped)
        return {
            "segments_before": before,
            "segments_after": 1,
            "kept": kept,
            "dropped": dropped,
        }

    # -- provenance / stats -------------------------------------------

    def identity(self) -> dict:
        """What a run manifest records about the cache it consulted.

        Deliberately location-free (no path): moving or copying the
        store directory must not change a journal's identity, and the
        schema version says which analysis semantics the stored
        verdicts embody.
        """
        return {
            "store_id": str(self._meta.get("store_id", "")),
            "schema_version": SCHEMA_VERSION,
        }

    def stats(self) -> dict:
        """Counts for logs, the CLI stats line, and benches."""
        self.flush()  # disk figures must include the buffered lines
        disk = sum(
            segment.stat().st_size
            for segment in self._segments if segment.exists()
        )
        return {
            "path": str(self.path),
            "store_id": str(self._meta.get("store_id", "")),
            "schema_version": SCHEMA_VERSION,
            "segments": len(self._segments),
            "disk_bytes": disk,
            "reports": len(self._reports),
            "outcomes": len(self._outcomes),
            "stale_records": self.stale_records,
            "superseded_records": self.superseded_records,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "op_seconds": round(self.op_seconds, 6),
            "recovered_records": self.recovered_records,
            "removed_tmp": self.removed_tmp,
        }

    def __len__(self) -> int:
        return len(self._reports) + len(self._outcomes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VerdictStore({str(self.path)!r}, "
                f"reports={len(self._reports)}, "
                f"outcomes={len(self._outcomes)})")
