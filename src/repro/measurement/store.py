"""Persistent content-addressed verdict store for warm-start campaigns.

A longitudinal re-scan is dominated by chains that have not changed
since the last run, yet the in-process
:class:`~repro.measurement.parallel.VerdictCache` dies with the
process, so every ``scan`` invocation re-pays the full analyse cost.
:class:`VerdictStore` is the on-disk half of that cache: a crash-safe,
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
``from_dict``).  Writes append to the highest-numbered segment and a
full segment is sealed (fsync) before the next one starts; compaction
writes the live records to a temp file, fsyncs, and atomically renames
it into place before unlinking the old segments — a crash at any point
leaves either the old segments or old + compacted, and replay is
idempotent (later records supersede earlier ones).

Opening a store replays every segment into an in-memory index.  A torn
*final* record (the crash left a partial line) is truncated away and
counted as a recovery; interior damage raises
:class:`~repro.errors.StoreError`.  Records written under a different
:data:`SCHEMA_VERSION` are skipped (counted stale) and dropped by
:meth:`VerdictStore.compact`.  Report payloads stay as parsed JSON in
the index and are decoded lazily on first hit, so a warm open is a
line scan, not a full object materialisation.

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
from repro.core.compliance import ChainComplianceReport
from repro.errors import StoreError

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


def _encode_key(key_hex: HexKey) -> str:
    return json.dumps(list(key_hex), separators=(",", ":"))


def _encode_report_line(key_hex: HexKey, digest: str,
                        report_json: str) -> str:
    # digest and fingerprints are hex, so raw interpolation is safe;
    # the report payload reuses the byte-pinned to_json codec.
    return ('{"kind":"report","schema":%d,"digest":"%s","chain_key":%s,'
            '"report":%s}'
            % (SCHEMA_VERSION, digest, _encode_key(key_hex), report_json))


def _encode_outcome_line(domain: str, key_hex: HexKey, digest: str,
                         chain_length: int, results: dict[str, str]) -> str:
    payload = {
        "kind": "outcome",
        "schema": SCHEMA_VERSION,
        "domain": domain,
        "digest": digest,
        "chain_key": list(key_hex),
        "chain_length": chain_length,
        "results": results,
    }
    return json.dumps(payload, separators=(",", ":"))


def _scan_segment(data: bytes):
    """Split one segment into ``(records, torn_at)``.

    ``records`` are the parsed JSON objects of every complete,
    decodable line; ``torn_at`` is the byte offset of a torn final
    record (missing newline, or a final line that does not decode) or
    None when the segment is clean.  Damage *before* the final record
    is not recoverable truncation — the caller raises.
    """
    records: list[dict] = []
    offset = 0
    lines = data.split(b"\n")
    last = len(lines) - 1
    for index, raw in enumerate(lines):
        if index == last:
            # data ending with a newline leaves one empty trailer;
            # anything else is a partial record from a mid-write crash
            return records, (offset if raw else None)
        try:
            record = json.loads(raw)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
        except ValueError as exc:
            if index == last - 1 and not lines[last]:
                # undecodable *final* complete line: torn tail too
                return records, offset
            raise StoreError(
                f"corrupt record at byte {offset}: {exc}"
            ) from None
        records.append(record)
        offset += len(raw) + 1
    return records, None


@dataclass
class StoreCheck:
    """Read-only health report over a store directory.

    Produced by :func:`check_store`, which never repairs anything —
    unlike opening the store, which truncates torn tails and removes
    compaction leftovers.  ``cache verify`` renders this.
    """

    path: str
    ok: bool = True
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

    Reports torn segment tails, leftover compaction temp files, stale
    (version-mismatched) records, and superseded duplicates.  Torn
    tails and temp leftovers are listed as problems (``ok`` False)
    because they mean the last writer did not shut down cleanly; a
    plain reopen repairs both.
    """
    root = Path(path)
    check = StoreCheck(path=str(root))
    meta_path = root / _META
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except OSError as exc:
        check.ok = False
        check.problems.append(f"{_META}: unreadable ({exc})")
        return check
    except ValueError as exc:
        check.ok = False
        check.problems.append(f"{_META}: not valid JSON ({exc})")
        return check
    if meta.get("format") != _FORMAT:
        check.ok = False
        check.problems.append(
            f"{_META}: not a verdict store (format "
            f"{meta.get('format')!r})"
        )
        return check
    check.store_id = str(meta.get("store_id", ""))
    segments_dir = root / _SEGMENTS
    reports: set[tuple] = set()
    outcomes: set[tuple] = set()
    for leftover in sorted(segments_dir.glob("*.tmp")):
        check.ok = False
        check.problems.append(
            f"{_SEGMENTS}/{leftover.name}: interrupted compaction "
            f"leftover (reopening the store removes it)"
        )
    for segment in sorted(segments_dir.glob("*" + _SEGMENT_SUFFIX)):
        check.segments += 1
        data = segment.read_bytes()
        check.disk_bytes += len(data)
        try:
            records, torn_at = _scan_segment(data)
        except StoreError as exc:
            check.ok = False
            check.problems.append(f"{_SEGMENTS}/{segment.name}: {exc}")
            continue
        if torn_at is not None:
            check.ok = False
            check.problems.append(
                f"{_SEGMENTS}/{segment.name}: torn final record at "
                f"byte {torn_at} ({len(data) - torn_at} trailing "
                f"bytes; reopening the store truncates it)"
            )
        for record in records:
            if record.get("schema") != SCHEMA_VERSION:
                check.stale_records += 1
                continue
            kind = record.get("kind")
            if kind == "report":
                key = (tuple(record.get("chain_key") or ()),
                       record.get("digest"))
                bucket = reports
            elif kind == "outcome":
                key = (record.get("domain"),
                       tuple(record.get("chain_key") or ()),
                       record.get("digest"))
                bucket = outcomes
            else:
                check.stale_records += 1
                continue
            if key in bucket:
                check.superseded_records += 1
            bucket.add(key)
    check.reports = len(reports)
    check.outcomes = len(outcomes)
    return check


class VerdictStore:
    """A crash-safe on-disk verdict store rooted at ``path``.

    Creating the instance opens (or initialises) the store: segments
    are replayed into the in-memory index, torn tails truncated, and
    interrupted-compaction leftovers removed.  All methods run in the
    opening process — see the module docstring's concurrency model.
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
        # index values: a parsed JSON payload dict (replayed entries,
        # decoded lazily on first hit) or a live report object (entries
        # written by this process)
        self._reports: dict[tuple[HexKey, str], object] = {}
        self._outcomes: dict[tuple[str, HexKey, str], dict] = {}
        # write-behind queue: records accepted by put_* but not yet
        # encoded/appended; drained by flush()/close()/stats()/compact()
        self._pending: list[tuple] = []
        self._segments: list[Path] = []
        self._handle = None
        self._active_bytes = 0
        self._meta: dict = {}
        self._open()

    # -- lifecycle -----------------------------------------------------

    @property
    def _segments_dir(self) -> Path:
        return self.path / _SEGMENTS

    def _open(self) -> None:
        self._segments_dir.mkdir(parents=True, exist_ok=True)
        meta_path = self.path / _META
        if meta_path.exists():
            try:
                self._meta = json.loads(meta_path.read_text(
                    encoding="utf-8"))
            except ValueError as exc:
                raise StoreError(
                    f"{meta_path}: not valid JSON ({exc})") from None
            if self._meta.get("format") != _FORMAT:
                raise StoreError(
                    f"{meta_path}: not a verdict store (format "
                    f"{self._meta.get('format')!r})"
                )
            if self._meta.get("store_version") != _STORE_VERSION:
                raise StoreError(
                    f"{meta_path}: unsupported store version "
                    f"{self._meta.get('store_version')!r}"
                )
        else:
            self._meta = {
                "format": _FORMAT,
                "store_version": _STORE_VERSION,
                "schema_version": SCHEMA_VERSION,
                "store_id": os.urandom(8).hex(),
            }
            tmp = meta_path.with_name(_META + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self._meta, handle, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, meta_path)
        for leftover in sorted(self._segments_dir.glob("*.tmp")):
            leftover.unlink()
            self.removed_tmp += 1
        self._segments = sorted(
            self._segments_dir.glob("*" + _SEGMENT_SUFFIX)
        )
        for segment in self._segments:
            self._replay_segment(segment)
        if self.removed_tmp or self.recovered_records:
            obs.get_metrics().counter("store.recovered").inc(
                self.removed_tmp + self.recovered_records
            )
        if not self._segments:
            self._segments = [self._segments_dir
                              / f"{1:06d}{_SEGMENT_SUFFIX}"]
        active = self._segments[-1]
        self._handle = open(active, "ab")
        self._active_bytes = active.stat().st_size if active.exists() else 0
        _log.info("store.opened", path=str(self.path),
                  segments=len(self._segments),
                  reports=len(self._reports),
                  outcomes=len(self._outcomes),
                  recovered=self.recovered_records,
                  stale=self.stale_records)

    def _replay_segment(self, segment: Path) -> None:
        data = segment.read_bytes()
        try:
            records, torn_at = _scan_segment(data)
        except StoreError as exc:
            raise StoreError(f"{segment}: {exc}") from None
        if torn_at is not None:
            with open(segment, "r+b") as handle:
                handle.truncate(torn_at)
                handle.flush()
                os.fsync(handle.fileno())
            self.recovered_records += 1
            _log.warning("store.recovered_tail", segment=segment.name,
                         truncated_at=torn_at,
                         dropped_bytes=len(data) - torn_at)
        for record in records:
            self._index(record)

    def _index(self, record: dict) -> None:
        if record.get("schema") != SCHEMA_VERSION:
            self.stale_records += 1
            return
        kind = record.get("kind")
        try:
            if kind == "report":
                key = (tuple(record["chain_key"]), record["digest"])
                if key in self._reports:
                    self.superseded_records += 1
                self._reports[key] = record["report"]
            elif kind == "outcome":
                key = (record["domain"], tuple(record["chain_key"]),
                       record["digest"])
                if key in self._outcomes:
                    self.superseded_records += 1
                self._outcomes[key] = {
                    "chain_length": record["chain_length"],
                    "results": record["results"],
                }
            else:
                # unknown kinds from a newer writer: skippable, like a
                # schema mismatch
                self.stale_records += 1
        except KeyError as exc:
            raise StoreError(
                f"record is missing field {exc}") from None

    def close(self) -> None:
        """Flush and seal the active segment; further writes raise."""
        if self._handle is not None:
            self.flush()
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the append path ----------------------------------------------

    def _append(self, line: str) -> None:
        if self._handle is None:
            raise StoreError(f"{self.path}: store is closed")
        payload = (line + "\n").encode("utf-8")
        self._handle.write(payload)
        self._active_bytes += len(payload)
        if self._active_bytes >= self.segment_bytes:
            self._rotate()

    @_timed
    def flush(self) -> None:
        """Drain the write-behind queue to the active segment.

        ``put_report``/``put_outcome`` only index in memory and queue
        the record; the encode-and-append cost is paid here, in one
        batch, off the campaign's hot loop.  Records queued but not yet
        flushed are lost on a crash — exactly like a torn final record,
        the affected verdicts are recomputed on the next run; the store
        itself stays replayable.
        """
        if not self._pending:
            if self._handle is not None:
                self._handle.flush()
            return
        if self._handle is None:
            raise StoreError(f"{self.path}: store is closed")
        for entry in self._pending:
            if entry[0] == "report":
                _, key_hex, digest, report = entry
                self._append(_encode_report_line(
                    key_hex, digest, report.to_json()
                ))
            else:
                _, domain, key_hex, digest, chain_length, results = entry
                self._append(_encode_outcome_line(
                    domain, key_hex, digest, chain_length, results
                ))
        self._pending.clear()
        if self._handle is not None:  # _rotate may have swapped handles
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
        value = self._reports.get((tuple(key_hex), digest))
        metrics = obs.get_metrics()
        if value is None:
            self.misses += 1
            metrics.counter("store.misses", kind="report").inc()
            return None
        self.hits += 1
        metrics.counter("store.hits", kind="report").inc()
        if isinstance(value, ChainComplianceReport):
            return value
        return ChainComplianceReport.from_dict(value)

    @_timed
    def put_report(self, key_hex: HexKey, digest: str,
                   report: ChainComplianceReport) -> bool:
        """Persist a report; a no-op (False) when already stored.

        The record is queued write-behind: it is readable immediately
        (in-memory index) but reaches disk at the next
        :meth:`flush`/:meth:`close`.
        """
        if self._handle is None:
            raise StoreError(f"{self.path}: store is closed")
        key = (tuple(key_hex), digest)
        if key in self._reports:
            return False
        self._pending.append(("report", key[0], digest, report))
        self._reports[key] = report
        self.writes += 1
        obs.get_metrics().counter("store.writes", kind="report").inc()
        return True

    # -- differential outcomes ----------------------------------------

    @_timed
    def get_outcome(self, domain: str, key_hex: HexKey,
                    capability_digest: str) -> dict | None:
        """The stored outcome payload ``{"chain_length", "results"}``.

        The caller owns reconstruction into a
        :class:`~repro.chainbuilder.differential.ChainOutcome`; the
        store stays ignorant of client machinery.  Treat the returned
        dict as read-only.
        """
        value = self._outcomes.get(
            (domain, tuple(key_hex), capability_digest)
        )
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

        Queued write-behind, like :meth:`put_report`.
        """
        if self._handle is None:
            raise StoreError(f"{self.path}: store is closed")
        key = (domain, tuple(key_hex), capability_digest)
        if key in self._outcomes:
            return False
        results = dict(results)
        self._pending.append(("outcome", domain, key[1],
                              capability_digest, chain_length, results))
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
        # queued records are in the in-memory maps, which compaction
        # rewrites wholesale — the queue would only duplicate them
        self._pending.clear()
        before = len(self._segments)
        dropped = self.stale_records + self.superseded_records
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = None
        nxt = self._segment_number(self._segments[-1]) + 1
        target = self._segments_dir / f"{nxt:06d}{_SEGMENT_SUFFIX}"
        tmp = self._segments_dir / (target.name + ".tmp")
        with open(tmp, "wb") as handle:
            for (key_hex, digest), value in self._reports.items():
                if isinstance(value, ChainComplianceReport):
                    payload = value.to_json()
                else:
                    payload = json.dumps(value, separators=(",", ":"))
                line = _encode_report_line(key_hex, digest, payload)
                handle.write((line + "\n").encode("utf-8"))
            for (domain, key_hex, digest), value in self._outcomes.items():
                line = _encode_outcome_line(
                    domain, key_hex, digest,
                    value["chain_length"], value["results"],
                )
                handle.write((line + "\n").encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
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
        if self._handle is not None:
            self.flush()  # segment/disk figures must include the queue
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
