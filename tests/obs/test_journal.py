"""The append-only run journal: manifests, crash-safe resume."""

import dataclasses
import functools
import json

import pytest

from repro import obs
from repro.errors import JournalError
from repro.obs.journal import (
    JOURNAL_VERSION,
    RunJournal,
    manifest_identity,
    read_journal,
)

MANIFEST = {
    "run": "campaign",
    "config": {"n_domains": 100, "now": "2024-03-15T00:00:00+00:00"},
    "seed": 7,
    "root_store_digest": "ab" * 32,
}


def fresh(tmp_path, name="run.jsonl", manifest=MANIFEST):
    return RunJournal.create(tmp_path / name, manifest)


@functools.cache
def analysed_report():
    """A real verdict: ``journal.example``'s report over a one-level
    hierarchy."""
    from repro.ca import build_hierarchy
    from repro.core import analyze_chain
    from repro.trust import RootStore, StaticAIARepository

    h = build_hierarchy("Journal", depth=1, key_seed_prefix="journal",
                        aia_base="http://aia.journal.example")
    leaf = h.issue_leaf("journal.example")
    repo = StaticAIARepository()
    for authority in h.authorities:
        repo.publish(authority.aia_uri, authority.certificate)
    store = RootStore("journal", [h.root.certificate])
    return analyze_chain("journal.example", h.chain_for(leaf), store, repo)


def report_for(domain):
    """The real verdict re-bound to ``domain`` (the read decodes every
    verdict it returns)."""
    return dataclasses.replace(analysed_report(), domain=domain)


class TestManifest:
    def test_first_line_is_stamped_manifest(self, tmp_path):
        with fresh(tmp_path) as journal:
            journal.record("scan", domain="a.example", success=True)
        first = json.loads((tmp_path / "run.jsonl").read_text()
                           .splitlines()[0])
        assert first["type"] == "manifest"
        assert first["journal_version"] == JOURNAL_VERSION
        assert first["seed"] == 7

    def test_identity_ignores_non_identity_fields(self):
        other = dict(MANIFEST, run="something-else", extra=1)
        assert manifest_identity(MANIFEST) == manifest_identity(other)

    def test_identity_distinguishes_config_seed_digest(self):
        for field, value in (("config", {"n_domains": 101}),
                             ("seed", 8),
                             ("root_store_digest", "cd" * 32)):
            changed = dict(MANIFEST, **{field: value})
            assert (manifest_identity(changed)
                    != manifest_identity(MANIFEST))


class TestAppendAndRead:
    def test_events_round_trip(self, tmp_path):
        with fresh(tmp_path) as journal:
            journal.record("scan", domain="a.example", vantage="us",
                           success=True)
            journal.record("collection", observations=1)
            assert journal.events_written == 3  # manifest included
        manifest, events = read_journal(tmp_path / "run.jsonl")
        assert manifest["type"] == "manifest"
        assert [e["type"] for e in events] == ["scan", "collection"]
        assert events[0]["domain"] == "a.example"

    def test_verdict_indexing(self, tmp_path):
        """A verdict goes to the file, and the journal keeps only its
        identity: ``verdict_for`` serves it once the file is resumed."""
        key = ("aa" * 32, "bb" * 32)
        report = report_for("a.example")
        with fresh(tmp_path) as journal:
            journal.record_verdict("a.example", key, report.to_json())
            assert journal.verdict_count == 1
            assert journal.verdict_for("a.example", key) is None
        _, events = read_journal(tmp_path / "run.jsonl")
        assert events == [{"type": "verdict", "domain": "a.example",
                           "chain_key": list(key), "report": report}]
        with RunJournal.open(tmp_path / "run.jsonl", MANIFEST) as resumed:
            assert resumed.verdict_count == 1
            assert resumed.verdict_for("a.example", key) == report
            assert resumed.verdict_for("a.example", ("cc" * 32,)) is None
            assert resumed.verdict_for("b.example", key) is None

    def test_one_line_per_domain_and_chain(self, tmp_path):
        """A second verdict for one (domain, chain) appends nothing,
        whether the first was written this run or resumed."""
        key = ("aa" * 32,)
        path = tmp_path / "run.jsonl"
        with fresh(tmp_path) as journal:
            for domain, reported in (("a.example", "a.example"),
                                     ("a.example", "again"),
                                     ("b.example", "b.example")):
                journal.record_verdict(domain, key,
                                       report_for(reported).to_json())
            assert journal.verdict_count == 2
        written = path.read_bytes()
        _, events = read_journal(path)
        assert [(e["domain"], e["report"].domain) for e in events] == [
            ("a.example", "a.example"), ("b.example", "b.example"),
        ]
        with RunJournal.open(path, MANIFEST) as resumed:
            resumed.record_verdict("a.example", key,
                                   report_for("again").to_json())
        assert path.read_bytes() == written

    def test_write_after_close_raises(self, tmp_path):
        journal = fresh(tmp_path)
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.record("scan", domain="a.example")

    def test_events_counter_labeled_by_type(self, tmp_path):
        with obs.instrumented() as (registry, _):
            with fresh(tmp_path) as journal:
                journal.record("scan", domain="a.example")
                journal.record("scan", domain="b.example")
        assert registry.value("journal.events", type="manifest") == 1
        assert registry.value("journal.events", type="scan") == 2

    def test_events_count_in_the_registry_live_at_each_append(self,
                                                             tmp_path):
        """``obs.enable`` may swap the registry while a journal is open:
        each event counts in the registry live when it is appended."""
        with obs.instrumented() as (first, _):
            with fresh(tmp_path) as journal:
                journal.record("scan", domain="a.example")
                second, _ = obs.enable()
                journal.record("scan", domain="b.example")
                journal.record("scan", domain="c.example")
                obs.disable()
                journal.record("scan", domain="d.example")
                obs.enable(first)
                journal.record("scan", domain="e.example")
        assert first.value("journal.events", type="manifest") == 1
        assert first.value("journal.events", type="scan") == 2
        assert second.value("journal.events", type="manifest") == 0
        assert second.value("journal.events", type="scan") == 2


class TestCrashSafety:
    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with fresh(tmp_path) as journal:
            journal.record("scan", domain="a.example", vantage="us",
                           success=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"verdict","domain":"crash.ex')
        _, events = read_journal(path)
        assert [e["type"] for e in events] == ["scan"]

    def test_resume_rewrites_clean_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        key = ("aa" * 32,)
        with fresh(tmp_path) as journal:
            journal.record_verdict("a.example", key,
                                   report_for("a.example").to_json())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"verdict","partial":tru')
        resumed = RunJournal.open(path, MANIFEST)
        assert resumed.verdict_count == 1
        assert resumed.verdict_for("a.example", key) is not None
        resumed.record("scan", domain="b.example", vantage="us")
        resumed.close()
        # the partial record is gone and the file parses end to end
        _, events = read_journal(path)
        assert [e["type"] for e in events] == ["verdict", "scan"]

    def test_resume_keeps_the_bytes_on_disk(self, tmp_path):
        """Resuming cuts a torn tail off in place and appends after the
        lines already written, as they are — even a line this package
        would have encoded differently."""
        path = tmp_path / "run.jsonl"
        fresh(tmp_path).close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "scan", "domain": "a.example",
                                     "vantage": "us"}) + "\n")
        kept = path.read_bytes()
        assert b'"type": "scan"' in kept  # spaced, not the compact form
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"scan","dom')
        with RunJournal.open(path, MANIFEST) as resumed:
            resumed.record("scan", domain="b.example", vantage="us")
        assert path.read_bytes() == kept + (
            b'{"type":"scan","domain":"b.example","vantage":"us"}\n'
        )

    def test_resumed_events_accessor(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with fresh(tmp_path) as journal:
            journal.record("scan", domain="a.example", vantage="us")
            journal.record("collection", observations=1)
        resumed = RunJournal.open(path, MANIFEST)
        assert len(resumed.events()) == 2
        assert [e["type"] for e in resumed.events("scan")] == ["scan"]
        resumed.close()

    def test_open_creates_when_absent_or_empty(self, tmp_path):
        created = RunJournal.open(tmp_path / "new.jsonl", MANIFEST)
        created.close()
        assert read_journal(tmp_path / "new.jsonl")[0]["seed"] == 7
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        RunJournal.open(empty, MANIFEST).close()
        assert read_journal(empty)[0]["seed"] == 7


class TestResumedIdentities:
    """A resumed journal appends no event it already holds."""

    def test_record_skips_resumed_identities(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with fresh(tmp_path) as journal:
            journal.record("scan", domain="a.example", vantage="us",
                           success=True)
            journal.record("degradation", vantage="au",
                           reason="breaker_open")
            journal.record("collection", domains=1)
            journal.record("differential", chain_key=["aa" * 32],
                           domain="a.example", results={})
            journal.record("shard", index=0, start=0, stop=1,
                           observations=1)
        before = path.read_bytes()
        with RunJournal.open(path, MANIFEST) as resumed:
            # the same identities with other payloads: nothing appended
            resumed.record("scan", domain="a.example", vantage="us",
                           success=False)
            resumed.record("degradation", vantage="au",
                           reason="no_successful_scans")
            resumed.record("collection", domains=2)
            resumed.record("differential", chain_key=("aa" * 32,),
                           domain="a.example", results={"openssl": "ok"})
            resumed.record("shard", index=0, start=0, stop=1,
                           observations=9)
            assert resumed.events_written == 0
            assert resumed.holds("shard", index=0, start=0, stop=1)
            assert not resumed.holds("shard", index=1, start=1, stop=2)
            # new identities are appended
            resumed.record("scan", domain="a.example", vantage="au",
                           success=True)
            resumed.record("shard", index=1, start=1, stop=2,
                           observations=0)
        after = path.read_bytes()
        assert after.startswith(before)
        assert [json.loads(line)
                for line in after[len(before):].splitlines()] == [
            {"type": "scan", "domain": "a.example", "vantage": "au",
             "success": True},
            {"type": "shard", "index": 1, "start": 1, "stop": 2,
             "observations": 0},
        ]

    def test_fresh_journal_appends_every_event(self, tmp_path):
        """Only resumed identities are skipped: a fresh journal appends
        what it is handed, and the read refuses the duplicate."""
        path = tmp_path / "run.jsonl"
        with fresh(tmp_path) as journal:
            journal.record("scan", domain="a.example", vantage="us")
            journal.record("scan", domain="a.example", vantage="us")
            assert not journal.holds("scan", domain="a.example",
                                     vantage="us")
        assert len(path.read_text().splitlines()) == 3
        with pytest.raises(JournalError, match="line 3: duplicate scan"):
            read_journal(path)


class TestRejection:
    def test_manifest_mismatch_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        fresh(tmp_path).close()
        with pytest.raises(JournalError, match="manifest mismatch"):
            RunJournal.open(path, dict(MANIFEST, seed=8))

    def test_interior_damage_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with fresh(tmp_path) as journal:
            journal.record("scan", domain="a.example")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # truncate an interior line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="malformed"):
            read_journal(path)

    def test_non_object_record_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with fresh(tmp_path) as journal:
            journal.record("scan", domain="a.example")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[1,2,3]\n")
        with pytest.raises(JournalError, match="objects"):
            read_journal(path)

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(JournalError, match="empty journal"):
            read_journal(path)

    def test_missing_manifest_refused(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"scan","domain":"a.example"}\n')
        with pytest.raises(JournalError, match="manifest"):
            read_journal(path)

    def test_unknown_version_refused(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        stamped = dict(MANIFEST, type="manifest", journal_version=99)
        path.write_text(json.dumps(stamped) + "\n")
        with pytest.raises(JournalError, match="version"):
            read_journal(path)

    def test_unreadable_path_refused(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            read_journal(tmp_path / "does-not-exist.jsonl")

    @pytest.mark.parametrize("chain_key", [
        ["ab"], ["ab cd"], ["aa" * 31 + "  "], ["aa" * 33], ["zz" * 32],
        ["AB" * 32], [5], 5, {"aa" * 32: 1},
    ], ids=["short", "spaced", "64-chars-31-bytes", "long", "not-hex",
            "upper-case", "not-str", "int", "object"])
    def test_verdict_key_must_be_fingerprints(self, tmp_path, chain_key):
        """Each element of a verdict's chain key is a fingerprint as
        every lookup key spells it: the 64 lowercase hex digits of 32
        bytes, no more, no fewer, no other spelling."""
        from repro.obs.journal import is_chain_key

        assert not is_chain_key(chain_key)
        path = tmp_path / "run.jsonl"
        with fresh(tmp_path) as journal:
            journal.record("verdict", domain="a.example",
                           chain_key=chain_key, report={})
        with pytest.raises(JournalError, match="line 2: verdict 'chain_key' "
                           "is not a list of fingerprint hex strings"):
            read_journal(path)

    def test_fingerprint_keys_pass(self):
        from repro.obs.journal import is_chain_key

        for chain_key in ([], ["aa" * 32], ["ab" * 32, "0f" * 32]):
            assert is_chain_key(chain_key)


class TestBatchedFlush:
    def test_records_buffer_until_the_threshold(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal.create(path, MANIFEST, flush_every=16)
        for i in range(5):
            journal.record("scan", domain=f"d{i}.example")
        # the manifest flushed at create; the five events are buffered
        assert len(path.read_text().splitlines()) == 1
        journal.flush()
        assert len(path.read_text().splitlines()) == 6
        for i in range(16):
            journal.record("scan", domain=f"x{i}.example")
        # threshold reached: the batch flushed itself
        assert len(path.read_text().splitlines()) == 22
        journal.record("scan", domain="tail.example")
        journal.close()
        assert len(path.read_text().splitlines()) == 23

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            RunJournal(tmp_path / "run.jsonl", MANIFEST, flush_every=0)

    def test_flush_policy_is_invisible(self, tmp_path):
        """The cadence changes when bytes reach the file, never which:
        a journal flushed per record equals one flushed every 64, the
        CLI's cadence."""
        written = []
        for flush_every in (1, 64):
            path = tmp_path / f"every-{flush_every}.jsonl"
            with RunJournal.create(path, MANIFEST,
                                   flush_every=flush_every) as journal:
                for i in range(150):
                    journal.record("scan", domain=f"d{i}.example",
                                   vantage="us", success=i % 3 > 0)
                    journal.record_verdict(f"d{i}.example", (f"{i:064x}",),
                                           '{"leaf":{}}')
                journal.record("collection", domains=150)
            written.append(path.read_bytes())
        assert written[0] == written[1]
        assert len(written[0].splitlines()) == 302

    def test_crash_loses_at_most_the_buffered_tail(self, tmp_path):
        """A hard crash drops only unflushed records; resume stays clean."""
        import os
        import subprocess
        import sys

        path = tmp_path / "run.jsonl"
        code = (
            "import os, sys\n"
            "sys.path.insert(0, os.environ['REPRO_SRC'])\n"
            "from repro.obs.journal import RunJournal\n"
            f"manifest = {MANIFEST!r}\n"
            f"journal = RunJournal.create({str(path)!r}, manifest,"
            " flush_every=100)\n"
            "for i in range(3):\n"
            "    journal.record('scan', domain=f'd{i}.example',"
            " vantage='us')\n"
            "journal.flush()\n"
            "journal.record('scan', domain='lost.example', vantage='us')\n"
            "os._exit(1)  # crash: no close, no flush\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        subprocess.run([sys.executable, "-c", code],
                       env={**os.environ, "REPRO_SRC": src}, check=False)
        resumed = RunJournal.open(path, MANIFEST)
        domains = [e["domain"] for e in resumed.events("scan")]
        assert domains == ["d0.example", "d1.example", "d2.example"]
        resumed.close()


class TestVerdictEncoding:
    def test_encoder_matches_generic_json(self):
        from repro.obs.journal import encode_verdict_event

        for domain, key, report in (
            ("a.example", ("aa" * 32,), {"domain": "a.example", "n": 1}),
            ("ünïcode.example", ("bb" * 32, "cc" * 32),
             {"domain": 'quote"back\\slash', "nested": {"k": [1, None]}}),
            ("tab\there.example", (), {}),
        ):
            text = json.dumps(report, separators=(",", ":"))
            line = encode_verdict_event(domain, key, text)
            expected = json.dumps(
                {"type": "verdict", "domain": domain,
                 "chain_key": list(key), "report": report},
                separators=(",", ":"),
            )
            assert line == expected

    def test_report_objects_use_their_own_serializer(self, tmp_path):
        """A verdict's report is the text ``to_json`` wrote, framed as
        it is, and read back as the report that text encodes."""
        from repro.obs.journal import encode_verdict_event

        report = analysed_report()
        key = ("aa" * 32,)
        text = report.to_json()
        line = encode_verdict_event("journal.example", key, text)
        assert line.endswith(',"report":' + text + "}")

        with fresh(tmp_path) as journal:
            journal.record_verdict("journal.example", key, text)
        assert (tmp_path / "run.jsonl").read_bytes().endswith(
            (line + "\n").encode("utf-8"))
        _, events = read_journal(tmp_path / "run.jsonl")
        assert events == [{**json.loads(line), "report": report}]
        assert events[0]["report"].to_json() == text


class TestValidation:
    """The structural invariants :func:`read_journal` checks, which a
    well-formed append-only journal satisfies and resume refuses to
    break."""

    def good_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            journal.record("scan", domain="a.example", vantage="us",
                           success=True)
            journal.record("scan", domain="a.example", vantage="au",
                           success=False)
            journal.record("degradation", vantage="au",
                           reason="breaker_open")
            journal.record("collection", domains=1, observations=1)
            journal.record_verdict("a.example", ("aa" * 32,),
                                   report_for("a.example").to_json())
        return path

    def test_well_formed_journal_passes(self, tmp_path):
        path = self.good_journal(tmp_path)
        manifest, events = read_journal(path)
        assert manifest["seed"] == MANIFEST["seed"]
        assert len(events) == 5

    def append_line(self, path, payload):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")

    def test_second_collection_summary_rejected(self, tmp_path):
        path = self.good_journal(tmp_path)
        self.append_line(path, {"type": "collection", "domains": 1})
        with pytest.raises(JournalError, match="one-summary"):
            read_journal(path)

    def test_scan_after_summary_is_non_monotonic(self, tmp_path):
        path = self.good_journal(tmp_path)
        self.append_line(path, {"type": "scan", "domain": "z.example",
                                "vantage": "us", "success": True})
        with pytest.raises(JournalError, match="not monotonic"):
            read_journal(path)

    def test_duplicate_scan_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            journal.record("scan", domain="a.example", vantage="us")
            journal.record("scan", domain="a.example", vantage="us")
        with pytest.raises(JournalError, match="line 3.*duplicate scan"):
            read_journal(path)

    def test_duplicate_verdict_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            journal.record("verdict", domain="a.example",
                           chain_key=["aa" * 32], report={})
            journal.record("verdict", domain="a.example",
                           chain_key=["aa" * 32], report={})
        with pytest.raises(JournalError, match="duplicate verdict"):
            read_journal(path)

    def test_verdict_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            journal.record("verdict", chain_key=["aa"])
        with pytest.raises(JournalError, match="missing"):
            read_journal(path)

    def test_many_problems_are_summarised(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            for _ in range(5):
                journal.record("collection", domains=1)
        with pytest.raises(JournalError, match="more problem"):
            read_journal(path)

    def test_resume_refuses_what_the_read_refuses(self, tmp_path):
        """Resume reads through :func:`read_journal`: a journal it
        refuses is never resumed, and the file is left as it was."""
        path = self.good_journal(tmp_path)
        self.append_line(path, {"type": "collection", "domains": 9})
        damaged = path.read_bytes()
        with pytest.raises(JournalError, match="corrupt journal: line 7: "
                           "second collection summary"):
            RunJournal.open(path, MANIFEST)
        assert path.read_bytes() == damaged


class TestFieldTypes:
    """Every event field a reader takes holds its JSON type, or the
    read refuses the journal naming the line and the field."""

    def journal_with(self, tmp_path, **scan_fields):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            journal.record("scan", **{"domain": "a.example",
                                      "vantage": "us", **scan_fields})
        return path

    @pytest.mark.parametrize("fields, message", [
        ({"attempts": "x"}, "'attempts' must be an integer, not a string"),
        ({"attempts": [1]}, "'attempts' must be an integer, not an array"),
        ({"attempts": True}, "'attempts' must be an integer, not a boolean"),
        ({"wire_bytes": 1.5}, "'wire_bytes' must be an integer, not a "
                              "number"),
        ({"success": 1}, "'success' must be a boolean, not an integer"),
        ({"duration": "1"}, "'duration' must be a number, not a string"),
        ({"vantage": None}, "'vantage' must be a string, not null"),
    ], ids=["attempts-str", "attempts-list", "attempts-bool", "bytes-float",
            "success-int", "duration-str", "vantage-null"])
    def test_scan_fields(self, tmp_path, fields, message):
        path = self.journal_with(tmp_path, **fields)
        with pytest.raises(JournalError,
                           match=f"corrupt journal: line 2: scan {message}"):
            read_journal(path)

    def test_numbers_take_integers_too(self, tmp_path):
        path = self.journal_with(tmp_path, duration=0, attempts=2,
                                 success=False, wire_bytes=0)
        assert read_journal(path)[1][0]["duration"] == 0

    def test_identity_fields_are_required(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            journal.record("scan", domain="a.example")
            journal.record("degradation", reason="breaker_open")
            journal.record("shard", index=0, start=0)
        with pytest.raises(JournalError) as caught:
            read_journal(path)
        assert str(caught.value).endswith(
            "corrupt journal: line 2: scan event missing 'vantage'; "
            "line 3: degradation event missing 'vantage'; "
            "line 4: shard event missing 'stop'")

    @pytest.mark.parametrize("event, message", [
        ({"type": "collection", "degraded_vantages": {"au": 1}},
         "collection 'degraded_vantages' must map strings to strings, "
         "not to an integer"),
        ({"type": "collection", "observations": "2"},
         "collection 'observations' must be an integer, not a string"),
        ({"type": "differential", "domain": "a.example",
          "chain_key": ["aa" * 32], "results": {"openssl": None}},
         "differential 'results' must map strings to strings, not to null"),
        ({"type": "differential", "domain": "a.example",
          "chain_key": ["aa" * 32],
          "attribution": [{"rule_id": 5, "verdict": "attribution",
                           "summary": "x"}]},
         "differential 'attribution' holds a record that is not evidence "
         "(TypeError: 'rule_id' must be a string, not an integer)"),
        ({"type": "differential", "domain": "a.example", "chain_key": []},
         None),
        ({"type": "verdict", "domain": "a.example", "chain_key": [],
          "report": 5},
         "verdict 'report' must be an object, not an integer"),
    ], ids=["degraded-map", "count-str", "results-map", "attribution",
            "differential-ok", "report-int"])
    def test_other_event_fields(self, tmp_path, event, message):
        path = tmp_path / "run.jsonl"
        fresh(tmp_path).close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(event) + "\n")
        if message is None:
            assert read_journal(path)[1] == [event]
            return
        with pytest.raises(JournalError,
                           match=f"line 2: {message}".replace("(", r"\(")
                           .replace(")", r"\)")):
            read_journal(path)

    def test_manifest_fields(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stamped = dict(MANIFEST, type="manifest",
                       journal_version=JOURNAL_VERSION, run=["campaign"])
        path.write_text(json.dumps(stamped) + "\n")
        with pytest.raises(JournalError, match="line 1: manifest 'run' "
                           "must be a string, not an array"):
            read_journal(path)
