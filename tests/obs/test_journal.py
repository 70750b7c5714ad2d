"""The append-only run journal: manifests, crash-safe resume."""

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
            journal.record("scan", domain="a.example", success=True)
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
        with fresh(tmp_path) as journal:
            journal.record_verdict("a.example", key, '{"domain":"a.example"}')
            assert journal.verdict_count == 1
            assert journal.verdict_for("a.example", key) is None
        _, events = read_journal(tmp_path / "run.jsonl")
        assert events == [{"type": "verdict", "domain": "a.example",
                           "chain_key": list(key),
                           "report": {"domain": "a.example"}}]
        with RunJournal.open(tmp_path / "run.jsonl", MANIFEST) as resumed:
            assert resumed.verdict_count == 1
            assert resumed.verdict_for("a.example", key) == {
                "domain": "a.example"
            }
            assert resumed.verdict_for("a.example", ("cc" * 32,)) is None
            assert resumed.verdict_for("b.example", key) is None

    def test_one_line_per_domain_and_chain(self, tmp_path):
        """A second verdict for one (domain, chain) appends nothing,
        whether the first was written this run or resumed."""
        key = ("aa" * 32,)
        path = tmp_path / "run.jsonl"
        with fresh(tmp_path) as journal:
            journal.record_verdict("a.example", key, '{"domain":"a.example"}')
            journal.record_verdict("a.example", key, '{"domain":"again"}')
            journal.record_verdict("b.example", key, '{"domain":"b.example"}')
            assert journal.verdict_count == 2
        written = path.read_bytes()
        _, events = read_journal(path)
        assert [(e["domain"], e["report"]["domain"]) for e in events] == [
            ("a.example", "a.example"), ("b.example", "b.example"),
        ]
        with RunJournal.open(path, MANIFEST) as resumed:
            resumed.record_verdict("a.example", key, '{"domain":"again"}')
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
            journal.record("scan", domain="a.example", success=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"verdict","domain":"crash.ex')
        _, events = read_journal(path)
        assert [e["type"] for e in events] == ["scan"]

    def test_resume_rewrites_clean_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        key = ("aa" * 32,)
        with fresh(tmp_path) as journal:
            journal.record_verdict("a.example", key, '{"domain":"a.example"}')
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"verdict","partial":tru')
        resumed = RunJournal.open(path, MANIFEST)
        assert resumed.verdict_count == 1
        assert resumed.verdict_for("a.example", key) is not None
        resumed.record("scan", domain="b.example")
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
            journal.record("scan", domain="a.example")
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
            journal.record("differential", chain_key=["aa"],
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
            resumed.record("differential", chain_key=("aa",),
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
        with fresh(tmp_path) as journal:
            journal.record("scan", domain="a.example", vantage="us")
            journal.record("scan", domain="a.example", vantage="us")
            assert not journal.holds("scan", domain="a.example",
                                     vantage="us")
        _, events = read_journal(tmp_path / "run.jsonl")
        assert len(events) == 2


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
        with pytest.raises(JournalError, match="line 2: verdict chain_key "
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
            "    journal.record('scan', domain=f'd{i}.example')\n"
            "journal.flush()\n"
            "journal.record('scan', domain='lost.example')\n"
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
    def report(self):
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
        return analyze_chain("journal.example", h.chain_for(leaf), store,
                             repo)

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
        it is, and read back as that text parses."""
        from repro.obs.journal import encode_verdict_event

        report = self.report()
        key = ("aa" * 32,)
        text = report.to_json()
        line = encode_verdict_event("journal.example", key, text)
        assert line.endswith(',"report":' + text + "}")

        with fresh(tmp_path) as journal:
            journal.record_verdict("journal.example", key, text)
        assert (tmp_path / "run.jsonl").read_bytes().endswith(
            (line + "\n").encode("utf-8"))
        _, events = read_journal(tmp_path / "run.jsonl")
        assert events == [json.loads(line)]
        assert events[0]["report"] == json.loads(text)


class TestValidation:
    """``validate_journal`` / ``RunJournal.validate``: the invariants a
    well-formed append-only journal satisfies."""

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
                                   '{"leaf":{}}')
        return path

    def test_well_formed_journal_passes(self, tmp_path):
        from repro.obs.journal import validate_journal

        path = self.good_journal(tmp_path)
        manifest, events = validate_journal(path)
        assert manifest["seed"] == MANIFEST["seed"]
        assert len(events) == 5

    def append_line(self, path, payload):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")

    def test_second_collection_summary_rejected(self, tmp_path):
        from repro.obs.journal import validate_journal

        path = self.good_journal(tmp_path)
        self.append_line(path, {"type": "collection", "domains": 1})
        with pytest.raises(JournalError, match="one-summary"):
            validate_journal(path)

    def test_scan_after_summary_is_non_monotonic(self, tmp_path):
        from repro.obs.journal import validate_journal

        path = self.good_journal(tmp_path)
        self.append_line(path, {"type": "scan", "domain": "z.example",
                                "vantage": "us", "success": True})
        with pytest.raises(JournalError, match="not monotonic"):
            validate_journal(path)

    def test_duplicate_scan_rejected_with_line_number(self, tmp_path):
        from repro.obs.journal import validate_journal

        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            journal.record("scan", domain="a.example", vantage="us")
            journal.record("scan", domain="a.example", vantage="us")
        with pytest.raises(JournalError, match="line 3.*duplicate scan"):
            validate_journal(path)

    def test_duplicate_verdict_rejected(self, tmp_path):
        from repro.obs.journal import validate_journal

        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            journal.record("verdict", domain="a.example",
                           chain_key=["aa" * 32], report={})
            journal.record("verdict", domain="a.example",
                           chain_key=["aa" * 32], report={})
        with pytest.raises(JournalError, match="duplicate verdict"):
            validate_journal(path)

    def test_verdict_missing_fields_rejected(self, tmp_path):
        from repro.obs.journal import validate_journal

        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            journal.record("verdict", chain_key=["aa"])
        with pytest.raises(JournalError, match="missing"):
            validate_journal(path)

    def test_many_problems_are_summarised(self, tmp_path):
        from repro.obs.journal import validate_journal

        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, MANIFEST) as journal:
            for _ in range(5):
                journal.record("collection", domains=1)
        with pytest.raises(JournalError, match="more problem"):
            validate_journal(path)

    def test_instance_validate_checks_resumed_events(self, tmp_path):
        path = self.good_journal(tmp_path)
        self.append_line(path, {"type": "collection", "domains": 9})
        journal = RunJournal.open(path, MANIFEST)
        with journal:
            with pytest.raises(JournalError, match="corrupt journal"):
                journal.validate()

    def test_instance_validate_passes_on_fresh_journal(self, tmp_path):
        with fresh(tmp_path) as journal:
            journal.validate()

    def test_instance_validate_requires_stamped_manifest(self, tmp_path):
        journal = RunJournal(tmp_path / "x.jsonl", dict(MANIFEST))
        with pytest.raises(JournalError, match="type/version stamp"):
            journal.validate()
