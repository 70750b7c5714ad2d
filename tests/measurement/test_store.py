"""The persistent verdict store: crash safety and warm-start parity.

Two contracts under test.  First, the store itself is crash-safe: a
torn segment tail, an interrupted compaction, or a half-written record
never loses previously-fsynced verdicts, and ``check_store`` reports
damage without repairing anything.  Second, a warm run served from the
store is byte-identical to the cold run that populated it — reports,
aggregate tables, and journal bytes — for the compliance pipeline and
the differential harness alike.
"""

import json

import pytest

from repro.chainbuilder import DifferentialHarness
from repro.core import analyze_chain
from repro.errors import StoreError
from repro.measurement import Campaign, VerdictStore, check_store
from repro.measurement.parallel import analyze_observations
from repro.measurement.store import SCHEMA_VERSION
from repro.obs import RunJournal
from repro.webpki import Ecosystem, EcosystemConfig


@pytest.fixture(scope="module")
def ecosystem():
    return Ecosystem.generate(EcosystemConfig(n_domains=90, seed=11))


@pytest.fixture(scope="module")
def union(ecosystem):
    return ecosystem.registry.union()


@pytest.fixture(scope="module")
def stream(ecosystem):
    """Union observations plus repeats, like a two-vantage scan."""
    base = ecosystem.observations()
    return base + [(d, list(c)) for d, c in base[:30]]


def hexkey(chain):
    return tuple(cert.fingerprint_hex for cert in chain)


def make_report(ecosystem, union, index=0):
    domain, chain = ecosystem.observations()[index]
    report = analyze_chain(domain, chain, union, ecosystem.aia_repo)
    return hexkey(chain), union.digest(), report


class TestRoundTrip:
    def test_report_survives_reopen(self, ecosystem, union, tmp_path):
        key, digest, report = make_report(ecosystem, union)
        with VerdictStore(tmp_path / "vs") as store:
            assert store.put_report(key, digest, report)
            assert store.get_report(key, digest) is report
        with VerdictStore(tmp_path / "vs") as store:
            loaded = store.get_report(key, digest)
            assert loaded == report
            assert loaded.to_json() == report.to_json()
            # wrong trust anchors: a different verdict, so a miss
            assert store.get_report(key, "0" * 64) is None
            assert (store.hits, store.misses) == (1, 1)

    def test_duplicate_put_is_a_noop(self, ecosystem, union, tmp_path):
        key, digest, report = make_report(ecosystem, union)
        with VerdictStore(tmp_path / "vs") as store:
            assert store.put_report(key, digest, report)
            assert not store.put_report(key, digest, report)
            assert store.writes == 1
            assert len(store) == 1

    def test_outcome_is_domain_sensitive(self, tmp_path):
        key = ("ab" * 32,)
        with VerdictStore(tmp_path / "vs") as store:
            store.put_outcome("a.example", key, "cap", chain_length=3,
                              results={"openssl": "ok"})
            assert store.get_outcome("a.example", key, "cap") == {
                "chain_length": 3, "results": {"openssl": "ok"},
            }
            assert store.get_outcome("b.example", key, "cap") is None
            assert store.get_outcome("a.example", key, "other") is None
        with VerdictStore(tmp_path / "vs") as store:
            assert store.get_outcome("a.example", key, "cap") == {
                "chain_length": 3, "results": {"openssl": "ok"},
            }

    def test_identity_is_stable_and_path_free(self, tmp_path):
        with VerdictStore(tmp_path / "vs") as store:
            first = store.identity()
        with VerdictStore(tmp_path / "vs") as store:
            assert store.identity() == first
        assert set(first) == {"store_id", "schema_version"}
        assert first["schema_version"] == SCHEMA_VERSION

    def test_foreign_directory_is_rejected(self, tmp_path):
        target = tmp_path / "notastore"
        target.mkdir()
        (target / "meta.json").write_text('{"format": "something-else"}')
        with pytest.raises(StoreError):
            VerdictStore(target)

    def test_closed_store_rejects_writes(self, ecosystem, union, tmp_path):
        key, digest, report = make_report(ecosystem, union)
        store = VerdictStore(tmp_path / "vs")
        store.close()
        with pytest.raises(StoreError):
            store.put_report(key, digest, report)


class TestRotationAndCompaction:
    def test_rotation_preserves_every_record(self, ecosystem, union,
                                             tmp_path):
        with VerdictStore(tmp_path / "vs", segment_bytes=1024) as store:
            for index in range(10):
                key, digest, report = make_report(ecosystem, union, index)
                store.put_report(key, digest, report)
            assert store.stats()["segments"] > 1
        with VerdictStore(tmp_path / "vs") as store:
            assert store.stats()["reports"] == 10

    def test_compact_drops_stale_records(self, ecosystem, union, tmp_path):
        key, digest, report = make_report(ecosystem, union)
        with VerdictStore(tmp_path / "vs") as store:
            store.put_report(key, digest, report)
        segment = tmp_path / "vs" / "segments" / "000001.seg"
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"report","schema":999,"digest":"x",'
                         '"chain_key":[],"report":{}}\n')
        with VerdictStore(tmp_path / "vs") as store:
            assert store.stale_records == 1
            summary = store.compact()
            assert summary == {"segments_before": 1, "segments_after": 1,
                               "kept": 1, "dropped": 1}
            assert store.get_report(key, digest).to_json() == \
                report.to_json()
        check = check_store(tmp_path / "vs")
        assert check.ok and check.stale_records == 0


def _segment_lines(path):
    return (path / "segments" / "000001.seg").read_bytes().splitlines(
        keepends=True)


def _rewrite_first_record(path, change):
    lines = _segment_lines(path)
    record = json.loads(lines[0])
    change(record)
    lines[0] = (json.dumps(record, separators=(",", ":")) + "\n").encode()
    (path / "segments" / "000001.seg").write_bytes(b"".join(lines))


def _set_store_version(path, version):
    meta = json.loads((path / "meta.json").read_text())
    meta["store_version"] = version
    (path / "meta.json").write_text(json.dumps(meta))


def _damage_interior(path):
    lines = _segment_lines(path)
    lines[1] = b"XXXX corrupt XXXX\n"
    (path / "segments" / "000001.seg").write_bytes(b"".join(lines))


def _append(path, text):
    with open(path / "segments" / "000001.seg", "a") as handle:
        handle.write(text)


#: damage -> (how to inflict it, what opening does, the check's reason)
DAMAGED_STORES = {
    "record-without-chain-key": (
        lambda path: _rewrite_first_record(
            path, lambda record: record.pop("chain_key")),
        "refused",
        "segments/000001.seg: record at byte 0 is missing field "
        "'chain_key'",
    ),
    "store-version-2": (
        lambda path: _set_store_version(path, 2),
        "refused", "meta.json: unsupported store version 2",
    ),
    "meta-deleted": (
        lambda path: (path / "meta.json").unlink(),
        "refused", "meta.json: missing, but segments/ holds 1 segment(s)",
    ),
    "interior-damage": (
        _damage_interior,
        "refused", "segments/000001.seg: corrupt record at byte ",
    ),
    "torn-tail": (
        lambda path: _append(path, '{"kind":"report","schema":1,"di'),
        "repaired", "segments/000001.seg: torn final record at byte ",
    ),
    "compaction-leftover": (
        lambda path: (path / "segments" / "000002.seg.tmp").write_text(
            "interrupted compaction\n"),
        "repaired", "segments/000002.seg.tmp: interrupted compaction "
        "leftover",
    ),
    "undecodable-report": (
        lambda path: _rewrite_first_record(
            path, lambda record: record.update(report=5)),
        "refused", "stored report for chain [",
    ),
    # the journal reader's chain-key rule holds for stored records too
    "chain-key-not-hex": (
        lambda path: _rewrite_first_record(
            path, lambda record: record.update(chain_key=[1, 2])),
        "refused",
        "segments/000001.seg: record at byte 0 has a malformed key "
        "(chain_key is not a list of fingerprint hex strings)",
    ),
    # a key element must be a whole fingerprint in lowercase hex, not any
    # hex bytes.fromhex takes, and the digest (an outcome's domain too) a
    # string: a lookup could never hit anything else
    "chain-key-short-hex": (
        lambda path: _rewrite_first_record(
            path, lambda record: record.update(chain_key=["ab"])),
        "refused",
        "segments/000001.seg: record at byte 0 has a malformed key "
        "(chain_key is not a list of fingerprint hex strings)",
    ),
    "chain-key-upper-case": (
        lambda path: _rewrite_first_record(
            path, lambda record: record.update(
                chain_key=[fp.upper() for fp in record["chain_key"]])),
        "refused",
        "segments/000001.seg: record at byte 0 has a malformed key "
        "(chain_key is not a list of fingerprint hex strings)",
    ),
    "digest-not-a-string": (
        lambda path: _rewrite_first_record(
            path, lambda record: record.update(digest=5)),
        "refused",
        "segments/000001.seg: record at byte 0 has a malformed key "
        "(digest is not a string)",
    ),
    "outcome-domain-not-a-string": (
        lambda path: _rewrite_first_record(
            path, lambda record: record.update(
                kind="outcome", domain=5, chain_length=1, results={})),
        "refused",
        "segments/000001.seg: record at byte 0 has a malformed key "
        "(domain is not a string)",
    ),
    # a flag where an index belongs would re-encode as `True`, which
    # is not JSON
    "deciding-index-true": (
        lambda path: _rewrite_first_record(
            path, lambda record: record["report"]["leaf"].update(
                deciding_index=True)),
        "refused",
        "stored report for chain [",
    ),
    # evidence records decode type-exact: each of these used to decode,
    # and compaction wrote it back as the string it was coerced to
    "evidence-rule-id-not-a-string": (
        lambda path: _rewrite_first_record(
            path, lambda record: record["report"]["completeness"][
                "evidence"][0].update(rule_id=5)),
        "refused",
        "stored report for chain [",
    ),
    "evidence-certs-not-strings": (
        lambda path: _rewrite_first_record(
            path, lambda record: record["report"]["completeness"][
                "evidence"][0].update(certs=[7])),
        "refused",
        "stored report for chain [",
    ),
    "evidence-edge-a-boolean": (
        lambda path: _rewrite_first_record(
            path, lambda record: record["report"]["completeness"][
                "evidence"][0].update(edges=[[True, 0]])),
        "refused",
        "stored report for chain [",
    ),
}

#: damage -> how the refused payload's decode is worded
DECODE_REFUSALS = {
    "deciding-index-true": "TypeError: 'deciding_index' must be an integer "
                           "or null, not a boolean",
    "evidence-rule-id-not-a-string": "TypeError: 'rule_id' must be a "
                                     "string, not an integer",
    "evidence-certs-not-strings": "TypeError: 'certs' must be an array of "
                                  "strings, not one holding an integer",
    "evidence-edge-a-boolean": "TypeError: 'edges' must be an array of "
                               "two-integer arrays",
}


class TestCrashSafety:
    def populate(self, path, ecosystem, union, count=4):
        with VerdictStore(path) as store:
            for index in range(count):
                key, digest, report = make_report(ecosystem, union, index)
                store.put_report(key, digest, report)

    def test_torn_tail_is_truncated_on_reopen(self, ecosystem, union,
                                              tmp_path):
        path = tmp_path / "vs"
        self.populate(path, ecosystem, union)
        segment = path / "segments" / "000001.seg"
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"report","schema":1,"di')
        with VerdictStore(path) as store:
            assert store.recovered_records == 1
            assert store.stats()["reports"] == 4
        # reopening repaired the file: a second check is clean
        assert check_store(path).ok

    def test_undecodable_final_line_is_torn_too(self, ecosystem, union,
                                                tmp_path):
        path = tmp_path / "vs"
        self.populate(path, ecosystem, union)
        segment = path / "segments" / "000001.seg"
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write("garbage not json\n")
        with VerdictStore(path) as store:
            assert store.recovered_records == 1
            assert store.stats()["reports"] == 4

    def test_interior_damage_raises(self, ecosystem, union, tmp_path):
        path = tmp_path / "vs"
        self.populate(path, ecosystem, union)
        segment = path / "segments" / "000001.seg"
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b"XXXX corrupt XXXX\n"
        segment.write_bytes(b"".join(lines))
        with pytest.raises(StoreError):
            VerdictStore(path)

    def test_half_rotated_tmp_is_removed(self, ecosystem, union, tmp_path):
        path = tmp_path / "vs"
        self.populate(path, ecosystem, union)
        leftover = path / "segments" / "000002.seg.tmp"
        leftover.write_text("interrupted compaction\n")
        check = check_store(path)
        assert not check.ok
        assert any("leftover" in p for p in check.problems)
        with VerdictStore(path) as store:
            assert store.removed_tmp == 1
            assert store.stats()["reports"] == 4
        assert not leftover.exists()

    def test_check_store_reports_without_repairing(self, ecosystem, union,
                                                   tmp_path):
        path = tmp_path / "vs"
        self.populate(path, ecosystem, union)
        segment = path / "segments" / "000001.seg"
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"repo')
        damaged = segment.read_bytes()
        check = check_store(path)
        assert not check.ok
        assert any("torn final record" in p for p in check.problems)
        assert check.reports == 4
        # verify is read-only: the damage is still on disk
        assert segment.read_bytes() == damaged

    def test_check_store_on_a_non_store(self, tmp_path):
        check = check_store(tmp_path / "missing")
        assert not check.ok and not check.store_id

    @pytest.mark.parametrize("damage", sorted(DAMAGED_STORES))
    def test_open_and_verify_agree(self, damage, ecosystem, union, tmp_path):
        """``check_store`` lists exactly what opening refuses, in the words
        of the refusal; what opening repairs it lists, and after the
        repair the store checks clean."""
        path = tmp_path / "vs"
        self.populate(path, ecosystem, union)
        inflict, opening, reason = DAMAGED_STORES[damage]
        inflict(path)
        check = check_store(path)
        assert not check.ok
        assert len(check.problems) == 1, check.problems
        assert check.problems[0].startswith(reason), check.problems
        if opening == "refused":
            with pytest.raises(StoreError) as refusal:
                VerdictStore(path)
            assert str(refusal.value) == f"{path}: {check.problems[0]}"
            if damage in DECODE_REFUSALS:
                assert check.problems[0].endswith(
                    f"report payload does not decode "
                    f"({DECODE_REFUSALS[damage]})")
        else:
            VerdictStore(path).close()
            assert check_store(path).ok


class TestOnlyLiveRecordsDecode:
    """A payload that does not decode is refused only in a live record:
    one a later record of the same key supersedes does not count (nor
    does one of another schema version: see
    ``test_compact_drops_stale_records``)."""

    def populate(self, path, ecosystem, union):
        key, digest, report = make_report(ecosystem, union)
        with VerdictStore(path) as store:
            store.put_report(key, digest, report)
        return key, digest, report

    def test_superseded_undecodable_record_is_not_refused(
        self, ecosystem, union, tmp_path
    ):
        path = tmp_path / "vs"
        key, digest, report = self.populate(path, ecosystem, union)
        segment = path / "segments" / "000001.seg"
        good = segment.read_bytes()
        bad = json.loads(good)
        bad["report"] = 5
        segment.write_bytes(
            (json.dumps(bad, separators=(",", ":")) + "\n").encode() + good
        )
        check = check_store(path)
        assert check.ok, check.problems
        assert (check.reports, check.superseded_records) == (1, 1)
        with VerdictStore(path) as store:
            assert store.superseded_records == 1
            assert store.get_report(key, digest).to_json() == \
                report.to_json()

    def test_live_record_superseding_a_good_one_is_refused(
        self, ecosystem, union, tmp_path
    ):
        path = tmp_path / "vs"
        self.populate(path, ecosystem, union)
        segment = path / "segments" / "000001.seg"
        bad = json.loads(segment.read_bytes())
        bad["report"] = {"leaf": 3}
        _append(path, json.dumps(bad, separators=(",", ":")) + "\n")
        check = check_store(path)
        assert len(check.problems) == 1, check.problems
        assert check.problems[0].startswith("stored report for chain [")
        assert (check.reports, check.superseded_records) == (1, 1)
        with pytest.raises(StoreError) as refusal:
            VerdictStore(path)
        assert str(refusal.value) == f"{path}: {check.problems[0]}"

    def test_undecodable_outcome_is_refused_at_open(self, tmp_path):
        path = tmp_path / "vs"
        with VerdictStore(path) as store:
            store.put_outcome("a.example", ("ab" * 32,), "cap",
                              chain_length=3, results={"openssl": "ok"})
        _rewrite_first_record(path, lambda record: record.update(
            results={"openssl": 5}))
        check = check_store(path)
        assert check.problems == [
            f'stored outcome for chain ["{"ab" * 32}"]: outcome payload '
            f'does not decode'
        ]
        assert check.outcomes == 1
        with pytest.raises(StoreError) as refusal:
            VerdictStore(path)
        assert str(refusal.value) == f"{path}: {check.problems[0]}"


class TestDecodedIndex:
    """The index holds report objects: each replayed record is decoded
    once, when the store opens, and every hit returns that object."""

    def test_replayed_report_decoded_once_at_open(self, ecosystem, union,
                                                   tmp_path, monkeypatch):
        from repro.core.compliance import ChainComplianceReport, ReportTable

        key_hex, digest, report = make_report(ecosystem, union)
        with VerdictStore(tmp_path / "vs") as store:
            store.put_report(key_hex, digest, report)
        decoded = []
        original = ReportTable.decode

        def counting(table, payload):
            decoded.append(payload["domain"])
            return original(table, payload)

        monkeypatch.setattr(ReportTable, "decode", counting)
        with VerdictStore(tmp_path / "vs") as store:
            assert decoded == [report.domain]
            first = store.get_report(key_hex, digest)
            assert isinstance(first, ChainComplianceReport)
            assert first.to_json() == report.to_json()
            assert store.get_report(key_hex, digest) is first
            assert store.hits == 2
        assert decoded == [report.domain]

    def test_equal_sections_share_one_object(self, ecosystem, union,
                                             tmp_path):
        """One decode table per open: two stored reports whose order
        sections are equal hold one OrderAnalysis, and the index keys
        share the digest string."""
        reports = [make_report(ecosystem, union, index)
                   for index in range(len(ecosystem.observations()))]
        first, second = [entry for entry in reports
                         if entry[2].order.compliant][:2]
        assert first[0] != second[0]
        assert first[2].order == second[2].order
        with VerdictStore(tmp_path / "vs") as store:
            for key_hex, digest, report in (first, second):
                store.put_report(key_hex, digest, report)
        with VerdictStore(tmp_path / "vs") as store:
            a = store.get_report(first[0], first[1])
            b = store.get_report(second[0], second[1])
            assert a.order is b.order
            assert a.to_json() == first[2].to_json()
            assert b.to_json() == second[2].to_json()
            digests = [digest for _, digest in store._reports]
            assert digests[0] is digests[1]


def _section_texts(report):
    """Each section of ``report`` with its encoded JSON text."""
    sections = json.loads(report.to_json())
    return [(getattr(report, name),
             json.dumps(sections[name], separators=(",", ":")))
            for name in ("leaf", "order", "completeness")]


class TestOneTableForWritesAndReplays:
    """The store encodes every report it writes through the table that
    decoded its replay, so the index holds one section object per
    distinct section text, whether the record was written by this
    process or replayed."""

    @pytest.fixture(scope="class")
    def world(self):
        ecosystem = Ecosystem.generate(EcosystemConfig(n_domains=300,
                                                       seed=833))
        return (ecosystem.observations(), ecosystem.registry.union(),
                ecosystem.aia_repo)

    @staticmethod
    def assert_one_object_per_text(reports):
        objects: dict[str, set[int]] = {}
        for report in reports:
            for section, text in _section_texts(report):
                objects.setdefault(text, set()).add(id(section))
        assert len(objects) < len(reports)  # the corpus repeats sections
        assert all(len(ids) == 1 for ids in objects.values())

    def test_written_and_replayed_sections_are_shared(self, world, tmp_path):
        observations, union, aia = world
        half = len(observations) // 2
        with VerdictStore(tmp_path / "vs") as store:
            written, stats = analyze_observations(
                observations[:half], store=union, fetcher=aia,
                verdict_store=store)
            assert stats.analyzed == half
            # the pass keeps the report the store indexed
            indexed = list(store._reports.values())
            assert [id(r) for r in written] == [id(r) for r in indexed]
            self.assert_one_object_per_text(indexed)
        with VerdictStore(tmp_path / "vs") as store:
            # only the section texts outlive the open
            assert not (store._table._shared or store._table._strings)
            reports, stats = analyze_observations(
                observations, store=union, fetcher=aia, verdict_store=store)
            assert stats.cache_hits == half
            assert stats.analyzed == len(observations) - half
            self.assert_one_object_per_text(list(store._reports.values()))
            self.assert_one_object_per_text(reports)
        fresh = [analyze_chain(domain, chain, union, aia)
                 for domain, chain in observations]
        assert [r.to_json() for r in reports] == [r.to_json() for r in fresh]

    def test_compaction_after_writes_reproduces_the_segments(self, world,
                                                            tmp_path):
        observations, union, aia = world
        with VerdictStore(tmp_path / "vs", segment_bytes=64 * 1024) as store:
            analyze_observations(observations, store=union, fetcher=aia,
                                 verdict_store=store)
            store.flush()
            segments = sorted((tmp_path / "vs" / "segments").glob("*.seg"))
            assert len(segments) > 1
            written = b"".join(segment.read_bytes() for segment in segments)
            store.compact()
        (compacted,) = (tmp_path / "vs" / "segments").glob("*.seg")
        assert compacted.read_bytes() == written


class TestWarmStartParity:
    def run_journaled(self, campaign, stream, path, **kwargs):
        with RunJournal.create(path, campaign.manifest()) as journal:
            report, reports = campaign.analyze(
                stream, journal=journal, **kwargs
            )
        return report, reports, path.read_bytes()

    def test_warm_run_is_byte_identical(self, ecosystem, stream, tmp_path):
        campaign = Campaign(ecosystem)
        with VerdictStore(tmp_path / "vs") as cold_store:
            _, cold_reports, cold_bytes = self.run_journaled(
                campaign, stream, tmp_path / "cold.jsonl",
                verdict_store=cold_store,
            )
        with VerdictStore(tmp_path / "vs") as store:
            _, warm_reports, warm_bytes = self.run_journaled(
                campaign, stream, tmp_path / "warm.jsonl",
                verdict_store=store,
            )
            assert store.stats()["writes"] == 0
        assert warm_reports == cold_reports
        assert warm_bytes == cold_bytes

    def test_warm_run_analyzes_nothing(self, ecosystem, union, stream,
                                       tmp_path):
        with VerdictStore(tmp_path / "vs") as store:
            analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                verdict_store=store,
            )
        with VerdictStore(tmp_path / "vs") as store:
            _, stats = analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                verdict_store=store,
            )
        assert stats.analyzed == 0
        assert stats.cache_hits == len(stream)

    def test_resume_after_store_truncation(self, ecosystem, stream,
                                           tmp_path):
        """A crash mid-write costs one verdict, never correctness."""
        campaign = Campaign(ecosystem)
        with VerdictStore(tmp_path / "vs") as cold_store:
            _, cold_reports, cold_bytes = self.run_journaled(
                campaign, stream, tmp_path / "cold.jsonl",
                verdict_store=cold_store,
            )
        segment = tmp_path / "vs" / "segments" / "000001.seg"
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - 40])  # torn final record
        with VerdictStore(tmp_path / "vs") as store:
            assert store.recovered_records == 1
            _, warm_reports, warm_bytes = self.run_journaled(
                campaign, stream, tmp_path / "warm.jsonl",
                verdict_store=store,
            )
            # exactly the truncated verdict was recomputed and re-stored
            assert store.stats()["writes"] == 1
        assert warm_reports == cold_reports
        assert warm_bytes == cold_bytes


class TestDifferentialWarmStart:
    def run(self, ecosystem, store):
        harness = DifferentialHarness(
            ecosystem.registry, aia_fetcher=ecosystem.aia_repo
        )
        report = harness.run(
            ecosystem.observations(), at_time=ecosystem.config.now,
            verdict_store=store,
        )
        return [outcome.to_event() for outcome in report.outcomes]

    def test_warm_outcomes_match_cold(self, ecosystem, tmp_path):
        with VerdictStore(tmp_path / "vs") as store:
            cold = self.run(ecosystem, store)
            assert store.writes > 0
        with VerdictStore(tmp_path / "vs") as store:
            warm = self.run(ecosystem, store)
            assert store.stats()["writes"] == 0
            assert store.misses == 0
        assert json.dumps(warm, sort_keys=True) == \
            json.dumps(cold, sort_keys=True)

    def test_store_refuses_learning_cache(self, ecosystem, tmp_path):
        harness = DifferentialHarness(
            ecosystem.registry, aia_fetcher=ecosystem.aia_repo
        )
        with VerdictStore(tmp_path / "vs") as store:
            with pytest.raises(ValueError):
                harness.run(
                    ecosystem.observations(),
                    at_time=ecosystem.config.now,
                    observe_into_cache=True, verdict_store=store,
                )

    def test_capability_digest_pins_the_clients(self, ecosystem):
        harness = DifferentialHarness(
            ecosystem.registry, aia_fetcher=ecosystem.aia_repo
        )
        digest = harness.capability_digest()
        assert digest == harness.capability_digest()
        bare = DifferentialHarness(ecosystem.registry)
        assert bare.capability_digest() != digest
