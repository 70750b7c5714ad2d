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
from repro.measurement import (
    Campaign,
    VerdictCache,
    VerdictStore,
    check_store,
)
from repro.measurement.parallel import analyze_observations, chain_key
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


class TestVerdictCacheBacking:
    def test_miss_probes_backing_and_promotes(self, ecosystem, union,
                                              tmp_path):
        key_hex, digest, report = make_report(ecosystem, union)
        key = chain_key(ecosystem.observations()[0][1])
        with VerdictStore(tmp_path / "vs") as store:
            store.put_report(key_hex, digest, report)
            store.hits = store.misses = 0
            cache = VerdictCache(backing=store)
            first = cache.report_for(key, digest)
            assert first.to_json() == report.to_json()
            assert store.hits == 1
            # promoted into memory: the second hit skips the store
            assert cache.report_for(key, digest) is first
            assert store.hits == 1

    def test_store_report_writes_through(self, ecosystem, union, tmp_path):
        key_hex, digest, report = make_report(ecosystem, union)
        key = chain_key(ecosystem.observations()[0][1])
        with VerdictStore(tmp_path / "vs") as store:
            cache = VerdictCache(backing=store)
            cache.store_report(key, digest, report)
        with VerdictStore(tmp_path / "vs") as store:
            persisted = store.get_report(key_hex, digest)
            assert persisted is not None
            assert persisted.to_json() == report.to_json()


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
                cache=VerdictCache(backing=cold_store),
            )
        with VerdictStore(tmp_path / "vs") as store:
            _, warm_reports, warm_bytes = self.run_journaled(
                campaign, stream, tmp_path / "warm.jsonl",
                cache=VerdictCache(backing=store),
            )
            assert store.stats()["writes"] == 0
        assert warm_reports == cold_reports
        assert warm_bytes == cold_bytes

    def test_warm_run_analyzes_nothing(self, ecosystem, union, stream,
                                       tmp_path):
        with VerdictStore(tmp_path / "vs") as store:
            analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                cache=VerdictCache(backing=store),
            )
        with VerdictStore(tmp_path / "vs") as store:
            _, stats = analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                cache=VerdictCache(backing=store),
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
                cache=VerdictCache(backing=cold_store),
            )
        segment = tmp_path / "vs" / "segments" / "000001.seg"
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - 40])  # torn final record
        with VerdictStore(tmp_path / "vs") as store:
            assert store.recovered_records == 1
            _, warm_reports, warm_bytes = self.run_journaled(
                campaign, stream, tmp_path / "warm.jsonl",
                cache=VerdictCache(backing=store),
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
