"""The report codec's one decoder: a table shares equal sections, and
decodes and refuses exactly as a payload decoded on its own.

The reference below is the per-payload decoder the table replaced,
kept as it was but for the exact JSON type each field must hold
(``exact``, ``strings``, ``reference_evidence``): one table over a whole
list of stored payloads, seeded mutants among them, must give every
payload the reference's report (equal, with identical ``to_json`` text)
or the reference's refusal (identical message).  Evidence records are
type-exact too, so a mutant whose record holds a number where a string
belongs, or an edge that is not two integers, is refused.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.core import analyze_chain, compliance
from repro.core.compliance import ChainComplianceReport, ReportTable
from repro.core.completeness import CompletenessAnalysis, CompletenessClass
from repro.core.leaf import LeafAnalysis, LeafPlacement
from repro.core.order import OrderAnalysis, OrderDefect
from repro.errors import PayloadError
from repro.obs.evidence import Evidence
from repro.webpki import Ecosystem, EcosystemConfig


JSON_KINDS = {str: "a string", int: "an integer", bool: "a boolean",
              float: "a number", list: "an array", dict: "an object",
              type(None): "null"}


def exact(section, name, kind, nullable=False):
    """``section[name]``, refused unless its JSON type is ``kind`` (or
    null, where ``nullable``)."""
    value = section[name]
    if type(value) is kind or (nullable and value is None):
        return value
    wanted = JSON_KINDS[kind] + (" or null" if nullable else "")
    raise TypeError(f"{name!r} must be {wanted}, "
                    f"not {JSON_KINDS[type(value)]}")


def strings(section, name):
    """``section[name]``, refused unless it is an array of strings."""
    values = section[name]
    if type(values) is not list:
        raise TypeError(f"{name!r} must be an array of strings, "
                        f"not {JSON_KINDS[type(values)]}")
    for value in values:
        if type(value) is not str:
            raise TypeError(f"{name!r} must be an array of strings, "
                            f"not one holding {JSON_KINDS[type(value)]}")
    return values


def reference_edges(record):
    edges = exact(record, "edges", list)
    for edge in edges:
        if not (type(edge) is list and len(edge) == 2
                and type(edge[0]) is int and type(edge[1]) is int):
            raise TypeError("'edges' must be an array of two-integer arrays")
    return tuple(map(tuple, edges))


def reference_evidence(record) -> Evidence:
    """One evidence record, each field of its exact JSON type; an absent
    ``certs``, ``edges`` or ``details`` is empty."""
    if type(record) is not dict:
        raise TypeError(f"an evidence record must be an object, "
                        f"not {JSON_KINDS[type(record)]}")
    return Evidence(
        rule_id=exact(record, "rule_id", str),
        verdict=exact(record, "verdict", str),
        summary=exact(record, "summary", str),
        certs=tuple(strings(record, "certs")) if "certs" in record else (),
        edges=reference_edges(record) if "edges" in record else (),
        details=(dict(exact(record, "details", dict))
                 if "details" in record else {}),
    )


def reference_decode(payload) -> ChainComplianceReport:
    """The decoder each payload went through before the table, with
    every field's JSON type checked."""
    try:
        leaf = payload["leaf"]
        order = payload["order"]
        completeness = payload["completeness"]

        def _evidence(section):
            if "evidence" not in section:
                return ()
            return tuple(reference_evidence(e)
                         for e in exact(section, "evidence", list))

        return ChainComplianceReport(
            domain=exact(payload, "domain", str),
            chain_length=exact(payload, "chain_length", int),
            leaf=LeafAnalysis(
                placement=LeafPlacement(leaf["placement"]),
                deciding_index=exact(leaf, "deciding_index", int, True),
                evidence=_evidence(leaf),
            ),
            order=OrderAnalysis(
                defects=frozenset(
                    OrderDefect(d) for d in strings(order, "defects")
                ),
                duplicate_roles=frozenset(strings(order, "duplicate_roles")),
                max_duplicate_count=exact(order, "max_duplicate_count", int),
                irrelevant_count=exact(order, "irrelevant_count", int),
                path_count=exact(order, "path_count", int),
                reversed_any=exact(order, "reversed_any", bool),
                reversed_all=exact(order, "reversed_all", bool),
                path_structures=tuple(strings(order, "path_structures")),
                compliant=exact(order, "compliant", bool),
                evidence=_evidence(order),
            ),
            completeness=CompletenessAnalysis(
                category=CompletenessClass(completeness["category"]),
                missing_count=exact(completeness, "missing_count", int,
                                    True),
                aia_outcome=exact(completeness, "aia_outcome", str, True),
                evidence=_evidence(completeness),
            ),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise PayloadError(
            f"report payload does not decode "
            f"({type(exc).__name__}: {exc})"
        ) from None


@pytest.fixture(scope="module")
def payloads():
    """Stored report payloads of a seeded corpus, as the store reads
    them back: ``json.loads`` of each report's ``to_json``."""
    ecosystem = Ecosystem.generate(EcosystemConfig(n_domains=300, seed=833))
    union = ecosystem.registry.union()
    return [
        json.loads(analyze_chain(domain, chain, union,
                                 ecosystem.aia_repo).to_json())
        for domain, chain in ecosystem.observations()
    ]


# -- seeded mutants -----------------------------------------------------

#: Values a JSON decoder hands back that compare or hash alike.
CONFUSABLE = (1, 1.0, True, 0, 0.0, -0.0, False, None, "1", "")
SECTIONS = ("leaf", "order", "completeness")
SCALAR_FIELDS = (
    ((), "chain_length"),
    (("leaf",), "deciding_index"),
    (("order",), "max_duplicate_count"),
    (("order",), "irrelevant_count"),
    (("order",), "path_count"),
    (("order",), "reversed_any"),
    (("order",), "reversed_all"),
    (("order",), "compliant"),
    (("completeness",), "missing_count"),
    (("completeness",), "aia_outcome"),
)
LIST_FIELDS = ("defects", "duplicate_roles", "path_structures")


def _section(payload, path):
    for name in path:
        payload = payload[name]
    return payload


def _evidence_record(payload, rng):
    """An evidence record of ``payload`` to mutate, adding one to a
    random section when it has none."""
    records = [(name, record) for name in SECTIONS
               for record in payload[name]["evidence"]]
    if records:
        return rng.choice(records)[1]
    record = {"rule_id": "R3.incomplete", "verdict": "violation",
              "summary": "added", "certs": ["ab" * 32], "edges": [[1, 0]],
              "details": {"category": "incomplete"}}
    payload[rng.choice(SECTIONS)]["evidence"].append(record)
    return record


def confuse_scalar(payload, rng):
    path, name = rng.choice(SCALAR_FIELDS)
    _section(payload, path)[name] = rng.choice(CONFUSABLE)


def confuse_enum(payload, rng):
    section, name = rng.choice((("leaf", "placement"),
                                ("completeness", "category")))
    payload[section][name] = rng.choice(CONFUSABLE + ("not_a_class",))


def confuse_list(payload, rng):
    values = payload["order"][rng.choice(LIST_FIELDS)]
    values.append(rng.choice(CONFUSABLE + ([1],)))


def nested_details(payload, rng):
    record = _evidence_record(payload, rng)
    details = record["details"]
    if rng.random() < 0.7:
        details[rng.choice(list(details) or ["k"])] = rng.choice(
            ([1, 2], {"a": 1}, [], {}, 1.5))
    else:
        record["details"] = rng.choice(
            ([["category", "x"]], "x", 5, None, [[1, 2, 3]]))


def non_string_certs(payload, rng):
    record = _evidence_record(payload, rng)
    if rng.random() < 0.7:
        record["certs"] = list(record["certs"]) + [
            rng.choice((1, True, None, 1.0, ["ab"], {"a": 1}))]
    else:
        record["certs"] = rng.choice(("abc", 5, None, {"ab": 1}))


def confuse_evidence(payload, rng):
    record = _evidence_record(payload, rng)
    choice = rng.randrange(3)
    if choice == 0:
        record[rng.choice(("rule_id", "verdict", "summary"))] = rng.choice(
            CONFUSABLE)
    elif choice == 1:
        record["edges"] = [rng.choice(([1, 2.0], [True, 0], ["1", "2"],
                                       [1, 2, 3], [0, 1]))]
    else:  # the same fields, out of their encoded order
        payload_order = list(record.items())
        rng.shuffle(payload_order)
        record.clear()
        record.update(payload_order)


def missing_field(payload, rng):
    choice = rng.randrange(4)
    if choice == 0:
        del payload[rng.choice(SECTIONS + ("domain", "chain_length"))]
    elif choice == 1:
        section = payload[rng.choice(SECTIONS)]
        del section[rng.choice(list(section))]
    elif choice == 2:
        record = _evidence_record(payload, rng)
        del record[rng.choice(list(record))]
    else:
        payload[rng.choice(SECTIONS)]["evidence"] = rng.choice(
            (0, None, {}, "", [5], [[]]))


def swap_sections(payload, rng):
    """One section's payload where another kind's belongs: equal JSON
    values of different kinds must never share."""
    source = copy.deepcopy(payload[rng.choice(SECTIONS)])
    if rng.random() < 0.5:
        payload[rng.choice(SECTIONS)] = source
    else:
        payload[rng.choice(SECTIONS)]["evidence"] = [source]


MUTATIONS = (confuse_scalar, confuse_enum, confuse_list, nested_details,
             non_string_certs, confuse_evidence, swap_sections,
             missing_field)


# Sites where a family of payloads differs in one value only: every
# CONFUSABLE value at the same place, so a key that conflates two of
# them hands one payload the other's section.

def scalar_site(payload, rng, value):
    path, name = rng.choice(SCALAR_FIELDS)
    _section(payload, path)[name] = value


def detail_site(payload, rng, value):
    details = _evidence_record(payload, rng)["details"]
    details[rng.choice(list(details))] = value


def cert_site(payload, rng, value):
    record = _evidence_record(payload, rng)
    record["certs"] = [*record["certs"], value]


def text_site(payload, rng, value):
    record = _evidence_record(payload, rng)
    record[rng.choice(("rule_id", "verdict", "summary"))] = value


def list_site(payload, rng, value):
    payload["order"][rng.choice(LIST_FIELDS[1:])] = [value]


SITES = (scalar_site, detail_site, cert_site, text_site, list_site)


def confusable_family(payload, rng) -> list[dict]:
    site, site_seed = rng.choice(SITES), rng.random()
    family = []
    for value in CONFUSABLE:
        member = copy.deepcopy(payload)
        site(member, random.Random(site_seed), value)
        family.append(member)
    return family


def outcome(decode, payload):
    """What decoding ``payload`` gives: the report and its text, or the
    refusal's message."""
    try:
        report = decode(payload)
    except PayloadError as exc:
        return "refused", str(exc), None
    try:
        text = report.to_json()
    except (TypeError, ValueError) as exc:  # e.g. mixed-type role lists
        text = f"{type(exc).__name__}: {exc}"
    return "decoded", report, text


class TestOneTableMatchesTheReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_shared_decode_equals_per_payload_decode(self, payloads, seed):
        rng = random.Random(seed)
        batch = [copy.deepcopy(p) for p in payloads]
        for _ in range(2 * len(payloads)):
            mutant = copy.deepcopy(rng.choice(payloads))
            picked = rng.sample(range(len(MUTATIONS)), rng.randint(1, 2))
            for index in sorted(picked):  # missing_field, if any, last
                MUTATIONS[index](mutant, rng)
            batch.append(mutant)
        for _ in range(40):
            batch += confusable_family(rng.choice(payloads), rng)
        batch += [copy.deepcopy(p) for p in payloads]
        rng.shuffle(batch)

        table = ReportTable()
        refused = 0
        for payload in batch:
            kind, got, text = outcome(table.decode, payload)
            ref_kind, want, ref_text = outcome(reference_decode, payload)
            assert (kind, text) == (ref_kind, ref_text), payload
            if kind == "refused":
                assert got == want
                assert got.startswith("report payload does not decode")
                refused += 1
            else:
                assert got == want
        # the mutants exercise both outcomes
        assert 0 < refused < len(batch) - 2 * len(payloads)
        assert table._shared  # and the table shared what repeats

    def test_equal_sections_share_and_confusable_scalars_do_not(self,
                                                                payloads):
        table = ReportTable()
        reports = [table.decode(copy.deepcopy(p)) for p in payloads]
        orders = {id(r.order) for r in reports}
        completeness = {id(r.completeness) for r in reports}
        assert len(orders) < len(reports) / 2
        assert len(completeness) < len(reports) / 2
        base = next(p for p in payloads
                    if p["leaf"]["deciding_index"] == 0
                    and not p["leaf"]["evidence"])
        leaves = []
        for value in (0, None, 1):
            mutant = copy.deepcopy(base)
            mutant["leaf"]["deciding_index"] = value
            leaves.append(table.decode(mutant).leaf)
        assert len({id(leaf) for leaf in leaves}) == len(leaves)
        assert table.decode(copy.deepcopy(base)).leaf is leaves[0]
        for value in (False, 0.0, True, 1.0, "1"):
            mutant = copy.deepcopy(base)
            mutant["leaf"]["deciding_index"] = value
            with pytest.raises(PayloadError, match="'deciding_index' must "
                               "be an integer or null"):
                table.decode(mutant)

    def test_nested_details_share_only_when_equal(self, payloads):
        base = next(p for p in payloads if p["completeness"]["evidence"])
        table = ReportTable()
        sections = []
        for value in ([1], [1], [True], [1.0], {"a": 0}, {"a": None}):
            payload = copy.deepcopy(base)
            payload["completeness"]["evidence"][0]["details"]["k"] = value
            sections.append(table.decode(payload).completeness)
        assert sections[0] is sections[1]
        assert len({id(section) for section in sections}) == 5


class TestRefusals:
    @pytest.mark.parametrize("edges", ([[1]], [[]], [[1e400, 0]]))
    def test_short_or_unbounded_edges_are_refused(self, payloads, edges):
        """An edge the decoder cannot read as two integers is a typed
        refusal, not an IndexError or OverflowError traceback."""
        payload = copy.deepcopy(
            next(p for p in payloads if p["completeness"]["evidence"]))
        payload["completeness"]["evidence"][0]["edges"] = edges
        with pytest.raises(PayloadError, match="does not decode"):
            ReportTable().decode(payload)


class TestSectionTexts:
    """Decoding encodes nothing, so a read-only pass (journal resume,
    the shard fold, the run report) pays for no text; the verdict
    store, which frames texts, has its table key each decoded section
    on its text once, at :meth:`ReportTable.end_decode`."""

    @pytest.fixture()
    def encoded(self, monkeypatch):
        """The sections the codec's section encoders are called on."""
        calls = []

        def counted(encode):
            def encoder(section):
                calls.append(section)
                return encode(section)
            return encoder

        for name in ("_leaf_json", "_order_json", "_completeness_json"):
            monkeypatch.setattr(compliance, name,
                                counted(getattr(compliance, name)))
        monkeypatch.setattr(compliance, "_SECTION_JSON", {
            kind: counted(encode)
            for kind, encode in compliance._SECTION_JSON.items()})
        return calls

    def test_a_decode_pass_encodes_no_section(self, payloads, encoded):
        table = ReportTable()
        reports = [table.decode(copy.deepcopy(p)) for p in payloads]
        assert encoded == []
        table.end_decode()
        distinct = {id(section) for report in reports
                    for section in (report.leaf, report.order,
                                    report.completeness)}
        assert len(distinct) < len(reports)  # the corpus repeats sections
        assert sorted(map(id, encoded)) == sorted(distinct)
        encoded.clear()
        assert [table.text(report) for report in reports] == [
            json.dumps(p, separators=(",", ":")) for p in payloads]
        assert encoded == []

    def test_the_run_report_encodes_no_section(self, payloads, encoded):
        from repro.obs.report import build_report

        events = [{"type": "verdict", "domain": p["domain"],
                   "chain_key": [f"{index:064x}"], "report": p}
                  for index, p in enumerate(payloads)]
        report = build_report({"type": "manifest", "seed": 833}, events)
        assert report.verdict_total == len(payloads)
        assert encoded == []


def test_intern_shares_equal_strings():
    table = ReportTable()
    first = "".join(["ab", "cd"])
    second = "".join(["abc", "d"])
    assert first is not second
    assert table.intern(first) is first
    assert table.intern(second) is first
    assert table.intern(5) == 5
    assert ReportTable().intern(second) is second
