"""A seeded hostile-input corpus for the journal read.

Two real journals — a 30-domain ``scan --simulate-network --journal``
and a 30-domain ``differential --journal`` — are mutated into 200
seeded mutants.  Each mutant either reads, every verdict a decoded
:class:`~repro.core.compliance.ChainComplianceReport` whose ``to_json``
parses and every attribution record an
:class:`~repro.obs.evidence.Evidence`, or is refused with one
:class:`~repro.errors.JournalError`; and ``report`` on it exits 0 when
it reads and 2 with one stderr line when it does not.  Any other
exception is a defect.

The mutation mix is weighted the way the PKISecOPS synthetic-certificate
generator weights the flaws it plants (``FLAW_WEIGHTS`` 10/7/6/2, higher
= more common): a crash can cut a journal at any byte, so truncation
leads, and a hand-edited non-ASCII domain is the rarest.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.core.compliance import ChainComplianceReport
from repro.errors import JournalError
from repro.obs.evidence import Evidence
from repro.obs.journal import read_journal
from tests.damage import first_event, rewrite_line

SEED = 833
MUTANTS = 200

#: Mutation kind → weight (higher = more common).
MUTATION_WEIGHTS = {
    "truncate": 10,
    "flip_bit": 7,
    "swap_type": 6,
    "duplicate_or_drop_line": 4,
    "non_ascii_domain": 2,
}

#: One value of each JSON type, for a field swapped to another type.
JSON_VALUES = ("x", 7, 1.5, True, None, [], {})

NON_ASCII_LABELS = ("bücher", "例え", "пример", "ελληνικά")


def truncate(rng: random.Random, data: bytes) -> bytes:
    return data[:rng.randrange(len(data))]


def flip_bit(rng: random.Random, data: bytes) -> bytes:
    mutant = bytearray(data)
    mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
    return bytes(mutant)


def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True)


def _fields(value, found):
    """Every (container, key) under ``value``, depth first."""
    items = (value.items() if type(value) is dict
             else enumerate(value) if type(value) is list else ())
    for key, item in items:
        found.append((value, key))
        _fields(item, found)
    return found


def swap_type(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)

    def change(event):
        container, key = rng.choice(_fields(event, []))
        container[key] = rng.choice(
            [value for value in JSON_VALUES
             if type(value) is not type(container[key])])

    return rewrite_line(lines, rng.randrange(len(lines)), change)


def duplicate_or_drop_line(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)
    at = rng.randrange(len(lines))
    if rng.random() < 0.5:
        lines.insert(at, lines[at])
    else:
        del lines[at]
    return b"".join(lines)


def non_ascii_domain(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)
    at = rng.choice([i for i, line in enumerate(lines)
                     if b'"domain":' in line])
    label = rng.choice(NON_ASCII_LABELS)

    def change(event):
        event["domain"] = domain = f"{label}.{event['domain']}"
        if type(event.get("report")) is dict:
            event["report"]["domain"] = domain

    return rewrite_line(lines, at, change, ensure_ascii=rng.random() < 0.5)


MUTATIONS = {mutate.__name__: mutate for mutate in (
    truncate, flip_bit, swap_type, duplicate_or_drop_line, non_ascii_domain)}


def draw_kind(rng: random.Random) -> str:
    """A mutation kind, drawn by weight."""
    kind, = rng.choices(list(MUTATION_WEIGHTS),
                        weights=list(MUTATION_WEIGHTS.values()))
    return kind


#: (source journal, mutant index, mutation kind) per mutant: each mutant
#: draws its kind, then its mutation, from its own seeded generator.
PLAN = [("scan" if index % 2 == 0 else "differential", index,
         draw_kind(random.Random(f"{SEED}:{index}")))
        for index in range(MUTANTS)]


@pytest.fixture(scope="module")
def journals(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    paths = {"scan": root / "scan.jsonl",
             "differential": root / "differential.jsonl"}
    assert main(["scan", "--domains", "30", "--seed", str(SEED),
                 "--simulate-network", "--journal",
                 str(paths["scan"])]) == 0
    assert main(["differential", "--domains", "30", "--seed", str(SEED),
                 "--journal", str(paths["differential"])]) == 0
    return {source: path.read_bytes() for source, path in paths.items()}


def test_the_mix_covers_every_mutation():
    kinds = [kind for _, _, kind in PLAN]
    assert set(kinds) == set(MUTATION_WEIGHTS)
    assert kinds.count("truncate") > kinds.count("non_ascii_domain")


@pytest.mark.parametrize(
    "source, index, kind", PLAN,
    ids=[f"{source}-{index:03d}-{kind}" for source, index, kind in PLAN])
def test_a_mutant_reads_or_is_refused_in_one_line(journals, source, index,
                                                  kind, tmp_path, capsys):
    rng = random.Random(f"{SEED}:{index}")
    assert draw_kind(rng) == kind
    path = tmp_path / "mutant.jsonl"
    path.write_bytes(MUTATIONS[kind](rng, journals[source]))

    try:
        _, events = read_journal(path)
    except JournalError as exc:
        refusal = str(exc)
        assert refusal.startswith(str(path)) and "\n" not in refusal
    else:
        refusal = None
        for event in events:
            if event["type"] == "verdict":
                assert type(event["report"]) is ChainComplianceReport
                json.loads(event["report"].to_json())
            elif event["type"] == "differential":
                assert all(type(record) is Evidence
                           for record in event.get("attribution", ()))

    capsys.readouterr()
    code = main(["report", str(path)])
    captured = capsys.readouterr()
    if refusal is None:
        assert code == 0, captured.err
        assert captured.err == ""
    else:
        assert code == 2
        assert captured.err == f"repro-chain report: {refusal}\n"
        assert captured.out == ""


@pytest.mark.parametrize("domain, reads", [
    ("\ud800.example", False),  # a lone surrogate: no UTF-8 output holds it
    ("\U0001f600.example", True),  # an escaped pair: one astral character
], ids=["lone-surrogate", "surrogate-pair"])
def test_an_escaped_surrogate_in_a_domain(journals, domain, reads, tmp_path,
                                          capsys):
    """A scan event whose domain escapes a surrogate: a pair is one
    character and reads; a lone one parses as JSON but no rendered
    report could print it, so the read refuses its line."""
    lines = _lines(journals["scan"])
    at = first_event(lines, "scan")
    path = tmp_path / "escaped.jsonl"
    path.write_bytes(rewrite_line(
        lines, at, lambda event: event.update(domain=domain)))
    capsys.readouterr()
    code = main(["report", str(path), "--top", "1000"])
    captured = capsys.readouterr()
    if reads:
        assert code == 0
        assert domain in captured.out
    else:
        assert code == 2
        assert captured.err.startswith(
            f"repro-chain report: {path}:{at + 1}: malformed journal line: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
