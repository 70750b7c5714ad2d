"""Damage for run journals and verdict stores, written once.

The tests that feed damaged input to the readers, and the reference
probes (``reference/test_reference_campaign.py``), build their damaged
copies here: find a journal's first event of a type, rewrite one JSONL
line through a change, or rewrite the first record of a store's first
segment.  A rewritten line is encoded the way the journal and the store
write theirs (compact JSON, one line), so the damage is the change and
nothing else.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path

Change = Callable[[dict], object]


def encode(event: dict, *, ensure_ascii: bool = True) -> bytes:
    """``event`` as one compact JSONL line."""
    return json.dumps(event, separators=(",", ":"),
                      ensure_ascii=ensure_ascii).encode() + b"\n"


def first_event(lines: list[bytes], kind: str) -> int:
    """The index of the first journal line holding a ``kind`` event."""
    prefix = b'{"type":"%s"' % kind.encode()
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def rewrite_line(lines: list[bytes], at: int, change: Change, *,
                 ensure_ascii: bool = True) -> bytes:
    """``lines`` joined, line ``at`` decoded, handed to ``change`` (which
    edits it in place) and encoded again."""
    event = json.loads(lines[at])
    change(event)
    return b"".join([*lines[:at], encode(event, ensure_ascii=ensure_ascii),
                     *lines[at + 1:]])


def first_segment(store: Path) -> Path:
    return sorted((Path(store) / "segments").glob("*.seg"))[0]


def rewrite_first_record(store: Path, change: Change) -> None:
    """Rewrite the first record of ``store``'s first segment through
    ``change``, in place."""
    segment = first_segment(store)
    lines = segment.read_bytes().splitlines(keepends=True)
    segment.write_bytes(rewrite_line(lines, 0, change))


#: Four stored records a store's open refuses, each one field of the
#: wrong JSON type: a flag where an index belongs, a chain key that is
#: not fingerprints, a digest that is not a string, and an evidence
#: record whose rule ID is a number.
STORE_DAMAGES: dict[str, Change] = {
    "deciding_index": lambda record: record["report"]["leaf"].update(
        deciding_index=True),
    "chain_key": lambda record: record.update(chain_key=[1, 2]),
    "digest": lambda record: record.update(digest=5),
    "evidence": lambda record: record["report"]["completeness"]["evidence"][
        0].update(rule_id=5),
}
