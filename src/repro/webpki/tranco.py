"""A synthetic Tranco-style ranked domain population.

The paper scans the Tranco Top 1M (list 833KV).  Offline we generate a
deterministic ranked list of plausible domain names.  Rank matters only
insofar as infrastructure choices skew with popularity (top sites use
CDNs and automation more), which the ecosystem generator exploits via
:meth:`DomainEntry.popularity_tier`.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass

_TLDS = (
    ("com", 48), ("org", 9), ("net", 8), ("io", 4), ("de", 4), ("co.uk", 3),
    ("ru", 3), ("fr", 2), ("jp", 2), ("br", 2), ("in", 2), ("gov.tw", 1),
    ("edu", 1), ("info", 2), ("xyz", 2), ("app", 2), ("dev", 1), ("cn", 2),
    ("nl", 1), ("it", 1),
)

_TLD_NAMES = tuple(tld for tld, _ in _TLDS)
#: what rng.choices(weights=...) would accumulate on every call
_TLD_CUM_WEIGHTS = list(itertools.accumulate(weight for _, weight in _TLDS))

_WORDS = (
    "alpha", "nova", "cloud", "shop", "media", "data", "blue", "green",
    "hyper", "meta", "pixel", "prime", "rapid", "smart", "solar", "terra",
    "ultra", "vivid", "zen", "apex", "bright", "core", "delta", "echo",
    "flux", "grid", "halo", "iris", "jade", "karma", "lumen", "mono",
    "north", "orbit", "pulse", "quartz", "river", "stone", "tidal", "unity",
)


@dataclass(frozen=True, slots=True)
class DomainEntry:
    """One ranked domain."""

    rank: int
    name: str

    @property
    def popularity_tier(self) -> str:
        """``"head"`` (top 1%), ``"torso"`` (next 19%), or ``"tail"``.

        The generator never hardcodes absolute ranks, so the tiers hold
        at any list size via the rank recorded against the list length
        at creation (encoded in the name is unnecessary; callers pass
        the list around).
        """
        # Tiers are resolved by TrancoList.tier_of; kept here for repr.
        return "unknown"


class TrancoList:
    """A deterministic ranked list of ``size`` synthetic domains."""

    def __init__(self, *, size: int, seed: int = 833) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.seed = seed
        rng = random.Random(seed)
        seen: set[str] = set()
        entries: list[DomainEntry] = []
        rank = 1
        while len(entries) < size:
            name = self._mint_name(rng, rank)
            if name in seen:
                continue
            seen.add(name)
            entries.append(DomainEntry(rank, name))
            rank += 1
        self._entries = entries

    @staticmethod
    def _mint_name(rng: random.Random, rank: int) -> str:
        tld = rng.choices(_TLD_NAMES, cum_weights=_TLD_CUM_WEIGHTS)[0]
        word_a = rng.choice(_WORDS)
        word_b = rng.choice(_WORDS)
        style = rng.random()
        if style < 0.45:
            label = f"{word_a}{word_b}"
        elif style < 0.8:
            label = f"{word_a}-{word_b}{rank % 97}"
        else:
            label = f"{word_a}{rank}"
        return f"{label}.{tld}"

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[DomainEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> DomainEntry:
        return self._entries[index]

    def domains(self) -> list[str]:
        """All domain names in rank order."""
        return [entry.name for entry in self._entries]

    def tier_of(self, entry: DomainEntry) -> str:
        """Popularity tier relative to this list's size."""
        if entry.rank <= max(1, self.size // 100):
            return "head"
        if entry.rank <= max(1, self.size // 5):
            return "torso"
        return "tail"
