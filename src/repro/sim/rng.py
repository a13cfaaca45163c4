"""Named random-number streams.

Each component of the simulation (traffic generators, MAC backoff, channel
error injection, QMA exploration, ...) draws from its own named stream so
that adding or removing one component does not perturb the random sequence
seen by the others.  This mirrors the per-module RNG discipline of OMNeT++
and is what makes experiment repetitions reproducible.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List


class RngRegistry:
    """A registry of named, independently seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream with the given name."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive_seed(name))
        return self._streams[name]

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def reseed(self, master_seed: int) -> None:
        """Reseed every existing stream from a new master seed."""
        self.master_seed = int(master_seed)
        for name, stream in self._streams.items():
            stream.seed(self._derive_seed(name))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)


def seed_substreams(seed: int, n: int) -> List["object"]:
    """``n`` independent ``numpy.random.Generator`` substreams of one seed.

    Spawned through :class:`numpy.random.SeedSequence`, so the streams are
    statistically independent of each other (unlike ``seed + i`` offsets)
    and reproducible: the same ``(seed, n)`` always yields the same
    sequence of generators, and substream ``i`` does not change when ``n``
    grows.  Used by the seeded random-topology placement.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    import numpy.random as npr

    children = npr.SeedSequence(int(seed)).spawn(n)
    return [npr.default_rng(child) for child in children]
