"""Configuration-keyed construction artifacts and their per-process cache.

Building a scenario splits into two very different kinds of work:

* **artifacts** — the frozen topology (positions, O(n²) propagation-derived
  links, routing tree) and the propagation model whose draw settled it.
  These depend only on the construction-relevant half of a
  :class:`~repro.scenario.config.ScenarioConfig` (its
  :meth:`~repro.scenario.config.ScenarioConfig.cache_key`), not on the
  master seed, the MAC kind, the channel mode or tracing — so every run of
  a sweep that shares the key can share one artifact bundle;
* **per-run assembly** — the :class:`~repro.sim.engine.Simulator`, radios,
  MAC instances, nodes, RNG streams and the channel wiring (delivery rows,
  link error rates, SINR powers and sensed links, all derived from the
  bundle by :class:`~repro.net.network.Network`), rebuilt for every run.

:class:`ArtifactCache` is a small LRU keyed by ``cache_key()``.  One
process-wide instance (:data:`ARTIFACT_CACHE`) backs the scenario builder:
repeat builds of the same configuration reuse the cached bundle, and each
campaign worker process keeps its own copy (the cache is a fork-safe module
global), so a multi-seed sweep pays construction once per worker instead of
once per run.  The campaign runner configures it through the pool
initializer; ``--no-build-cache`` (or ``CampaignRunner(build_cache=False)``)
disables it.

A cached bundle's topology is frozen, so no run can mutate what later runs
share; uncacheable configs build a fresh, mutable bundle per run.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, Optional, TYPE_CHECKING

from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from repro.phy.propagation import PropagationModel

#: Default LRU capacity: small on purpose — a sweep rarely interleaves more
#: than a handful of construction configurations per worker.
DEFAULT_CACHE_SIZE = 8


@dataclass(frozen=True)
class ScenarioArtifacts:
    """The immutable, run-independent part of one scenario configuration.

    ``model`` is the propagation model instance of the draw that settled
    ``topology``'s links (None without a propagation model); SINR runs
    derive their received powers and sensed links from it.
    """

    topology: Topology
    model: Optional["PropagationModel"] = None


@dataclass
class ArtifactCache:
    """A small LRU of :class:`ScenarioArtifacts`, keyed by ``cache_key()``.

    ``enabled=False`` turns :meth:`get`/:meth:`put` into no-ops without
    dropping the stored entries, so a temporarily disabled cache (e.g. one
    ``build_cache=False`` campaign) resumes with its working set intact.
    Hit/miss/eviction counters feed the benchmarks and tests.
    """

    maxsize: int = DEFAULT_CACHE_SIZE
    enabled: bool = True
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _entries: "OrderedDict[Hashable, ScenarioArtifacts]" = field(
        default_factory=OrderedDict, repr=False
    )

    def get(self, key: Optional[Hashable]) -> Optional[ScenarioArtifacts]:
        """The cached bundle for ``key``, refreshing its LRU position."""
        if not self.enabled or key is None:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Optional[Hashable], artifacts: ScenarioArtifacts) -> None:
        """Store a bundle, evicting least-recently-used entries beyond maxsize."""
        if not self.enabled or key is None or self.maxsize < 1:
            return
        self._entries[key] = artifacts
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counters plus current size, for benchmarks and diagnostics."""
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def configure(
        self, enabled: Optional[bool] = None, maxsize: Optional[int] = None
    ) -> None:
        """Reconfigure in place (campaign workers call this at pool init)."""
        if enabled is not None:
            self.enabled = bool(enabled)
        if maxsize is not None:
            if maxsize < 1:
                raise ValueError(f"cache maxsize must be positive, got {maxsize}")
            self.maxsize = maxsize
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    @contextmanager
    def override(
        self, enabled: Optional[bool] = None, maxsize: Optional[int] = None
    ) -> Iterator["ArtifactCache"]:
        """Temporarily reconfigure; the previous settings are restored on exit.

        Entries evicted by a temporarily smaller ``maxsize`` stay evicted
        (restoring them would misrepresent the LRU history).
        """
        previous = (self.enabled, self.maxsize)
        try:
            self.configure(enabled=enabled, maxsize=maxsize)
            yield self
        finally:
            self.enabled, self.maxsize = previous


#: The process-wide construction cache used by :class:`ScenarioBuilder`.
#: Campaign workers reconfigure it through the pool initializer; each
#: forked worker holds its own copy.
ARTIFACT_CACHE = ArtifactCache()


def configure_artifact_cache(
    enabled: Optional[bool] = None, maxsize: Optional[int] = None
) -> None:
    """Module-level convenience over :meth:`ArtifactCache.configure`."""
    ARTIFACT_CACHE.configure(enabled=enabled, maxsize=maxsize)


def artifact_cache_stats() -> Dict[str, int]:
    """Counters of the process-wide cache (see :meth:`ArtifactCache.stats`)."""
    return ARTIFACT_CACHE.stats()
