"""Configuration-keyed construction artifacts and their per-process cache.

Building a scenario splits into two very different kinds of work:

* **artifacts** — the topology (positions, O(n²) propagation-derived links,
  routing tree) and the channel's link-table skeleton (per-sender ordered
  ``(receiver, packet-error-rate)`` rows).  These depend only on the
  construction-relevant half of a :class:`~repro.scenario.config.ScenarioConfig`
  (its :meth:`~repro.scenario.config.ScenarioConfig.cache_key`), not on the
  master seed, the MAC kind or tracing — so every run of a sweep that
  shares the key can share one artifact bundle;
* **per-run assembly** — the :class:`~repro.sim.engine.Simulator`, radios,
  MAC instances, nodes and RNG streams, which are stateful and rebuilt for
  every run.

:class:`ArtifactCache` is a small LRU keyed by ``cache_key()``.  One
process-wide instance (:data:`ARTIFACT_CACHE`) backs the scenario builder:
repeat builds of the same configuration reuse the cached bundle, and each
campaign worker process keeps its own copy (the cache is a fork-safe module
global), so a multi-seed sweep pays construction once per worker instead of
once per run.  The campaign runner configures it through the pool
initializer; ``--no-build-cache`` (or ``CampaignRunner(build_cache=False)``)
disables it.

Staleness: artifacts snapshot ``topology.version`` at build time.  Builder-
produced cached artifacts freeze their topology, so mutation raises; for
explicitly constructed (unfrozen) artifact bundles, a topology mutated
between runs is detected via the version counter and the stale link-table
skeleton is discarded — the next run re-derives delivery rows from the live
topology state instead of serving stale rows (see
:meth:`ScenarioArtifacts.current_link_table`).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, Optional, Tuple, TYPE_CHECKING

from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from repro.phy.propagation import PropagationModel

#: Per-sender ordered delivery rows:
#: sender id -> ((receiver id, rx power dBm, PER), ...).  The power column
#: feeds the SINR interference model; collision-model runs carry 0.0.
LinkTableSkeleton = Dict[int, Tuple[Tuple[int, float, float], ...]]

#: Per-sender ordered carrier-sense-only rows:
#: sender id -> ((receiver id, rx power dBm), ...).  Receivers that sense a
#: sender's energy (CCA busy, interference) without being able to decode it.
CarrierSenseSkeleton = Dict[int, Tuple[Tuple[int, float], ...]]

#: Default LRU capacity: small on purpose — a sweep rarely interleaves more
#: than a handful of construction configurations per worker.
DEFAULT_CACHE_SIZE = 8


def link_table_skeleton(
    topology: Topology,
    link_error_rate: float,
    model: Optional["PropagationModel"] = None,
) -> LinkTableSkeleton:
    """Precompute the channel's per-sender ``(receiver, power, PER)`` rows.

    The receiver order of each row reproduces exactly the neighbour-set
    iteration order a :class:`~repro.phy.channel.WirelessChannel` arrives at
    when :class:`~repro.net.network.Network` wires the same topology: sets
    are created in node-id order and filled in ``topology.links`` iteration
    order, the same insertion sequence the channel's ``connect`` calls
    perform — so deliveries (and therefore per-link error draws, which
    consume the channel RNG in delivery order) are bit-identical whether
    the skeleton or the channel's own lazy build produced the table.

    ``model`` (the settled propagation model the topology was derived from)
    supplies each directed link's received power; without one the power
    column is 0.0 — correct for the collision model, which never reads it.
    """
    neighbours: Dict[int, set] = {node_id: set() for node_id in topology.node_ids}
    for link in topology.links:
        a, b = tuple(link)
        neighbours[a].add(b)
        neighbours[b].add(a)
    per = float(link_error_rate)
    if model is None:
        return {
            sender: tuple((receiver, 0.0, per) for receiver in neighbours[sender])
            for sender in topology.node_ids
        }
    positions = topology.positions
    return {
        sender: tuple(
            (
                receiver,
                model.received_power_dbm(positions[sender], positions[receiver]),
                per,
            )
            for receiver in neighbours[sender]
        )
        for sender in topology.node_ids
    }


def carrier_sense_skeleton(
    topology: Topology, model: "PropagationModel"
) -> CarrierSenseSkeleton:
    """Precompute per-sender carrier-sense-only rows for the SINR model.

    A receiver is sensed-only for a sender when it lies inside the model's
    carrier-sense range but shares no communication link with it in the
    topology.  Pairs are enumerated in node-id order — the same ordered
    iteration :meth:`Network` uses when wiring sensed links live, so the
    channel's ``_cs_neighbours`` insertion order is identical either way.
    """
    linked: Dict[int, set] = {node_id: set() for node_id in topology.node_ids}
    for link in topology.links:
        a, b = tuple(link)
        linked[a].add(b)
        linked[b].add(a)
    positions = topology.positions
    ids = list(topology.node_ids)
    sensed: Dict[int, list] = {node_id: [] for node_id in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if b in linked[a]:
                continue
            pos_a, pos_b = positions[a], positions[b]
            if model.in_carrier_sense_range(pos_a, pos_b):
                sensed[a].append((b, model.received_power_dbm(pos_a, pos_b)))
            if model.in_carrier_sense_range(pos_b, pos_a):
                sensed[b].append((a, model.received_power_dbm(pos_b, pos_a)))
    return {sender: tuple(rows) for sender, rows in sensed.items()}


@dataclass(frozen=True)
class ScenarioArtifacts:
    """The immutable, run-independent part of one scenario configuration.

    ``key`` is the producing config's ``cache_key()`` (None when the config
    is uncacheable); ``topology_version`` snapshots ``topology.version`` at
    build time so stale bundles are detected when an unfrozen shared
    topology is mutated between runs.
    """

    key: Optional[Hashable]
    topology: Topology
    topology_version: int
    link_table: LinkTableSkeleton
    #: Registered topology name of the producing config; lets the builder
    #: reject cross-config bundle reuse even when ``key`` is None
    #: (uncacheable configs).  None for hand-assembled bundles, which opt
    #: out of validation entirely.
    topology_kind: Optional[str] = None
    #: Carrier-sense-only rows for SINR runs; None for collision-model
    #: bundles (whose cache keys can never collide with SINR ones — the
    #: interference model is part of the key).
    cs_table: Optional[CarrierSenseSkeleton] = None

    def is_current(self) -> bool:
        """True while the topology still matches the snapshotted artifacts."""
        return self.topology.version == self.topology_version

    def current_link_table(self) -> Optional[LinkTableSkeleton]:
        """The skeleton, or None when the topology was mutated after build.

        A stale skeleton is never served: the channel then derives its
        delivery rows from the live topology wiring before the first
        transmission, after which links are fixed.
        """
        return self.link_table if self.is_current() else None

    def current_cs_table(self) -> Optional[CarrierSenseSkeleton]:
        """The carrier-sense skeleton, guarded by the same staleness check."""
        return self.cs_table if self.is_current() else None


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
        """The cached bundle for ``key``, refreshing its LRU position.

        Stale bundles (topology mutated since build) are dropped and
        reported as misses, so callers always rebuild from a clean slate.
        """
        if not self.enabled or key is None:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not entry.is_current():
            del self._entries[key]
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
