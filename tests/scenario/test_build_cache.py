"""Tests for the configuration-keyed construction cache.

The cache's contract has three parts, each pinned here:

* the **cache key** covers exactly the construction-relevant half of a
  :class:`ScenarioConfig` — seed excluded, except where the seed feeds
  construction (seeded topology placement, unpinned seeded propagation);
* **artifact reuse is invisible**: assembled simulations are bit-identical
  with and without the cache, under LRU eviction, and under explicit
  artifact bundles;
* **staleness is never served**: a topology mutated between runs of a
  shared (unfrozen) bundle invalidates the prebuilt link-table skeleton,
  so the next run derives its rows from the live wiring (within a run,
  links are fixed after the first transmission).
"""

from __future__ import annotations

import pytest

from repro.scenario import (
    ARTIFACT_CACHE,
    ScenarioArtifacts,
    ScenarioBuilder,
    ScenarioConfig,
    link_table_skeleton,
    topology_accepts_seed,
)
from repro.topology.base import FrozenTopologyError
from repro.topology.hidden_node import NODE_A, NODE_B, NODE_C, hidden_node_topology


@pytest.fixture(autouse=True)
def _clean_cache():
    """Each test starts from an empty cache with default settings."""
    ARTIFACT_CACHE.clear()
    yield
    ARTIFACT_CACHE.clear()


def _rows(network):
    """The channel's delivery table reduced to comparable (id, per) rows."""
    table = network.channel._build_link_table()
    return {
        sender: tuple((receiver, per) for receiver, _, _, per, _ in rows)
        for sender, rows in table.items()
    }


class TestCacheKey:
    def test_seed_excluded_for_deterministic_construction(self):
        a = ScenarioConfig(topology="hidden-node", seed=0)
        b = ScenarioConfig(topology="hidden-node", seed=123)
        assert a.cache_key() == b.cache_key() is not None

    def test_mac_and_trace_excluded(self):
        a = ScenarioConfig(mac="qma", trace=True, seed=0)
        b = ScenarioConfig(mac="unslotted-csma", mac_params={"x": 1}, seed=5)
        b.mac_params = {}  # mac_params never reach construction either
        assert a.cache_key() == b.cache_key()

    def test_topology_params_and_link_error_rate_included(self):
        base = ScenarioConfig(topology="hidden-node")
        narrow = ScenarioConfig(
            topology="hidden-node", topology_params={"link_distance": 45.0}
        )
        lossy = ScenarioConfig(topology="hidden-node", link_error_rate=0.1)
        assert base.cache_key() != narrow.cache_key()
        assert base.cache_key() != lossy.cache_key()

    def test_unpinned_seeded_propagation_keys_per_seed(self):
        a = ScenarioConfig(topology="iotlab-star", propagation="fading", seed=0)
        b = ScenarioConfig(topology="iotlab-star", propagation="fading", seed=1)
        assert a.cache_key() != b.cache_key()

    def test_pinned_propagation_seed_shares_key_across_seeds(self):
        a = ScenarioConfig(
            topology="iotlab-star", propagation="fading",
            propagation_params={"seed": 7}, seed=0,
        )
        b = ScenarioConfig(
            topology="iotlab-star", propagation="fading",
            propagation_params={"seed": 7}, seed=1,
        )
        assert a.cache_key() == b.cache_key()

    def test_seeded_topology_keys_per_seed_unless_pinned(self):
        assert topology_accepts_seed("random")
        assert not topology_accepts_seed("hidden-node")
        a = ScenarioConfig(topology="random", topology_params={"num_nodes": 6}, seed=0)
        b = ScenarioConfig(topology="random", topology_params={"num_nodes": 6}, seed=1)
        assert a.cache_key() != b.cache_key()
        pinned = {"num_nodes": 6, "seed": 3}
        c = ScenarioConfig(topology="random", topology_params=pinned, seed=0)
        d = ScenarioConfig(topology="random", topology_params=pinned, seed=1)
        assert c.cache_key() == d.cache_key()

    def test_unhashable_params_are_uncacheable(self):
        config = ScenarioConfig(
            topology="hidden-node", topology_params={"blob": bytearray(b"x")}
        )
        assert config.cache_key() is None

    def test_nested_param_values_normalised(self):
        a = ScenarioConfig(propagation="fading", propagation_params={"seed": 1}, seed=0)
        b = ScenarioConfig(propagation="fading", propagation_params={"seed": 1}, seed=9)
        assert a.cache_key() == b.cache_key()


_SINR_PARAMS = {"communication_range": 100.0, "carrier_sense_range": 250.0}


class TestInterferenceCacheKey:
    """Regression (PR 6): the cache key must cover the interference model,
    SINR threshold and carrier-sense range — a collision-model bundle served
    to a SINR config (or vice versa) would silently drop the power column
    and sensed-only links."""

    def test_interference_model_splits_key(self):
        collision = ScenarioConfig(propagation="unit-disk", propagation_params=_SINR_PARAMS)
        sinr = ScenarioConfig(
            propagation="unit-disk", propagation_params=_SINR_PARAMS, interference="sinr"
        )
        assert collision.cache_key() != sinr.cache_key()

    def test_sinr_threshold_splits_key(self):
        a = ScenarioConfig(
            propagation="unit-disk", propagation_params=_SINR_PARAMS,
            interference="sinr", sinr_threshold_db=10.0,
        )
        b = ScenarioConfig(
            propagation="unit-disk", propagation_params=_SINR_PARAMS,
            interference="sinr", sinr_threshold_db=3.0,
        )
        assert a.cache_key() != b.cache_key()

    def test_carrier_sense_range_splits_key(self):
        a = ScenarioConfig(
            propagation="unit-disk", propagation_params=_SINR_PARAMS, interference="sinr"
        )
        b = ScenarioConfig(
            propagation="unit-disk",
            propagation_params={"communication_range": 100.0, "carrier_sense_range": 150.0},
            interference="sinr",
        )
        assert a.cache_key() != b.cache_key()

    def test_sinr_requires_propagation(self):
        with pytest.raises(ValueError, match="propagation"):
            ScenarioConfig(interference="sinr")
        with pytest.raises(ValueError):
            ScenarioConfig(interference="not-a-model")

    def test_forced_eviction_keeps_sinr_and_collision_results_correct(self):
        """Alternating collision and SINR builds through a single-slot LRU
        must reproduce the uncached channel state bit-for-bit."""

        def full_rows(network):
            table = network.channel._build_link_table()
            return {
                sender: tuple(
                    (receiver, per, signal)
                    for receiver, _, _, per, signal in rows
                )
                for sender, rows in table.items()
            }

        def sensed(network):
            return {
                node: tuple(sorted(peers))
                for node, peers in network.channel._cs_neighbours.items()
            }

        configs = [
            ScenarioConfig(propagation="unit-disk", propagation_params=_SINR_PARAMS),
            ScenarioConfig(
                propagation="unit-disk", propagation_params=_SINR_PARAMS,
                interference="sinr",
            ),
        ]
        with ARTIFACT_CACHE.override(maxsize=1):
            baselines = []
            with ARTIFACT_CACHE.override(enabled=False):
                for config in configs:
                    network = ScenarioBuilder(config).build().network
                    baselines.append((full_rows(network), sensed(network)))
            # The collision baseline has no power column or sensed links.
            assert all(s == 0.0 for rows in baselines[0][0].values() for _, _, s in rows)
            assert baselines[0][1] == {}
            assert any(s > 0.0 for rows in baselines[1][0].values() for _, _, s in rows)
            for _ in range(3):  # alternate so each build evicts the other
                for config, baseline in zip(configs, baselines):
                    network = ScenarioBuilder(config).build().network
                    assert (full_rows(network), sensed(network)) == baseline
        assert ARTIFACT_CACHE.stats()["evictions"] >= 4


class TestSeededTopologyBuilds:
    def test_scenario_seed_drives_placement(self):
        def positions(seed):
            config = ScenarioConfig(
                topology="random", topology_params={"num_nodes": 6}, seed=seed
            )
            return dict(ScenarioBuilder(config).build().topology.positions)

        assert positions(0) == positions(0)
        assert positions(0) != positions(1)

    def test_pinned_placement_seed_wins_over_scenario_seed(self):
        def positions(seed):
            config = ScenarioConfig(
                topology="random",
                topology_params={"num_nodes": 6, "seed": 42},
                seed=seed,
            )
            return dict(ScenarioBuilder(config).build().topology.positions)

        assert positions(0) == positions(17)


class TestArtifactReuse:
    def test_cached_build_reuses_topology_and_hits(self):
        config = ScenarioConfig(topology="hidden-node", mac="unslotted-csma")
        first = ScenarioBuilder(config).build()
        second = ScenarioBuilder(config).build()
        assert first.topology is second.topology
        assert first.topology.frozen
        stats = ARTIFACT_CACHE.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cache_disabled_builds_fresh_mutable_topology(self):
        config = ScenarioConfig(topology="hidden-node")
        with ARTIFACT_CACHE.override(enabled=False):
            first = ScenarioBuilder(config).build()
            second = ScenarioBuilder(config).build()
        assert first.topology is not second.topology
        assert not first.topology.frozen

    @pytest.mark.parametrize("topology", sorted(["hidden-node", "iotlab-tree",
                                                 "iotlab-star", "concentric", "random"]))
    @pytest.mark.parametrize("propagation", [None, "fading"])
    def test_prebuilt_rows_match_lazily_derived_rows(self, topology, propagation):
        """The skeleton's receiver order IS the channel's wiring order.

        This is the load-bearing contract behind bit-identical cached
        runs: ``link_table_skeleton`` replays the exact neighbour-set
        insertion sequence of ``Network``'s wiring loop.  Pinned here for
        every registered topology (and a propagation-derived link set) so
        any reorder in either place fails loudly instead of silently
        changing delivery order.
        """
        params = {"random": {"num_nodes": 7}, "concentric": {"rings": 1}}.get(topology, {})
        config = ScenarioConfig(
            topology=topology,
            topology_params=params,
            mac="unslotted-csma",
            propagation=propagation,
            link_error_rate=0.02,
        )
        with ARTIFACT_CACHE.override(enabled=False):
            plain = ScenarioBuilder(config).build()
        cached = ScenarioBuilder(config).build()
        assert cached.network.channel._skeleton is not None
        assert _rows(plain.network) == _rows(cached.network)

    def test_explicit_artifacts_for_other_config_rejected(self):
        narrow = ScenarioConfig(
            topology="hidden-node", topology_params={"link_distance": 45.0}
        )
        wide = ScenarioConfig(topology="hidden-node")
        artifacts = ScenarioBuilder(narrow).build_artifacts()
        with pytest.raises(ValueError, match="different scenario"):
            ScenarioBuilder(wide).build(artifacts=artifacts)

    def test_uncacheable_bundle_still_guards_topology_kind(self):
        """key=None (uncacheable config) must not bypass cross-config reuse
        detection: the recorded topology kind still catches the mismatch."""
        uncacheable = ScenarioConfig(
            topology="iotlab-star", propagation_params={"note": bytearray(b"x")}
        )
        artifacts = ScenarioBuilder(uncacheable).build_artifacts()
        assert artifacts.key is None
        other = ScenarioConfig(topology="hidden-node")
        with pytest.raises(ValueError, match="built for topology"):
            ScenarioBuilder(other).build(artifacts=artifacts)

    def test_lru_eviction_keeps_results_correct(self):
        configs = [
            ScenarioConfig(topology="hidden-node"),
            ScenarioConfig(topology="hidden-node", topology_params={"link_distance": 45.0}),
        ]
        with ARTIFACT_CACHE.override(maxsize=1):
            baselines = []
            with ARTIFACT_CACHE.override(enabled=False):
                for config in configs:
                    baselines.append(_rows(ScenarioBuilder(config).build().network))
            for _ in range(3):  # alternate so each build evicts the other
                for config, baseline in zip(configs, baselines):
                    built = ScenarioBuilder(config).build()
                    assert _rows(built.network) == baseline
        assert ARTIFACT_CACHE.stats()["evictions"] >= 4

    def test_override_restores_settings(self):
        enabled, maxsize = ARTIFACT_CACHE.enabled, ARTIFACT_CACHE.maxsize
        with ARTIFACT_CACHE.override(enabled=False, maxsize=1):
            assert not ARTIFACT_CACHE.enabled and ARTIFACT_CACHE.maxsize == 1
        assert ARTIFACT_CACHE.enabled == enabled
        assert ARTIFACT_CACHE.maxsize == maxsize


class TestFrozenTopology:
    def test_mutators_raise_once_frozen(self):
        topology = hidden_node_topology()
        topology.freeze()
        with pytest.raises(FrozenTopologyError):
            topology.add_link(NODE_A, NODE_C)
        with pytest.raises(FrozenTopologyError):
            topology.build_routing_tree(NODE_B)

    def test_version_counts_mutations(self):
        topology = hidden_node_topology()
        before = topology.version
        topology.add_link(NODE_A, NODE_C)
        assert topology.version == before + 1

    def test_frozen_topologies_hash_by_content(self):
        a = hidden_node_topology().freeze()
        b = hidden_node_topology().freeze()
        assert a == b
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    def test_cached_artifact_topology_cannot_go_stale(self):
        config = ScenarioConfig(topology="hidden-node")
        built = ScenarioBuilder(config).build()
        with pytest.raises(FrozenTopologyError):
            built.topology.add_link(NODE_A, NODE_C)


class TestCrossRunMutation:
    """Regression: a topology mutated *between* runs of a shared artifact
    bundle must invalidate the prebuilt link-table skeleton — the next run
    derives delivery rows from the live wiring instead of stale rows."""

    def test_mutation_between_runs_invalidates_stale_skeleton(self):
        config = ScenarioConfig(topology="hidden-node", mac="unslotted-csma")
        builder = ScenarioBuilder(config)
        artifacts = builder.build_artifacts(freeze=False)

        first = builder.build(artifacts=artifacts)
        assert (NODE_C, 0.0) not in _rows(first.network)[NODE_A]  # A–C hidden

        # Mutate the shared topology between runs: A and C are now in range.
        artifacts.topology.add_link(NODE_A, NODE_C)
        assert not artifacts.is_current()
        assert artifacts.current_link_table() is None

        second = builder.build(artifacts=artifacts)
        rows = _rows(second.network)
        assert (NODE_C, 0.0) in rows[NODE_A]
        assert (NODE_A, 0.0) in rows[NODE_C]
        # ... and matches a bundle freshly derived from the mutated topology.
        fresh = ScenarioArtifacts(
            key=None,
            topology=artifacts.topology,
            topology_version=artifacts.topology.version,
            link_table=link_table_skeleton(artifacts.topology, 0.0),
        )
        reference = builder.build(artifacts=fresh)
        assert rows == _rows(reference.network)

    def test_stale_cache_entries_rebuild(self):
        """A stale *cached* bundle (unfrozen topology mutated behind the
        cache's back) is dropped and rebuilt, never served."""
        config = ScenarioConfig(topology="hidden-node")
        artifacts = ScenarioBuilder(config).build_artifacts(freeze=False)
        ARTIFACT_CACHE.put(config.cache_key(), artifacts)
        artifacts.topology.add_link(NODE_A, NODE_C)
        rebuilt = ScenarioBuilder(config).build()
        assert rebuilt.topology is not artifacts.topology
        assert not rebuilt.topology.connected(NODE_A, NODE_C)
