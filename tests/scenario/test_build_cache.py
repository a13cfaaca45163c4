"""Tests for the configuration-keyed construction cache.

The cache's contract has three parts, each pinned here:

* the **cache key** covers exactly the construction-relevant half of a
  :class:`ScenarioConfig` (topology and propagation) — seed excluded,
  except where the seed feeds construction (seeded topology placement,
  unpinned seeded propagation), and channel settings excluded, since every
  run wires its channel from the bundle itself;
* **artifact reuse is invisible**: assembled simulations are bit-identical
  with and without the cache and under LRU eviction, and one bundle
  serves collision and SINR runs of a deployment alike;
* **shared topologies are frozen**: a cached bundle's topology cannot be
  mutated, so no run sees state another run changed.
"""

from __future__ import annotations

import pytest

from repro.scenario import (
    ARTIFACT_CACHE,
    ScenarioBuilder,
    ScenarioConfig,
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
    """The channel's delivery table reduced to comparable (id, per, signal)
    rows, plus the sensed-only links."""
    channel = network.channel
    table = channel._build_link_table()
    rows = {
        sender: tuple((receiver, per, signal) for receiver, _, _, per, signal in rows)
        for sender, rows in table.items()
    }
    sensed = {node: tuple(peers) for node, peers in channel._cs_neighbours.items()}
    return rows, sensed


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

    def test_topology_params_included_link_error_rate_excluded(self):
        base = ScenarioConfig(topology="hidden-node")
        narrow = ScenarioConfig(
            topology="hidden-node", topology_params={"link_distance": 45.0}
        )
        lossy = ScenarioConfig(topology="hidden-node", link_error_rate=0.1)
        assert base.cache_key() != narrow.cache_key()
        assert base.cache_key() == lossy.cache_key()

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
    """The interference model and SINR threshold shape the channel wiring
    of a run, not the bundle: a collision run and a SINR run of one
    deployment share the bundle, and each derives its own powers and
    sensed links from the bundle's propagation model."""

    def test_channel_settings_share_key(self):
        configs = [
            ScenarioConfig(propagation="unit-disk", propagation_params=_SINR_PARAMS),
            ScenarioConfig(
                propagation="unit-disk", propagation_params=_SINR_PARAMS,
                interference="sinr", sinr_threshold_db=10.0,
            ),
            ScenarioConfig(
                propagation="unit-disk", propagation_params=_SINR_PARAMS,
                interference="sinr", sinr_threshold_db=3.0,
            ),
        ]
        assert len({config.cache_key() for config in configs}) == 1

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

    @pytest.mark.parametrize("assemble", ["build", "build_dsme"])
    @pytest.mark.parametrize("propagation", ["unit-disk", "fading"])
    def test_collision_and_sinr_runs_share_one_bundle(self, propagation, assemble):
        """One miss, then hits: the shared bundle reproduces the uncached
        channel state of both interference models bit-for-bit, for plain
        and DSME assembly alike."""
        params = _SINR_PARAMS if propagation == "unit-disk" else {}
        configs = [
            ScenarioConfig(
                topology="iotlab-star", propagation=propagation,
                propagation_params=params, interference=interference,
            )
            for interference in ("collision", "sinr")
        ]

        def build(config):
            return getattr(ScenarioBuilder(config), assemble)()

        with ARTIFACT_CACHE.override(enabled=False):
            baselines = [_rows(build(config).network) for config in configs]
        # The collision baseline has no power column or sensed links.
        assert all(s == 0.0 for rows in baselines[0][0].values() for _, _, s in rows)
        assert all(not peers for peers in baselines[0][1].values())
        assert any(s > 0.0 for rows in baselines[1][0].values() for _, _, s in rows)
        builds = []
        for _ in range(2):
            for config, baseline in zip(configs, baselines):
                built = build(config)
                assert _rows(built.network) == baseline
                builds.append(built)
        assert len({id(built.topology) for built in builds}) == 1
        stats = ARTIFACT_CACHE.stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 3, 1)


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
    def test_cached_rows_match_uncached_rows(self, topology, propagation):
        """A run on a cached (frozen, shared) topology wires its channel
        exactly as a run on a freshly built one — receiver order and PER
        included — for every registered topology."""
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
        ScenarioBuilder(config).build()
        cached = ScenarioBuilder(config).build()
        assert ARTIFACT_CACHE.stats()["hits"] == 1
        assert _rows(plain.network) == _rows(cached.network)

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
