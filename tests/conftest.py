"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.phy.channel import WirelessChannel
from repro.phy.params import PhyParameters
from repro.phy.radio import Radio
from repro.sim.engine import Simulator

# Example counts of the Hypothesis tests that take theirs from the profile
# (the sleeping-node differential test and the engine model test): tier-1
# runs the default, a deep run passes ``--hypothesis-profile=deep``.
settings.register_profile("default", max_examples=200)
settings.register_profile("deep", max_examples=2000)


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture
def channel(sim: Simulator) -> WirelessChannel:
    """A wireless channel with default PHY parameters."""
    return WirelessChannel(sim, PhyParameters())


def make_line_network(sim: Simulator, channel: WirelessChannel, num_nodes: int = 3):
    """Create ``num_nodes`` radios on a line where only adjacent radios hear each other."""
    radios = [
        Radio(sim, channel, node_id=i, position=(float(i), 0.0)) for i in range(num_nodes)
    ]
    for i in range(num_nodes - 1):
        channel.connect(i, i + 1)
    return radios


@pytest.fixture
def line_radios(sim: Simulator, channel: WirelessChannel):
    """Three radios 0 - 1 - 2 where 0 and 2 are hidden from each other."""
    return make_line_network(sim, channel, 3)
