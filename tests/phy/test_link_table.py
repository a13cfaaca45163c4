"""Tests for the channel's precomputed link table.

The table is the channel's only delivery path.  It is built from the live
wiring on the first transmission, and links are fixed from then on: every
wiring call after the first transmission raises.
"""

from __future__ import annotations

import pytest

from repro.phy.channel import WirelessChannel
from repro.phy.frames import Frame, FrameKind
from repro.phy.radio import Radio
from repro.sim.engine import Simulator


def make_frame(src, dst, payload=20):
    return Frame(FrameKind.DATA, src=src, dst=dst, payload_bytes=payload)


def _line_network(interference="collision"):
    """A - B - C line (A and C hidden from each other)."""
    sim = Simulator(seed=7)
    channel = WirelessChannel(sim, interference=interference)
    radios = [Radio(sim, channel, i) for i in range(3)]
    channel.connect(0, 1)
    channel.connect(1, 2)
    return sim, channel, radios


def _exercise(sim, channel, radios):
    """A scripted mix of clean deliveries and hidden-node collisions."""
    a, b, c = radios
    sim.schedule(0.0, a.transmit, make_frame(0, 1))
    sim.schedule(0.0, c.transmit, make_frame(2, 1))  # collides at B
    sim.schedule(0.1, a.transmit, make_frame(0, 1))  # clean
    sim.schedule(0.2, b.transmit, make_frame(1, 0))  # clean, heard by A and C
    sim.run_until(1.0)
    return (
        channel.transmissions_started,
        channel.frames_delivered,
        channel.frames_corrupted,
        channel.frames_lost_link_error,
        [r.frames_received for r in radios],
        [r.frames_corrupted for r in radios],
    )


def test_table_delivers_and_collides_as_pinned():
    # 4 starts: A->B and C->B collide at B, then A->B clean, then B's
    # broadcast reaches A and C.
    assert _exercise(*_line_network()) == (4, 3, 2, 0, [1, 1, 1], [0, 2, 0])


def test_first_transmission_builds_the_table():
    sim, channel, radios = _line_network()
    assert channel._link_table is None
    radios[0].transmit(make_frame(0, 1))
    sim.run_until(1.0)
    assert channel._link_table is not None


#: Each wiring call, applied to the line network plus radio 3.  Node 3 is
#: registered up front so every call has a fresh, valid pair to wire.
WIRING_CALLS = {
    "register": lambda sim, channel: Radio(sim, channel, 4),
    "connect": lambda sim, channel: channel.connect(0, 3),
    "set_link_error_rate": lambda sim, channel: channel.set_link_error_rate(0, 1, 0.0),
    "set_link_power": lambda sim, channel: channel.set_link_power(0, 1, -60.0),
    "connect_sensed": lambda sim, channel: channel.connect_sensed(2, 0, -85.0),
}

#: Received powers of the line network's directed links.
LINE_POWERS = {(0, 1): -60.0, (1, 0): -60.0, (1, 2): -60.0, (2, 1): -60.0}


@pytest.mark.parametrize("interference", ["collision", "sinr"])
@pytest.mark.parametrize("call", list(WIRING_CALLS))
def test_wiring_is_fixed_after_the_first_transmission(call, interference):
    sim, channel, radios = _line_network(interference)
    Radio(sim, channel, 3)
    for (sender, receiver), power_dbm in LINE_POWERS.items():
        channel.set_link_power(sender, receiver, power_dbm)

    WIRING_CALLS[call](sim, channel)  # before first use: allowed
    radios[1].transmit(make_frame(1, 0))
    sim.run_until(1.0)
    assert channel.frames_delivered == 2  # B's frame reaches A and C
    assert [row[0] for row in channel._link_table[1]] == [0, 2]

    with pytest.raises(RuntimeError, match="fixed after the first transmission"):
        WIRING_CALLS[call](sim, channel)


def test_construction_time_wiring_keeps_static_mode():
    """connect/set_link_error_rate before the first transmission are
    ordinary construction-time wiring."""
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    Radio(sim, channel, 0)
    Radio(sim, channel, 1)
    channel.connect(0, 1)
    channel.set_link_error_rate(0, 1, 0.0)
    channel.radio(0).transmit(make_frame(0, 1))
    sim.run_until(1.0)
    assert channel.frames_delivered == 1


def test_link_error_rate_applies_through_the_table():
    sim = Simulator(seed=3)
    channel = WirelessChannel(sim)
    a = Radio(sim, channel, 0)
    Radio(sim, channel, 1)
    channel.connect(0, 1)
    channel.set_link_error_rate(0, 1, 1.0)
    a.transmit(make_frame(0, 1))
    sim.run_until(1.0)
    assert channel.frames_lost_link_error == 1
    assert channel.frames_delivered == 0
