"""Tests of the shared MAC machinery (ACKs, duplicates, statistics)."""

from __future__ import annotations

from repro.mac.csma import UnslottedCsmaCa
from repro.phy.channel import WirelessChannel
from repro.phy.frames import Frame, FrameKind
from repro.phy.params import PhyParameters
from repro.phy.radio import Radio
from repro.sim.engine import Simulator


def build_pair(seed=1, link_error=0.0):
    sim = Simulator(seed=seed)
    channel = WirelessChannel(sim)
    radio_a = Radio(sim, channel, 0)
    radio_b = Radio(sim, channel, 1)
    channel.connect(0, 1)
    if link_error:
        channel.set_link_error_rate(0, 1, link_error, bidirectional=False)
    mac_a = UnslottedCsmaCa(sim, radio_a)
    mac_b = UnslottedCsmaCa(sim, radio_b)
    mac_a.start()
    mac_b.start()
    return sim, channel, mac_a, mac_b


def test_receiver_acknowledges_and_deduplicates():
    sim, channel, mac_a, mac_b = build_pair()
    # Drop every ACK from B to A so that A keeps retransmitting.
    channel.set_link_error_rate(1, 0, 1.0, bidirectional=False)
    received = []
    mac_b.receive_callback = received.append
    frame = Frame(FrameKind.DATA, src=0, dst=1)
    mac_a.send(frame)
    sim.run_until(2.0)
    # A retransmitted several times but B delivered the frame only once.
    assert len(received) == 1
    assert mac_a.stats.tx_attempts > 1
    assert mac_b.stats.duplicates_suppressed >= 1
    assert mac_b.stats.acks_sent >= 2


def test_overhearing_counts_foreign_frames():
    sim = Simulator(seed=2)
    channel = WirelessChannel(sim)
    radio_a = Radio(sim, channel, 0)
    radio_b = Radio(sim, channel, 1)
    radio_x = Radio(sim, channel, 2)
    for pair in ((0, 1), (0, 2), (1, 2)):
        channel.connect(*pair)
    mac_a = UnslottedCsmaCa(sim, radio_a)
    mac_b = UnslottedCsmaCa(sim, radio_b)
    mac_x = UnslottedCsmaCa(sim, radio_x)
    for mac in (mac_a, mac_b, mac_x):
        mac.start()
    overheard = []
    mac_x.overhear_callback = overheard.append
    mac_a.send(Frame(FrameKind.DATA, src=0, dst=1))
    sim.run_until(1.0)
    kinds = {frame.kind for frame in overheard}
    # Node 2 overhears both the data frame and the ACK.
    assert FrameKind.DATA in kinds
    assert FrameKind.ACK in kinds
    assert mac_x.stats.frames_overheard >= 2


def test_attempts_per_success_statistic():
    sim, channel, mac_a, mac_b = build_pair()
    for _ in range(3):
        mac_a.send(Frame(FrameKind.DATA, src=0, dst=1))
    sim.run_until(2.0)
    assert mac_a.stats.attempts_per_success == 1.0


def test_per_kind_outcomes_recorded():
    sim, channel, mac_a, mac_b = build_pair()
    mac_a.send(Frame(FrameKind.GTS_REQUEST, src=0, dst=1))
    sim.run_until(1.0)
    assert mac_a.stats.per_kind_sent.get(FrameKind.GTS_REQUEST) == 1


def test_stale_ack_timeout_leaves_next_frame_alone():
    """ACK timeouts are never cancelled: once the first frame's ACK is in
    and the next frame awaits its own ACK, the first frame's timeout fires
    stale and must not count a missing ACK."""
    sim = Simulator(seed=1)
    # A long ACK wait lets the next frame finish before the stale timeout.
    channel = WirelessChannel(sim, PhyParameters(ack_wait_symbols=1000))
    radio_a = Radio(sim, channel, 0)
    radio_b = Radio(sim, channel, 1)
    channel.connect(0, 1)
    mac_a = UnslottedCsmaCa(sim, radio_a)
    mac_b = UnslottedCsmaCa(sim, radio_b)
    mac_a.start()
    mac_b.start()
    done = []
    mac_a.sent_callback = lambda frame, success: done.append(sim.now)
    mac_a.send(Frame(FrameKind.DATA, src=0, dst=1))
    second = Frame(FrameKind.DATA, src=0, dst=5)  # nobody acknowledges it
    mac_a.send(second)
    while not done:
        sim.step()
    ack_wait = channel.phy.turnaround_time + channel.phy.ack_wait_duration
    sim.run_until(done[0] + ack_wait)  # past the first frame's timeout
    assert mac_a._awaiting_ack is second
    assert mac_a.stats.tx_no_ack == 0
    sim.run_until(done[0] + 3 * ack_wait)  # the second frame's own timeout
    assert mac_a.stats.tx_no_ack >= 1
