"""Unit tests for the SINR/capture interference model of the channel."""

from __future__ import annotations

import pytest

from repro.phy.channel import (
    DEFAULT_SINR_THRESHOLD_DB,
    INTERFERENCE_MODELS,
    WirelessChannel,
)
from repro.phy.frames import Frame, FrameKind
from repro.phy.radio import Radio
from repro.sim.engine import Simulator


def make_frame(src, dst, payload=20):
    return Frame(FrameKind.DATA, src=src, dst=dst, payload_bytes=payload)


class Collector:
    def __init__(self, radio: Radio) -> None:
        self.frames = []
        self.corrupted = []
        radio.frame_listener = self.frames.append
        radio.corrupted_listener = self.corrupted.append


@pytest.fixture()
def sim() -> Simulator:
    return Simulator(seed=7)


def sinr_channel(sim, threshold_db=DEFAULT_SINR_THRESHOLD_DB):
    return WirelessChannel(sim, interference="sinr", sinr_threshold_db=threshold_db)


def test_unknown_interference_model_rejected(sim):
    assert "sinr" in INTERFERENCE_MODELS
    with pytest.raises(ValueError):
        WirelessChannel(sim, interference="nonsense")


def test_lone_strong_frame_is_delivered(sim):
    channel = sinr_channel(sim)
    a = Radio(sim, channel, 0)
    b = Radio(sim, channel, 1)
    channel.connect(0, 1)
    channel.set_link_power(0, 1, -60.0)  # 40 dB over the -100 dBm noise floor
    rx = Collector(b)
    a.transmit(make_frame(0, 1))
    sim.run_until(1.0)
    assert len(rx.frames) == 1
    assert rx.corrupted == []


def test_lone_frame_below_noise_threshold_never_delivers(sim):
    channel = sinr_channel(sim, threshold_db=10.0)
    a = Radio(sim, channel, 0)
    b = Radio(sim, channel, 1)
    channel.connect(0, 1)
    # SINR against the noise floor alone: -91 - (-100) = 9 dB < 10 dB.
    channel.set_link_power(0, 1, -91.0)
    rx = Collector(b)
    a.transmit(make_frame(0, 1))
    sim.run_until(1.0)
    assert rx.frames == []
    assert len(rx.corrupted) == 1  # synchronised on, then lost


def test_capture_strong_frame_survives_overlap(sim):
    """The collision model would destroy both frames; SINR captures one."""
    channel = sinr_channel(sim, threshold_db=10.0)
    strong = Radio(sim, channel, 0)
    weak = Radio(sim, channel, 1)
    receiver = Radio(sim, channel, 2)
    channel.connect(0, 2, bidirectional=False)
    channel.connect(1, 2, bidirectional=False)
    channel.set_link_power(0, 2, -50.0)  # 20 dB over the interferer
    channel.set_link_power(1, 2, -70.0)
    rx = Collector(receiver)
    strong_frame = make_frame(0, 2)
    strong.transmit(strong_frame)
    weak.transmit(make_frame(1, 2))
    sim.run_until(1.0)
    assert [f.seq for f in rx.frames] == [strong_frame.seq]
    assert len(rx.corrupted) == 1  # the weak frame


def test_late_strong_interferer_corrupts_frame_in_flight(sim):
    """Re-evaluation at interferer start: an already-flying frame dies."""
    channel = sinr_channel(sim, threshold_db=10.0)
    sender = Radio(sim, channel, 0)
    jammer = Radio(sim, channel, 1)
    receiver = Radio(sim, channel, 2)
    channel.connect(0, 2, bidirectional=False)
    channel.connect(1, 2, bidirectional=False)
    channel.set_link_power(0, 2, -70.0)
    channel.set_link_power(1, 2, -50.0)
    rx = Collector(receiver)
    sender.transmit(make_frame(0, 2))
    sim.schedule_at(0.0002, lambda: jammer.transmit(make_frame(1, 2)))
    sim.run_until(1.0)
    assert all(f.src != 0 for f in rx.frames)
    assert any(f.src == 0 for f in rx.corrupted)


def test_cumulative_interference_two_weak_interferers_add_up(sim):
    """Each interferer alone leaves >10 dB SIR; their sum does not."""
    channel = sinr_channel(sim, threshold_db=10.0)
    sender = Radio(sim, channel, 0)
    i1 = Radio(sim, channel, 1)
    i2 = Radio(sim, channel, 2)
    receiver = Radio(sim, channel, 3)
    for src in (0, 1, 2):
        channel.connect(src, 3, bidirectional=False)
    channel.set_link_power(0, 3, -60.0)
    # One interferer: SIR = 12 dB (survives); two: interference doubles
    # (+3 dB) -> SIR ~ 9 dB (lost).
    channel.set_link_power(1, 3, -72.0)
    channel.set_link_power(2, 3, -72.0)
    rx = Collector(receiver)
    sender.transmit(make_frame(0, 3))
    i1.transmit(make_frame(1, 3))
    sim.run_until(1.0)
    assert any(f.src == 0 for f in rx.frames)  # single interferer: captured

    sim2 = Simulator(seed=7)
    channel2 = sinr_channel(sim2)
    sender2 = Radio(sim2, channel2, 0)
    j1 = Radio(sim2, channel2, 1)
    j2 = Radio(sim2, channel2, 2)
    receiver2 = Radio(sim2, channel2, 3)
    for src in (0, 1, 2):
        channel2.connect(src, 3, bidirectional=False)
    channel2.set_link_power(0, 3, -60.0)
    channel2.set_link_power(1, 3, -72.0)
    channel2.set_link_power(2, 3, -72.0)
    rx2 = Collector(receiver2)
    sender2.transmit(make_frame(0, 3))
    j1.transmit(make_frame(1, 3))
    j2.transmit(make_frame(2, 3))
    sim2.run_until(1.0)
    assert all(f.src != 0 for f in rx2.frames)
    assert any(f.src == 0 for f in rx2.corrupted)


class TestSensedOnlyLinks:
    def test_sensed_transmission_drives_cca_busy(self, sim):
        channel = sinr_channel(sim)
        tx = Radio(sim, channel, 0)
        sensor = Radio(sim, channel, 1)
        channel.connect_sensed(0, 1, -85.0)
        assert sensor.cca() is True
        tx.transmit(make_frame(0, 99))
        assert sensor.cca() is False
        assert sensor.cca_sensed_only_count == 1
        assert channel.is_busy_for(1)
        sim.run_until(1.0)
        assert sensor.cca() is True

    def test_sensed_only_never_delivers_or_corrupts(self, sim):
        channel = sinr_channel(sim)
        tx = Radio(sim, channel, 0)
        sensor = Radio(sim, channel, 1)
        channel.connect_sensed(0, 1, -85.0)
        rx = Collector(sensor)
        tx.transmit(make_frame(0, 99))
        sim.run_until(1.0)
        assert rx.frames == []
        assert rx.corrupted == []
        assert sensor.frames_received == 0
        assert sensor.frames_corrupted == 0

    def test_sensed_energy_contributes_interference(self, sim):
        channel = sinr_channel(sim, threshold_db=10.0)
        sender = Radio(sim, channel, 0)
        hidden = Radio(sim, channel, 1)
        receiver = Radio(sim, channel, 2)
        channel.connect(0, 2, bidirectional=False)
        channel.set_link_power(0, 2, -60.0)
        # The hidden transmitter is sensed-only at the receiver but its
        # energy still drowns the frame: SIR = -60 - (-55) < threshold.
        channel.connect_sensed(1, 2, -55.0)
        rx = Collector(receiver)
        sender.transmit(make_frame(0, 2))
        hidden.transmit(make_frame(1, 99))
        sim.run_until(1.0)
        assert rx.frames == []
        assert len(rx.corrupted) == 1

    def test_connect_sensed_rejects_existing_communication_link(self, sim):
        channel = sinr_channel(sim)
        Radio(sim, channel, 0)
        Radio(sim, channel, 1)
        channel.connect(0, 1)
        with pytest.raises(ValueError):
            channel.connect_sensed(0, 1, -80.0)

    @pytest.mark.parametrize(
        "bidirectional, sensed",
        [(False, (0, 1)), (True, (0, 1)), (True, (1, 0))],
        ids=["one-way", "both-ways", "both-ways-reverse"],
    )
    def test_connect_rejects_existing_sensed_only_link(
        self, sim, bidirectional, sensed
    ):
        """Mirror of the check above: a pair cannot be both sensed-only
        and decodable, or its power counts as signal and interference."""
        channel = sinr_channel(sim)
        Radio(sim, channel, 0)
        Radio(sim, channel, 1)
        channel.connect_sensed(*sensed, -60.0)
        with pytest.raises(ValueError, match="sensed-only"):
            channel.connect(0, 1, bidirectional=bidirectional)
        assert not channel.hears(1, 0) and not channel.hears(0, 1)

    def test_connect_one_way_beside_reverse_sensed_link(self, sim):
        """1 senses 0 only matters for the 0 -> 1 direction."""
        channel = sinr_channel(sim)
        a = Radio(sim, channel, 0)
        b = Radio(sim, channel, 1)
        channel.connect_sensed(0, 1, -85.0)
        channel.connect(1, 0, bidirectional=False)
        channel.set_link_power(1, 0, -60.0)
        rx = Collector(a)
        b.transmit(make_frame(1, 0))
        sim.run_until(1.0)
        assert len(rx.frames) == 1
        assert channel.frames_corrupted == 0


class TestStaticTableOutcome:
    def _run(self):
        sim = Simulator(seed=3)
        channel = sinr_channel(sim)
        radios = [Radio(sim, channel, i) for i in range(4)]
        for src in (0, 1, 2):
            channel.connect(src, 3, bidirectional=False)
        channel.set_link_power(0, 3, -60.0)
        channel.set_link_power(1, 3, -72.0)
        channel.set_link_power(2, 3, -72.0)
        channel.connect_sensed(1, 0, -85.0)
        rx = Collector(radios[3])
        radios[0].transmit(make_frame(0, 3))
        sim.schedule_at(0.0003, lambda: radios[1].transmit(make_frame(1, 3)))
        sim.schedule_at(0.0004, lambda: radios[2].transmit(make_frame(2, 3)))
        sim.run_until(1.0)
        return (
            [f.src for f in rx.frames],
            [f.src for f in rx.corrupted],
            channel.frames_delivered,
            channel.frames_corrupted,
            radios[0].cca_sensed_only_count,
        )

    def test_matches_pinned_outcome(self):
        # Two -72 dBm interferers sum to ~-69 dBm: the -60 dBm frame is
        # left ~9 dB SIR (< 10 dB) and all three frames are lost.
        assert self._run() == ([], [0, 1, 2], 0, 3, 0)


def test_collision_channel_keeps_sensing_lists_empty(sim):
    """The collision model must never touch the SINR book-keeping."""
    channel = WirelessChannel(sim)  # default interference="collision"
    a = Radio(sim, channel, 0)
    b = Radio(sim, channel, 1)
    channel.connect(0, 1)
    a.transmit(make_frame(0, 1))
    sim.run_until(1.0)
    assert b._rx_sensing == []
    assert b.cca_sensed_only_count == 0
