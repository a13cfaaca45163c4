"""Behaviour tests of the QMA MAC protocol."""

from __future__ import annotations

import pytest

from repro.core.actions import QAction
from repro.core.config import QmaConfig
from repro.core.exploration import ConstantEpsilon
from repro.core.mac import QmaMac
from repro.mac.gate import WindowedGate
from repro.phy.channel import WirelessChannel
from repro.phy.frames import BROADCAST, Frame, FrameKind
from repro.phy.radio import Radio
from repro.sim.engine import Simulator


def small_config(**overrides):
    """A QMA configuration with few subslots for fast unit tests."""
    defaults = dict(
        num_subslots=8,
        subslot_duration=2e-3,
        cautious_startup_subslots=0,
    )
    defaults.update(overrides)
    return QmaConfig(**defaults)


def build_pair(seed=1, config=None, config_b=None):
    sim = Simulator(seed=seed)
    channel = WirelessChannel(sim)
    radio_a = Radio(sim, channel, 0)
    radio_b = Radio(sim, channel, 1)
    channel.connect(0, 1)
    mac_a = QmaMac(sim, radio_a, config=config or small_config())
    mac_b = QmaMac(sim, radio_b, config=config_b or config or small_config())
    for mac in (mac_a, mac_b):
        mac.record_history()
        mac.start()
    return sim, mac_a, mac_b


def test_single_sender_delivers_and_learns_positive_q_values():
    sim, mac_a, mac_b = build_pair()
    received = []
    mac_b.receive_callback = received.append
    for k in range(20):
        sim.schedule(
            0.05 * k, mac_a.send, Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20)
        )
    sim.run_until(3.0)
    assert len(received) == 20
    assert mac_a.stats.tx_success == 20
    # At least one subslot's policy must have switched to a transmitting action.
    assert mac_a.transmission_subslots()
    best = max(
        mac_a.qtable.value(m, a)
        for m in range(mac_a.config.num_subslots)
        for a in (QAction.QCCA, QAction.QSEND)
    )
    assert best > mac_a.config.q_init


def test_no_action_selected_while_queue_empty():
    sim, mac_a, _ = build_pair()
    sim.run_until(0.5)
    assert mac_a.action_stats.total == 0
    assert mac_a.stats.tx_attempts == 0


def test_policy_initialised_to_backoff_everywhere():
    sim, mac_a, _ = build_pair()
    assert all(action is QAction.QBACKOFF for action in mac_a.policy_snapshot())


def test_backoff_reward_given_when_overhearing():
    """A silent node overhearing traffic accumulates positive QBackoff values."""
    sim = Simulator(seed=3)
    channel = WirelessChannel(sim)
    radio_a = Radio(sim, channel, 0)
    radio_b = Radio(sim, channel, 1)
    radio_x = Radio(sim, channel, 2)
    for pair in ((0, 1), (0, 2), (1, 2)):
        channel.connect(*pair)
    config = small_config()
    mac_a = QmaMac(sim, radio_a, config=config)
    mac_b = QmaMac(sim, radio_b, config=config)
    listener = QmaMac(sim, radio_x, config=config)
    for mac in (mac_a, mac_b, listener):
        mac.start()
    # The listener has one packet queued but its policy (QBackoff) keeps it
    # silent almost always, so it mostly observes the others' traffic.
    for _ in range(30):
        mac_a.send(Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20))
    listener.send(Frame(FrameKind.DATA, src=2, dst=1, payload_bytes=20))
    sim.run_until(2.0)
    backoff_values = [
        listener.qtable.value(m, QAction.QBACKOFF)
        for m in range(config.num_subslots)
    ]
    assert max(backoff_values) > config.q_init


def test_transmission_failure_applies_penalty_not_full_punishment():
    """Without a receiver every transmission fails; the queue keeps the frame
    until max_frame_retries is exceeded and Q-values decrease by xi per update."""
    sim = Simulator(seed=2)
    channel = WirelessChannel(sim)
    radio_a = Radio(sim, channel, 0)
    Radio(sim, channel, 1)  # isolated receiver: no link
    config = small_config(max_frame_retries=2)
    mac_a = QmaMac(sim, radio_a, config=config, exploration=ConstantEpsilon(1.0))
    mac_a.start()
    outcomes = []
    mac_a.sent_callback = lambda frame, ok: outcomes.append(ok)
    mac_a.send(Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20))
    sim.run_until(2.0)
    assert outcomes == [False]
    assert mac_a.stats.dropped_retries == 1
    # Every failed transmission decreased the respective Q-value by exactly xi.
    min_value = min(
        mac_a.qtable.value(m, a)
        for m in range(config.num_subslots)
        for a in (QAction.QCCA, QAction.QSEND)
    )
    assert min_value >= config.q_init - 3 * config.penalty - 1e-9
    assert min_value < config.q_init


def test_cautious_startup_only_observes():
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    radio_a = Radio(sim, channel, 0)
    radio_b = Radio(sim, channel, 1)
    channel.connect(0, 1)
    # Aggressive exploration so that, once the startup phase has ended, the
    # queued frame is transmitted quickly (the default parameter-based
    # exploration would wait much longer for a single queued packet).
    mac_a = QmaMac(
        sim, radio_a, config=small_config(cautious_startup_subslots=16),
        exploration=ConstantEpsilon(1.0),
    )
    mac_b = QmaMac(sim, radio_b, config=small_config())
    mac_a.start()
    mac_b.start()
    mac_a.send(Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20))
    # Run for fewer subslots than the startup duration.
    sim.run_until(8 * 2e-3)
    assert mac_a.stats.tx_attempts == 0
    assert mac_a.startup.active
    sim.run_until(0.5)
    # After the startup phase the queued frame is eventually transmitted.
    assert not mac_a.startup.active
    assert mac_a.stats.tx_attempts >= 1


def test_cautious_startup_punishes_used_subslots():
    """Subslots observed busy during startup get negative QCCA/QSend values."""
    sim = Simulator(seed=4)
    channel = WirelessChannel(sim)
    radio_a = Radio(sim, channel, 0)
    radio_b = Radio(sim, channel, 1)
    radio_newcomer = Radio(sim, channel, 2)
    for pair in ((0, 1), (0, 2), (1, 2)):
        channel.connect(*pair)
    config = small_config()
    mac_a = QmaMac(sim, radio_a, config=config)
    mac_b = QmaMac(sim, radio_b, config=config)
    newcomer = QmaMac(sim, radio_newcomer, config=small_config(cautious_startup_subslots=200))
    for mac in (mac_a, mac_b, newcomer):
        mac.start()
    for _ in range(40):
        mac_a.send(Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20))
    sim.run_until(1.0)
    punished = [
        m
        for m in range(config.num_subslots)
        if newcomer.qtable.value(m, QAction.QSEND) < config.q_init
    ]
    rewarded = [
        m
        for m in range(config.num_subslots)
        if newcomer.qtable.value(m, QAction.QBACKOFF) > config.q_init
    ]
    assert punished, "busy subslots should be punished for QSend during startup"
    assert rewarded, "overhearing should reward QBackoff during startup"


def test_q_history_recorded_per_frame():
    sim, mac_a, mac_b = build_pair()
    mac_a.send(Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20))
    sim.run_until(0.5)
    # One history entry per elapsed frame (8 subslots of 2 ms each = 16 ms).
    assert len(mac_a.q_history) == mac_a.frames_elapsed
    times = [t for t, _ in mac_a.q_history]
    assert times == sorted(times)


def test_rho_history_tracks_exploration_probability():
    sim, mac_a, mac_b = build_pair()
    for _ in range(10):
        mac_a.send(Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20))
    sim.run_until(0.5)
    assert mac_a.rho_history
    assert all(0.0 <= rho <= 1.0 for _, rho in mac_a.rho_history)


def test_a_mac_nobody_asked_keeps_no_history_and_asking_late_raises():
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    mac_a = QmaMac(sim, Radio(sim, channel, 0), config=small_config())
    QmaMac(sim, Radio(sim, channel, 1), config=small_config()).start()
    channel.connect(0, 1)
    mac_a.start()
    for _ in range(10):
        mac_a.send(Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20))
    sim.run_until(0.5)
    assert mac_a.frames_elapsed > 1 and mac_a.action_stats.total > 0
    assert mac_a.q_history == [] and mac_a.rho_history == []
    with pytest.raises(RuntimeError, match="before the MAC starts"):
        mac_a.record_history()


def test_broadcasts_are_transmitted_without_ack():
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    radio_a = Radio(sim, channel, 0)
    radio_b = Radio(sim, channel, 1)
    channel.connect(0, 1)
    mac_a = QmaMac(sim, radio_a, config=small_config(), exploration=ConstantEpsilon(1.0))
    mac_b = QmaMac(sim, radio_b, config=small_config())
    mac_a.start()
    mac_b.start()
    received = []
    mac_b.receive_callback = received.append
    mac_a.send(Frame(FrameKind.ROUTE_DISCOVERY, src=0, dst=BROADCAST))
    sim.run_until(0.5)
    assert len(received) == 1
    assert mac_a.stats.broadcasts_sent == 1
    assert mac_b.stats.acks_sent == 0


def test_windowed_gate_restricts_transmissions_to_cap():
    sim = Simulator(seed=6)
    channel = WirelessChannel(sim)
    radio_a = Radio(sim, channel, 0)
    radio_b = Radio(sim, channel, 1)
    channel.connect(0, 1)
    gate = WindowedGate(period=0.1, window=0.05)
    config = small_config(num_subslots=10, subslot_duration=0.005)
    mac_a = QmaMac(sim, radio_a, config=config, gate=gate)
    mac_b = QmaMac(sim, radio_b, config=config, gate=gate)
    mac_a.start()
    mac_b.start()
    tx_starts = []
    original = mac_a._begin_transmission

    def spy(frame):
        tx_starts.append(sim.now)
        return original(frame)

    mac_a._begin_transmission = spy
    for _ in range(20):
        mac_a.send(Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20))
    sim.run_until(2.0)
    assert tx_starts, "some transmissions must have happened"
    for t in tx_starts:
        assert gate.active(t), f"transmission at {t} outside the CAP window"


def test_neighbour_queue_levels_learned_from_piggyback():
    sim, mac_a, mac_b = build_pair()
    for _ in range(5):
        mac_a.send(Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20))
    sim.run_until(1.0)
    # B received A's data frames and therefore knows A's queue level.
    assert 0 in mac_b.neighbours.known_neighbours(sim.now)


def test_saturated_lone_sender_reaches_the_q_learning_fixed_point():
    """Analytic oracle for Eq. 5: a lone node that always has a frame and
    learns to QSend in subslot 0 is rewarded r = 4 (Eq. 8) for each success,
    and its exchange ends within the subslot, so the next state is subslot 0
    again.  Q(0, QSend) then tends to the fixed point of
    Q = (1 - α) Q + α (r + γ Q), which is r / (1 - γ) = 40 for γ = 0.9.

    The floor ``old - ξ`` of Eq. 5 never binds on this path: starting from
    ``q_init`` below the target, every candidate lies between the old value
    and the target, so the value rises monotonically."""
    sim, mac_a, _ = build_pair()
    send = QAction.QSEND.value
    reward = mac_a.rewards.send(True)
    updates = []
    apply = mac_a.qtable.apply

    def spy(state, code, value, next_state):
        old = mac_a.qtable._values[state][code]
        candidate = apply(state, code, value, next_state)
        if (state, code) == (0, send):
            updates.append((old, candidate, value, next_state))
        return candidate

    mac_a.qtable.apply = spy

    def refill():
        while mac_a.queue.level < 4:
            mac_a.send(Frame(FrameKind.DATA, src=0, dst=1, payload_bytes=20))
        sim.schedule(1e-3, refill)

    refill()
    sim.run_until(10.0)
    fixed_point = reward / (1.0 - mac_a.config.discount_factor)
    assert abs(mac_a.qtable.value(0, QAction.QSEND) - fixed_point) <= 1e-6
    assert mac_a.policy_snapshot()[0] is QAction.QSEND
    assert len(updates) > 100
    assert all(value == reward and next_state == 0 for _, _, value, next_state in updates)
    assert all(old <= candidate <= fixed_point for old, candidate, _, _ in updates)
