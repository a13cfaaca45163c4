"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.markov import expected_handshake_messages
from repro.analysis.stats import confidence_interval_95, rolling_average
from repro.core.actions import ALL_ACTIONS, QAction
from repro.core.exploration import ParameterBasedExploration
from repro.core.qtable import QTable
from repro.core.rewards import global_reward, local_reward
from repro.mac.gate import WindowedGate
from repro.mac.queue import PacketQueue
from repro.phy.frames import Frame, FrameKind
from repro.sim.engine import Simulator

actions_strategy = st.lists(st.sampled_from(ALL_ACTIONS), min_size=1, max_size=6)


@given(actions_strategy)
def test_global_reward_is_sum_of_local_rewards(actions):
    total = sum(local_reward(actions, i) for i in range(len(actions)))
    assert global_reward(actions) == total


@given(actions_strategy)
def test_reward_sign_reflects_transmission_outcome(actions):
    """Exactly one transmitter => positive global reward; collisions => negative."""
    any_send = any(a is QAction.QSEND for a in actions)
    transmitters = [
        a for a in actions
        if a is QAction.QSEND or (a is QAction.QCCA and not any_send)
    ]
    total = global_reward(actions)
    if len(transmitters) == 1:
        assert total > 0
    elif len(transmitters) > 1:
        assert total < 0
    else:
        assert total == 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),                 # state
            st.sampled_from(ALL_ACTIONS),                          # action
            st.floats(min_value=-5, max_value=5),                  # reward
            st.integers(min_value=0, max_value=7),                 # next state
        ),
        max_size=60,
    )
)
@settings(max_examples=50)
def test_qtable_policy_always_within_penalty_of_best_action(updates):
    """Invariant of Eq. 3 + Eq. 5: the policy action's Q-value is never worse
    than the best Q-value of its subslot (they are equal right after the
    policy switches and can only drift while no better value is found)."""
    table = QTable(num_states=8, learning_rate=0.5, discount_factor=0.9, penalty=2.0)
    for state, action, reward, next_state in updates:
        table.update(state, action, reward, next_state)
    for state in range(8):
        policy_value = table.value(state, table.policy(state))
        assert table.max_value(state) >= policy_value
    # Cumulative policy value is consistent with the per-state values.
    assert table.cumulative_policy_value() == sum(
        table.value(m, table.policy(m)) for m in range(8)
    )


_finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
qtable_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=7),
            st.sampled_from(ALL_ACTIONS),
            _finite,
            st.integers(min_value=0, max_value=7),
        ),
        st.tuples(
            st.just("set_value"),
            st.integers(min_value=0, max_value=7),
            st.sampled_from(ALL_ACTIONS),
            _finite,
        ),
        st.tuples(
            st.just("set_policy"),
            st.integers(min_value=0, max_value=7),
            st.sampled_from(ALL_ACTIONS),
        ),
        st.tuples(st.just("reset")),
    ),
    max_size=80,
)


@given(qtable_operations)
@settings(max_examples=100)
def test_cached_cumulative_policy_value_matches_fresh_ordered_sum(operations):
    """The cached Fig. 10 metric equals the fresh ordered sum, bit for bit,
    after every mutation (the cache may only ever skip a recomputation
    that would give the same float)."""
    table = QTable(num_states=8, learning_rate=0.5, discount_factor=0.9, penalty=2.0)
    for name, *args in operations:
        getattr(table, name)(*args)
        fresh = sum(table.value(m, table.policy(m)) for m in range(8))
        assert table.cumulative_policy_value().hex() == fresh.hex()


@given(
    st.floats(min_value=-20, max_value=20),
    st.floats(min_value=-10, max_value=10),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_qtable_update_never_drops_more_than_penalty(initial, reward, state, next_state):
    table = QTable(num_states=4, penalty=2.0, q_init=-10.0)
    table.set_value(state, QAction.QSEND, initial)
    table.update(state, QAction.QSEND, reward, next_state)
    assert table.value(state, QAction.QSEND) >= initial - 2.0


@given(st.integers(min_value=-20, max_value=20), st.floats(min_value=0, max_value=8))
def test_exploration_probability_is_a_probability(local_level, neighbour_avg):
    strategy = ParameterBasedExploration()
    rho = strategy.probability(max(local_level, 0), neighbour_avg, now=0.0)
    assert 0.0 <= rho <= 0.3


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=50))
def test_confidence_interval_contains_mean_structure(values):
    m, half = confidence_interval_95(values)
    assert half >= 0.0
    if values:
        assert min(values) - 1e-9 <= m <= max(values) + 1e-9
    else:
        assert m == 0.0


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=10),
)
def test_rolling_average_stays_within_bounds(values, window):
    smoothed = rolling_average(values, window)
    assert len(smoothed) == len(values)
    assert all(min(values) - 1e-9 <= v <= max(values) + 1e-9 for v in smoothed)


@given(st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=0, max_value=5))
@settings(max_examples=40)
def test_handshake_needs_at_least_three_messages(p, retries):
    assert expected_handshake_messages(p, retries) >= 3.0 - 1e-9


@given(st.lists(st.booleans(), min_size=1, max_size=60), st.integers(min_value=1, max_value=8))
def test_packet_queue_never_exceeds_capacity(operations, capacity):
    sim = Simulator()
    queue = PacketQueue(sim, capacity=capacity)
    pushed = popped = 0
    for push in operations:
        if push:
            if queue.push(Frame(FrameKind.DATA, src=0, dst=1)):
                pushed += 1
        else:
            if queue.pop() is not None:
                popped += 1
        assert 0 <= queue.level <= capacity
    assert queue.level == pushed - popped


@given(
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.001, max_value=1.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_windowed_gate_next_active_time_is_consistent(period, window_fraction, offset, now):
    """next_active_time always returns a time >= now at which the gate is active."""
    window = max(period * window_fraction, 1e-6)
    gate = WindowedGate(period=period, window=min(window, period), offset=offset)
    resume = gate.next_active_time(now)
    assert resume >= now - 1e-12
    assert gate.active(resume)
    if gate.active(now):
        assert resume == now
