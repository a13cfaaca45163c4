"""Unit tests for the Q-table: Eq. 5 (value update) and Eq. 3 (policy update)."""

from __future__ import annotations

import copy
import random

import pytest

from repro.core.actions import QAction
from repro.core.qtable import QTable

B, C, S = QAction.QBACKOFF, QAction.QCCA, QAction.QSEND


def make_table(**kwargs):
    defaults = dict(num_states=4, learning_rate=1.0, discount_factor=1.0, penalty=2.0, q_init=-10.0)
    defaults.update(kwargs)
    return QTable(**defaults)


class TestInitialisation:
    def test_initial_values_and_policy(self):
        table = make_table()
        for state in range(4):
            assert table.policy(state) is B
            for action in (B, C, S):
                assert table.value(state, action) == -10.0
        assert table.cumulative_policy_value() == -40.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QTable(num_states=0)
        with pytest.raises(ValueError):
            QTable(num_states=4, learning_rate=0.0)
        with pytest.raises(ValueError):
            QTable(num_states=4, discount_factor=1.5)
        with pytest.raises(ValueError):
            QTable(num_states=4, penalty=-1.0)


class TestEq5Update:
    def test_positive_reward_raises_value(self):
        table = make_table()
        result = table.update(0, S, reward=4.0, next_state=1)
        # alpha=1, gamma=1: candidate = 4 + max_a Q(1, a) = 4 - 10 = -6.
        assert result.new_value == -6.0
        assert table.value(0, S) == -6.0

    def test_penalty_limits_decrease(self):
        """A large punishment only decreases the stored value by xi (Eq. 5)."""
        table = make_table()
        table.update(2, S, reward=-3.0, next_state=3)
        # candidate = -3 - 10 = -13 but the value only drops by xi = 2.
        assert table.value(2, S) == -12.0

    def test_stable_optimum_is_restored_after_penalty(self):
        """The penalty only affects fluctuating Q-values (Sect. 3.1.1)."""
        table = make_table(learning_rate=0.5, discount_factor=0.0)
        for _ in range(10):
            table.update(0, S, reward=4.0, next_state=1)
        stable = table.value(0, S)
        table.update(0, S, reward=-3.0, next_state=1)   # one bad experience
        assert table.value(0, S) == pytest.approx(stable - 2.0)
        for _ in range(10):
            table.update(0, S, reward=4.0, next_state=1)
        assert table.value(0, S) == pytest.approx(stable, abs=0.1)

    def test_learning_rate_halves_increment(self):
        table = make_table(learning_rate=0.5, discount_factor=0.9)
        table.update(0, C, reward=3.0, next_state=1)
        expected = 0.5 * -10.0 + 0.5 * (3.0 + 0.9 * -10.0)
        assert table.value(0, C) == pytest.approx(expected)

    def test_invalid_states_rejected(self):
        table = make_table()
        with pytest.raises(IndexError):
            table.update(7, B, 0.0, 0)
        with pytest.raises(IndexError):
            table.update(0, B, 0.0, 9)


class TestEq3Policy:
    def test_policy_switches_only_on_strictly_greater_value(self):
        table = make_table()
        table.update(0, B, reward=0.0, next_state=1)      # Q(0,B) = -10
        table.update(0, S, reward=4.0, next_state=1)      # Q(0,S) = -6 > Q(0,B)
        assert table.policy(0) is S

    def test_policy_keeps_first_optimum_on_ties(self):
        table = make_table()
        table.set_value(0, B, 5.0)
        table.set_policy(0, B)
        # An update that reaches exactly the same value must not switch.
        table.set_value(0, C, 5.0)
        result = table.update(0, C, reward=5.0, next_state=1)
        assert table.policy(0) is B
        assert not result.policy_changed

    def test_failed_transmission_does_not_change_policy(self):
        """Reproduces the frame-1/subslot-3 situation of the paper's example."""
        table = make_table()
        table.update(2, S, reward=-3.0, next_state=3)
        assert table.policy(2) is B

    def test_updates_counter(self):
        table = make_table()
        table.update(0, B, 0.0, 1)
        table.update(1, C, 1.0, 2)
        assert table.updates == 2


class TestMetrics:
    def test_transmission_subslots_and_counts(self):
        table = make_table()
        table.set_policy(1, S)
        table.set_policy(3, C)
        assert table.transmission_subslots() == [1, 3]
        counts = table.policy_counts()
        assert counts[S] == 1 and counts[C] == 1 and counts[B] == 2

    def test_cumulative_values(self):
        table = make_table()
        table.set_value(0, B, 1.0)
        table.set_value(1, S, 7.0)
        table.set_policy(1, S)
        assert table.cumulative_policy_value() == 1.0 + 7.0 - 10.0 - 10.0
        assert table.cumulative_max_value() >= table.cumulative_policy_value()

    def test_memory_footprint_is_small(self):
        """The paper targets embedded devices: 54 subslots x 3 actions."""
        table = QTable(num_states=54)
        assert table.memory_footprint_bytes(bytes_per_entry=4) <= 1024

    def test_reset(self):
        table = make_table()
        table.update(0, S, 4.0, 1)
        table.set_policy(2, C)
        table.reset()
        assert table.value(0, S) == -10.0
        assert table.policy(2) is B
        assert table.updates == 0

    def test_as_rows_format(self):
        table = make_table()
        rows = table.as_rows()
        assert len(rows) == 4
        assert rows[0][4] == "B"


@pytest.mark.parametrize("seed", range(20))
def test_cumulative_policy_value_equals_the_range_indexed_sum(seed):
    """The zip-ordered sum is the range-indexed one, float for float, on
    random tables after random ``apply`` sequences."""
    rng = random.Random(seed)
    num_states = rng.randint(1, 60)
    table = QTable(
        num_states=num_states,
        learning_rate=rng.uniform(0.05, 1.0),
        discount_factor=rng.uniform(0.0, 1.0),
        penalty=rng.uniform(0.0, 5.0),
        q_init=rng.uniform(-20.0, 0.0),
    )
    for _ in range(rng.randint(50, 400)):
        state, next_state = rng.randrange(num_states), rng.randrange(num_states)
        table.apply(state, rng.randrange(3), rng.uniform(-10.0, 10.0), next_state)
        if rng.random() < 0.2:
            table._cumulative = None  # recompute rather than return the cache
            values, policy = table._values, table._policy
            assert table.cumulative_policy_value() == sum(
                values[m][policy[m]] for m in range(num_states)
            )


@pytest.mark.parametrize("seed", range(20))
def test_the_row_maxima_follow_every_write(seed):
    """The per-subslot maxima Eq. 5 reads equal ``max`` of each row after
    random ``apply``, ``set_value`` and ``reset`` sequences, so an update
    computes the same candidate as with ``max(row)``."""
    rng = random.Random(seed)
    num_states = rng.randint(1, 12)
    table = QTable(num_states=num_states, q_init=rng.uniform(-20.0, 0.0))
    for _ in range(rng.randint(50, 400)):
        state, next_state = rng.randrange(num_states), rng.randrange(num_states)
        if rng.random() < 0.05:
            table.set_value(state, rng.choice(list(QAction)), rng.uniform(-20.0, 20.0))
        elif rng.random() < 0.01:
            table.reset()
        else:
            # Penalty-bound drops and repeated values exercise the recompute.
            reward = rng.choice([-10.0, 0.0, 10.0, rng.uniform(-10.0, 10.0)])
            table.apply(state, rng.randrange(3), reward, next_state)
        assert [table.max_value(m) for m in range(num_states)] == [
            max(row) for row in table._values
        ]


def _scrambled_table(rng: random.Random) -> QTable:
    """A random table with random values and a random (not argmax) policy."""
    num_states = rng.randint(1, 12)
    table = QTable(
        num_states=num_states,
        learning_rate=rng.uniform(0.05, 1.0),
        discount_factor=rng.uniform(0.0, 1.0),
        penalty=rng.uniform(0.0, 5.0),
        q_init=rng.uniform(-20.0, 0.0),
    )
    for state in range(num_states):
        for action in QAction:
            table.set_value(state, action, rng.choice([rng.uniform(-20.0, 20.0), 0.0, -10.0]))
        table.set_policy(state, rng.choice(list(QAction)))
    return table


def _exact(table: QTable) -> str:
    """Every field a run of updates writes, floats by their repr."""
    return repr((table._values, table._policy, table._maxima, table.updates))


@pytest.mark.parametrize("seed", range(40))
def test_a_run_of_updates_equals_its_updates_one_by_one(seed):
    """``apply_run`` leaves the table bit-identical to ``apply`` called for
    each step in order, returns the last step's candidate and keeps the
    cumulative-value cache valid (whether it dropped it or not)."""
    rng = random.Random(seed)
    table = _scrambled_table(rng)
    steps = copy.deepcopy(table)
    for _ in range(rng.randint(1, 8)):
        table.cumulative_policy_value(), steps.cumulative_policy_value()  # prime both caches
        state, code = rng.randrange(table.num_states), rng.randrange(3)
        reward = rng.choice([-3.0, 0.0, 2.0, rng.uniform(-10.0, 10.0)])
        next_states = [rng.randrange(table.num_states) for _ in range(rng.randint(0, 30))]
        candidate = table.apply_run(state, code, reward, next_states)
        expected = 0.0
        for next_state in next_states:
            expected = steps.apply(state, code, reward, next_state)
            state = next_state
        assert repr(candidate) == repr(expected)
        assert _exact(table) == _exact(steps)
        cached = table.cumulative_policy_value()
        assert cached == steps.cumulative_policy_value()
        assert cached == sum(row[code] for row, code in zip(table._values, table._policy))


def test_a_backoff_run_binds_the_penalty_drops_the_maximum_and_switches_the_policy():
    """The first state of a replayed run may hold an explored selection:
    its QBackoff value falls by the penalty ξ, the row maximum drops to the
    next best action, and the policy switches to QBackoff (Eq. 3)."""
    table = QTable(num_states=4, learning_rate=0.5, discount_factor=0.9, penalty=2.0)
    for action, value in ((B, 10.0), (C, 9.0), (S, 7.0)):
        table.set_value(0, action, value)
    table.set_policy(0, S)
    steps = copy.deepcopy(table)
    before = table.cumulative_policy_value()
    table.apply_run(0, B.value, 0.0, [1, 2, 3])
    state = 0
    for next_state in (1, 2, 3):
        steps.apply(state, B.value, 0.0, next_state)
        state = next_state
    assert _exact(table) == _exact(steps)
    # Candidate 0.5 * 10 + 0.5 * 0.9 * -10 = 0.5 lies below the floor 10 - ξ.
    assert table.value(0, B) == 8.0
    assert table.max_value(0) == 9.0
    assert table.policy(0) is B
    assert table.updates == 3
    # States 1 and 2 learn 0.5 * -10 + 0.5 * 0.9 * -10 = -9.5; state 3 is untouched.
    assert table.cumulative_policy_value() == 8.0 + 2 * -9.5 - 10.0 != before


def test_a_run_that_touches_no_policy_value_keeps_the_cache():
    table = QTable(num_states=3, learning_rate=0.5, discount_factor=0.9, penalty=2.0)
    table.set_value(1, B, 5.0)
    cached = table.cumulative_policy_value()
    assert table.apply_run(1, C.value, -3.0, [2, 0]) < 0.0
    assert table._cumulative == cached == 5.0 - 20.0
    assert table.policy_snapshot() == [B, B, B] and table.updates == 2
    assert table.apply_run(2, C.value, 0.0, []) == 0.0 and table.updates == 2
