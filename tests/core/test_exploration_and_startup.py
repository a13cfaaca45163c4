"""Unit tests for exploration strategies, cautious startup and neighbour tracking."""

from __future__ import annotations

import pytest

from repro.core.config import DEFAULT_EXPLORATION_TABLE, QmaConfig
from repro.core.exploration import ConstantEpsilon, EpsilonGreedy, ParameterBasedExploration
from repro.core.neighbours import NeighbourQueueTracker
from repro.core.startup import CautiousStartup


class TestParameterBasedExploration:
    def test_matches_figure_4_values(self):
        strategy = ParameterBasedExploration()
        expectations = {
            0: 0.0,
            1: 0.0001,
            2: 0.001,
            3: 0.008,
            4: 0.02,
            5: 0.05,
            6: 0.1,
            7: 0.18,
            8: 0.3,
        }
        for difference, rho in expectations.items():
            assert strategy.probability(difference, 0.0, now=0.0) == pytest.approx(rho)

    def test_negative_difference_suppresses_exploration(self):
        """Neighbours with fuller queues get priority (Sect. 4.2)."""
        strategy = ParameterBasedExploration()
        assert strategy.probability(2, 5.0, now=0.0) == 0.0
        assert strategy.probability(0, 0.0, now=0.0) == 0.0

    def test_difference_clamped_to_table(self):
        strategy = ParameterBasedExploration()
        assert strategy.probability(50, 0.0, now=0.0) == DEFAULT_EXPLORATION_TABLE[-1]

    def test_rho_is_monotone_in_queue_difference(self):
        strategy = ParameterBasedExploration()
        values = [strategy.probability(d, 0.0, now=0.0) for d in range(9)]
        assert values == sorted(values)

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError):
            ParameterBasedExploration([])
        with pytest.raises(ValueError):
            ParameterBasedExploration([0.5, 1.5])


class TestEpsilonGreedy:
    def test_decays_with_every_action(self):
        strategy = EpsilonGreedy(epsilon_start=0.3, decay=0.5, epsilon_min=0.01)
        assert strategy.probability(0, 0, 0.0) == 0.3
        strategy.notify_action(0.0)
        assert strategy.probability(0, 0, 0.0) == 0.15
        for _ in range(100):
            strategy.notify_action(0.0)
        assert strategy.probability(0, 0, 0.0) == pytest.approx(0.01)

    def test_ignores_queue_levels(self):
        strategy = EpsilonGreedy(epsilon_start=0.2, decay=1.0)
        assert strategy.probability(8, 0, 0.0) == strategy.probability(0, 8, 0.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EpsilonGreedy(epsilon_start=2.0)
        with pytest.raises(ValueError):
            EpsilonGreedy(decay=0.0)
        with pytest.raises(ValueError):
            EpsilonGreedy(epsilon_start=0.1, epsilon_min=0.2)


class TestConstantEpsilon:
    def test_constant(self):
        strategy = ConstantEpsilon(0.07)
        for _ in range(5):
            assert strategy.probability(3, 1, 0.0) == 0.07
            strategy.notify_action(0.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ConstantEpsilon(-0.1)


class TestCautiousStartup:
    def test_phase_ends_after_duration(self):
        startup = CautiousStartup(3)
        assert startup.active
        assert not startup.tick()
        assert not startup.tick()
        assert startup.tick()      # third tick finishes the phase
        assert not startup.active
        assert startup.remaining_subslots == 0

    def test_zero_duration_is_immediately_finished(self):
        startup = CautiousStartup(0)
        assert not startup.active
        assert not startup.tick()

    def test_restart(self):
        startup = CautiousStartup(2)
        startup.tick()
        startup.tick()
        assert not startup.active
        startup.restart()
        assert startup.active
        assert startup.elapsed_subslots == 0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            CautiousStartup(-1)


class TestNeighbourQueueTracker:
    def test_average_over_known_neighbours(self):
        tracker = NeighbourQueueTracker(max_age=None)
        tracker.observe(1, 4, now=0.0)
        tracker.observe(2, 0, now=0.0)
        assert tracker.average_level(now=1.0) == 2.0
        assert len(tracker) == 2

    def test_no_neighbours_means_zero(self):
        tracker = NeighbourQueueTracker()
        assert tracker.average_level(now=0.0) == 0.0

    def test_latest_observation_wins(self):
        tracker = NeighbourQueueTracker(max_age=None)
        tracker.observe(1, 8, now=0.0)
        tracker.observe(1, 2, now=1.0)
        assert tracker.average_level(now=1.0) == 2.0

    def test_entries_expire(self):
        tracker = NeighbourQueueTracker(max_age=5.0)
        tracker.observe(1, 8, now=0.0)
        assert tracker.average_level(now=10.0) == 0.0
        assert tracker.known_neighbours(now=10.0) == {}

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            NeighbourQueueTracker(max_age=0.0)
        tracker = NeighbourQueueTracker()
        with pytest.raises(ValueError):
            tracker.observe(1, -1, now=0.0)


class TestQmaConfig:
    def test_defaults_follow_the_paper(self):
        config = QmaConfig()
        assert config.learning_rate == 0.5
        assert config.discount_factor == 0.9
        assert config.num_subslots == 54
        assert config.queue_capacity == 8
        assert config.exploration_table == DEFAULT_EXPLORATION_TABLE

    def test_frame_duration(self):
        config = QmaConfig(num_subslots=10, subslot_duration=0.001)
        assert config.frame_duration == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            QmaConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            QmaConfig(discount_factor=-0.1)
        with pytest.raises(ValueError):
            QmaConfig(num_subslots=0)
        with pytest.raises(ValueError):
            QmaConfig(exploration_table=(0.5, 2.0))
        for duration in (0.0, -1e-3, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                QmaConfig(subslot_duration=duration)
