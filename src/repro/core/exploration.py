"""Exploration strategies for QMA.

The paper's contribution is *parameter-based exploration* (Sect. 4.2): the
probability ρ of taking a random action is read from a small table indexed
by the difference between the local queue level and the neighbours' average
queue level (Fig. 4).  When the local queue grows relative to the
neighbourhood the agent explores more aggressively; when the neighbours are
worse off than the local node, ρ is zero so that they get a chance to
allocate subslots.

ε-greedy (with exponential decay) and a constant exploration rate are also
implemented because the paper discusses them as the conventional
alternatives; the ``ablation-exploration`` row of
:mod:`repro.experiments.figures` compares all three.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

from repro.core.config import DEFAULT_EXPLORATION_TABLE


class ExplorationStrategy(ABC):
    """Produces the probability ρ of selecting a random action."""

    @abstractmethod
    def probability(
        self,
        local_queue_level: int,
        neighbour_avg_queue_level: float,
        now: float,
    ) -> float:
        """Return ρ ∈ [0, 1] for the current decision.

        A QMA node sleeping through QBackoff turns keeps the ρ it had before
        them: ρ may change with ``now`` alone only where the strategy
        overrides :meth:`notify_action` (its nodes never sleep)."""

    def notify_action(self, now: float) -> None:
        """Hook invoked after every action selection (used by decaying strategies)."""


class ParameterBasedExploration(ExplorationStrategy):
    """The table-driven exploration of Fig. 4.

    ρ is looked up with ``local queue level - neighbours' average queue
    level`` (rounded down, clamped into the table).  A non-positive
    difference yields ρ = 0 so that congested neighbours are given room.
    """

    def __init__(self, table: Optional[Sequence[float]] = None) -> None:
        self.table = tuple(table) if table is not None else DEFAULT_EXPLORATION_TABLE
        if not self.table:
            raise ValueError("exploration table must not be empty")
        if any(not 0.0 <= rho <= 1.0 for rho in self.table):
            raise ValueError("exploration probabilities must lie in [0, 1]")

    def probability(
        self,
        local_queue_level: int,
        neighbour_avg_queue_level: float,
        now: float,
    ) -> float:
        difference = local_queue_level - neighbour_avg_queue_level
        if difference <= 0:
            return self.table[0]
        index = min(int(difference), len(self.table) - 1)
        return self.table[index]


class EpsilonGreedy(ExplorationStrategy):
    """Classic ε-greedy with exponential decay.

    ε starts at ``epsilon_start`` and is multiplied by ``decay`` after every
    action selection, never falling below ``epsilon_min``.  The queue levels
    are ignored — which is exactly the weakness the paper points out: once ε
    has decayed the agent can no longer react to changes in the network.
    """

    def __init__(
        self,
        epsilon_start: float = 0.3,
        decay: float = 0.999,
        epsilon_min: float = 0.0,
    ) -> None:
        if not 0.0 <= epsilon_start <= 1.0:
            raise ValueError("epsilon_start must lie in [0, 1]")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must lie in (0, 1]")
        if not 0.0 <= epsilon_min <= epsilon_start:
            raise ValueError("epsilon_min must lie in [0, epsilon_start]")
        self.epsilon = epsilon_start
        self.decay = decay
        self.epsilon_min = epsilon_min

    def probability(
        self,
        local_queue_level: int,
        neighbour_avg_queue_level: float,
        now: float,
    ) -> float:
        return self.epsilon

    def notify_action(self, now: float) -> None:
        self.epsilon = max(self.epsilon_min, self.epsilon * self.decay)


class ConstantEpsilon(ExplorationStrategy):
    """A constant exploration rate (the second conventional alternative)."""

    def __init__(self, epsilon: float = 0.05) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        self.epsilon = epsilon

    def probability(
        self,
        local_queue_level: int,
        neighbour_avg_queue_level: float,
        now: float,
    ) -> float:
        return self.epsilon
