"""Reward functions of QMA (Eq. 6-8) and the conceptual global reward table (Table 4).

The rewards are purely local — every node rewards its own action based on
what it can observe (overheard frames, CCA outcome, ACK reception) — yet
they are designed so that the sum of local rewards orders the joint action
combinations the same way a conceptual global reward table would
(Table 4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.actions import QAction


@dataclass(frozen=True)
class RewardFunction:
    """The local reward constants of Eq. 6-8.

    The defaults reproduce the paper's values.
    """

    backoff_overheard: float = 2.0
    backoff_idle: float = 0.0
    cca_success_tx_success: float = 3.0
    cca_success_tx_failed: float = -2.0
    cca_failed: float = 1.0
    send_tx_success: float = 4.0
    send_tx_failed: float = -3.0

    # ------------------------------------------------------------------ Eq. 6
    def backoff(self, overheard: bool) -> float:
        """Reward for ``QBackoff`` (Eq. 6): +2 if a DATA or ACK frame was overheard."""
        return self.backoff_overheard if overheard else self.backoff_idle

    # ------------------------------------------------------------------ Eq. 7
    def cca(self, cca_success: bool, tx_success: bool = False) -> float:
        """Reward for ``QCCA`` (Eq. 7)."""
        if not cca_success:
            return self.cca_failed
        return self.cca_success_tx_success if tx_success else self.cca_success_tx_failed

    # ------------------------------------------------------------------ Eq. 8
    def send(self, tx_success: bool) -> float:
        """Reward for ``QSend`` (Eq. 8)."""
        return self.send_tx_success if tx_success else self.send_tx_failed


#: The default reward function with the constants of the paper.
DEFAULT_REWARDS = RewardFunction()


def _transmitters(actions: Sequence[QAction]) -> List[int]:
    """Indices of agents whose action results in a transmission.

    Following Table 4 of the paper: a ``QSend`` transmits immediately at the
    start of the subslot, while a ``QCCA`` first assesses the channel.  A CCA
    therefore *fails* whenever at least one agent chose ``QSend`` (it senses
    the already started transmission) but succeeds against other ``QCCA``
    agents, whose transmissions have not started yet.
    """
    any_send = any(a is QAction.QSEND for a in actions)
    transmitters = [i for i, a in enumerate(actions) if a is QAction.QSEND]
    if not any_send:
        transmitters = [i for i, a in enumerate(actions) if a is QAction.QCCA]
    return transmitters


def local_reward(
    actions: Sequence[QAction],
    agent: int,
    rewards: RewardFunction = DEFAULT_REWARDS,
) -> float:
    """Local reward of ``agent`` for a joint action combination.

    Reproduces the per-agent columns of Table 4 for any number of agents:
    a transmission succeeds iff exactly one agent transmits; a backing-off
    agent overhears a frame iff exactly one agent transmits successfully.
    """
    if not 0 <= agent < len(actions):
        raise IndexError("agent index out of range")
    any_send = any(a is QAction.QSEND for a in actions)
    transmitters = _transmitters(actions)
    success = len(transmitters) == 1
    action = actions[agent]
    if action is QAction.QBACKOFF:
        overheard = success and agent not in transmitters
        return rewards.backoff(overheard)
    if action is QAction.QCCA:
        if any_send:
            return rewards.cca(cca_success=False)
        return rewards.cca(cca_success=True, tx_success=success)
    return rewards.send(tx_success=success)


def global_reward(
    actions: Sequence[QAction],
    rewards: RewardFunction = DEFAULT_REWARDS,
) -> float:
    """Conceptual global reward: the sum of all local rewards (Table 4, last column)."""
    return sum(local_reward(actions, i, rewards) for i in range(len(actions)))


def reward_table(
    num_agents: int = 3,
    rewards: RewardFunction = DEFAULT_REWARDS,
) -> Dict[Tuple[QAction, ...], Dict[str, object]]:
    """Enumerate every joint action combination with local and global rewards.

    Returns a mapping ``(a_0, ..., a_{n-1}) -> {"local": [...], "global": g}``,
    the generalisation of Table 4 in the paper.
    """
    if num_agents <= 0:
        raise ValueError("num_agents must be positive")
    table: Dict[Tuple[QAction, ...], Dict[str, object]] = {}
    combos: Iterable[Tuple[QAction, ...]] = _all_combinations(num_agents)
    for combo in combos:
        locals_ = [local_reward(combo, i, rewards) for i in range(num_agents)]
        table[combo] = {"local": locals_, "global": sum(locals_)}
    return table


def _all_combinations(num_agents: int) -> List[Tuple[QAction, ...]]:
    combos: List[Tuple[QAction, ...]] = [()]
    for _ in range(num_agents):
        combos = [c + (a,) for c in combos for a in QAction]
    return combos


def format_reward_table(num_agents: int = 3, rewards: RewardFunction = DEFAULT_REWARDS) -> str:
    """Render the reward table as text (printed by ``qma-repro table4``)."""
    table = reward_table(num_agents, rewards)
    lines = ["actions          local rewards        global"]
    for combo, entry in table.items():
        actions = " ".join(a.short_name for a in combo)
        locals_ = " / ".join(f"{r:g}" for r in entry["local"])
        lines.append(f"{actions:<16} {locals_:<20} {entry['global']:g}")
    return "\n".join(lines)
