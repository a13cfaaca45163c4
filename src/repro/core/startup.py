"""Cautious startup (Sect. 4.3 of the paper).

A node joining an already converged network is likely to destroy the
established schedule.  For the first Δ subslot iterations after startup the
node therefore only executes ``QBackoff`` and observes the medium: overheard
frames reward ``QBackoff`` (Eq. 6) and at the same time punish ``QCCA`` and
``QSend`` for the observed subslot, biasing the Q-table against subslots
that are already used by other nodes.
"""

from __future__ import annotations

from typing import Callable, Optional


class CautiousStartup:
    """Tracks the progress of the cautious-startup phase of one agent."""

    def __init__(
        self,
        duration_subslots: int,
        cca_punishment: float = -2.0,
        send_punishment: float = -3.0,
    ) -> None:
        if duration_subslots < 0:
            raise ValueError("duration_subslots must be non-negative")
        self.duration_subslots = duration_subslots
        self.cca_punishment = cca_punishment
        self.send_punishment = send_punishment
        self._elapsed = 0
        self._finished = duration_subslots == 0
        #: Called first by :meth:`restart` (a QMA MAC catches its node up).
        self.on_restart: Optional[Callable[[], None]] = None

    @property
    def active(self) -> bool:
        """True while the node is still in its cautious-startup phase."""
        return not self._finished

    @property
    def elapsed_subslots(self) -> int:
        return self._elapsed

    @property
    def remaining_subslots(self) -> int:
        return max(0, self.duration_subslots - self._elapsed)

    def tick(self) -> bool:
        """Advance by one subslot; returns True if the phase just ended."""
        if self._finished:
            return False
        self._elapsed += 1
        if self._elapsed >= self.duration_subslots:
            self._finished = True
            return True
        return False

    def restart(self) -> None:
        """Restart the phase (e.g. after a node rejoined the network)."""
        if self.on_restart is not None:
            self.on_restart()
        self._elapsed = 0
        self._finished = self.duration_subslots == 0
