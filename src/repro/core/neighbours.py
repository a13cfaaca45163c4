"""Tracking of neighbour queue levels for parameter-based exploration.

Sect. 4.2 of the paper: "the current queue level of a neighbouring node is
piggybacked into regular data messages".  Every QMA node keeps the most
recently heard queue level per neighbour; the average over all known
neighbours is subtracted from the local queue level before the exploration
probability is looked up.

Entries expire after a configurable time so that a neighbour that left the
network (or stopped transmitting) does not suppress exploration forever.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class NeighbourQueueTracker:
    """Most recently observed queue level per neighbour, with ageing.

    The tracker is queried once per QMA action selection (the inner loop of
    every simulation), so it keeps a running sum of the stored levels and a
    lower bound on the oldest stored timestamp: the expiry scan only runs
    when that bound actually crosses the age cutoff, and the average is a
    division instead of a fresh summation.  Semantics are unchanged —
    entries older than ``max_age`` are gone from every observable result.
    ``QmaMac._on_subslot`` computes :meth:`average_level` inline, from
    ``_level_sum`` and ``_levels`` after :meth:`_expire`.
    """

    def __init__(self, max_age: Optional[float] = 10.0) -> None:
        if max_age is not None and max_age <= 0:
            raise ValueError("max_age must be positive (or None for no ageing)")
        self.max_age = max_age
        self._levels: Dict[int, Tuple[float, int]] = {}
        self._level_sum = 0
        #: Lower bound on the oldest stored timestamp (inf when empty).  An
        #: overwrite can only raise the true minimum, so the bound stays
        #: valid between scans; each scan re-tightens it.
        self._oldest_bound = float("inf")

    def observe(self, neighbour_id: int, queue_level: int, now: float) -> None:
        """Record a piggybacked queue level heard from a neighbour."""
        if queue_level < 0:
            raise ValueError("queue_level must be non-negative")
        previous = self._levels.get(neighbour_id)
        if previous is not None:
            self._level_sum -= previous[1]
        self._level_sum += queue_level
        self._levels[neighbour_id] = (now, queue_level)
        if now < self._oldest_bound:
            self._oldest_bound = now

    def forget(self, neighbour_id: int) -> None:
        entry = self._levels.pop(neighbour_id, None)
        if entry is not None:
            self._level_sum -= entry[1]

    def _expire(self, now: float) -> None:
        if self.max_age is None:
            return
        cutoff = now - self.max_age
        if self._oldest_bound >= cutoff:
            return
        levels = self._levels
        stale = [nid for nid, (t, _) in levels.items() if t < cutoff]
        for nid in stale:
            self._level_sum -= levels[nid][1]
            del levels[nid]
        self._oldest_bound = min(
            (t for t, _ in levels.values()), default=float("inf")
        )

    def average_level(self, now: float) -> float:
        """Average queue level over all non-expired neighbours (0 if none known)."""
        self._expire(now)
        if not self._levels:
            return 0.0
        return self._level_sum / len(self._levels)

    def known_neighbours(self, now: float) -> Dict[int, int]:
        """Mapping of neighbour id to its last reported queue level."""
        self._expire(now)
        return {nid: level for nid, (_, level) in self._levels.items()}

    def __len__(self) -> int:
        return len(self._levels)
