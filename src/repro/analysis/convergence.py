"""Convergence metrics based on the cumulative Q-value per frame.

The paper uses the sum of the Q-values of the policy actions over all
subslots (one sample per frame) as a stability indicator (Fig. 10 / 12):
a constant cumulative Q-value means the Q-table — and hence the learned
schedule — has stopped changing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Sample = Tuple[float, float]  # (time, cumulative Q-value)


def cumulative_q_series(history: Sequence[Sample]) -> Tuple[List[float], List[float]]:
    """Split a ``(time, value)`` history into separate time and value lists."""
    times = [t for t, _ in history]
    values = [v for _, v in history]
    return times, values


def is_stable(
    history: Sequence[Sample],
    window: int = 10,
    tolerance: float = 1e-9,
) -> bool:
    """True if the last ``window`` samples vary by at most ``tolerance``."""
    if len(history) < window:
        return False
    values = [v for _, v in history[-window:]]
    return max(values) - min(values) <= tolerance


def convergence_time(
    history: Sequence[Sample],
    window: int = 10,
    tolerance: float = 1e-9,
) -> Optional[float]:
    """Earliest time after which the cumulative Q-value never changes by more
    than ``tolerance`` within any trailing ``window`` samples.

    Returns None if the series never stabilises.  A tail's spread only
    grows as its start moves back, so one backward pass over the suffix
    maxima and minima finds the first stable start in linear time.
    """
    if len(history) < window:
        return None
    first: Optional[float] = None
    high = low = history[-1][1]
    last_start = len(history) - window
    for start in range(len(history) - 1, -1, -1):
        time, value = history[start]
        high, low = max(high, value), min(low, value)
        if high - low > tolerance:
            break
        if start <= last_start:
            first = time
    return first
