"""Analysis utilities: statistics, convergence metrics and slot utilisation.

The absorbing-Markov-chain model of the DSME GTS handshake needs numpy and
is not re-exported: import it from :mod:`repro.analysis.markov`."""

from repro.analysis.stats import (
    StreamingStats,
    confidence_interval_95,
    mean,
    rolling_average,
    standard_deviation,
)
from repro.analysis.convergence import (
    convergence_time,
    cumulative_q_series,
    is_stable,
)
from repro.analysis.slots import SlotUtilisation, slot_utilisation

__all__ = [
    "SlotUtilisation",
    "StreamingStats",
    "confidence_interval_95",
    "convergence_time",
    "cumulative_q_series",
    "is_stable",
    "mean",
    "rolling_average",
    "slot_utilisation",
    "standard_deviation",
]
