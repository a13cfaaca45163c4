"""Analytic handshake experiment (Appendix A.1, Fig. 26).

Evaluates the absorbing Markov chain of the 3-way GTS handshake over a
sweep of per-message success probabilities and returns the expected number
of messages until a GTS is allocated.

:func:`run_handshake` packages the curve as a typed
:class:`~repro.metrics.report.SimReport` (series ``expected_messages``
plus summary scalars), matching the report type of the simulation-backed
runners; :func:`handshake_expected_messages` remains the thin dictionary
view of the same curve.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.metrics.report import SimReport

#: Success probabilities used on the x-axis of Fig. 26.
PAPER_PROBABILITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def handshake_expected_messages(
    probabilities: Sequence[float] = PAPER_PROBABILITIES,
    retries: int = 3,
) -> Dict[float, float]:
    """Expected messages per handshake for every probability in the sweep."""
    from repro.analysis.markov import expected_handshake_messages  # needs numpy

    return {p: expected_handshake_messages(p, retries) for p in probabilities}


def run_handshake(
    probabilities: Sequence[float] = PAPER_PROBABILITIES,
    retries: int = 3,
) -> SimReport:
    """The Fig. 26 curve as a :class:`SimReport`.

    The ``expected_messages`` series holds ``(probability, messages)``
    samples in sweep order; the scalars summarise the curve's endpoints
    (the expected message count at the lowest and highest probability).
    """
    if not probabilities:
        raise ValueError("probabilities must not be empty")
    curve = handshake_expected_messages(probabilities, retries=retries)
    samples = [(float(p), curve[p]) for p in probabilities]
    ordered = sorted(samples)
    return SimReport(
        experiment="handshake",
        params={"retries": retries},
        scalars={
            "expected_messages_min_p": ordered[0][1],
            "expected_messages_max_p": ordered[-1][1],
        },
        series={"expected_messages": samples},
    )
