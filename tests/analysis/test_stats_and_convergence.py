"""Unit tests for the statistics helpers and convergence metrics."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.convergence import convergence_time, cumulative_q_series, is_stable
from repro.analysis.stats import (
    confidence_interval_95,
    mean,
    rolling_average,
    standard_deviation,
)


class TestStats:
    def test_mean_and_std(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0
        assert standard_deviation([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(
            2.138, abs=1e-3
        )
        assert standard_deviation([1.0]) == 0.0

    def test_confidence_interval_properties(self):
        m, half = confidence_interval_95([10.0, 12.0, 8.0, 11.0, 9.0])
        assert m == 10.0
        assert half > 0
        m1, half1 = confidence_interval_95([5.0])
        assert (m1, half1) == (5.0, 0.0)
        assert confidence_interval_95([]) == (0.0, 0.0)

    def test_ci_shrinks_with_more_samples(self):
        small = confidence_interval_95([1.0, 2.0, 3.0])[1]
        large = confidence_interval_95([1.0, 2.0, 3.0] * 10)[1]
        assert large < small

    def test_identical_samples_have_zero_width(self):
        assert confidence_interval_95([4.0] * 10)[1] == 0.0

    def test_rolling_average(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert rolling_average(values, window=2) == [1.0, 1.5, 2.5, 3.5, 4.5]
        assert rolling_average(values, window=10)[-1] == pytest.approx(3.0)
        with pytest.raises(ValueError):
            rolling_average(values, window=0)


class TestConvergence:
    def test_series_split(self):
        history = [(0.0, 1.0), (1.0, 2.0)]
        times, values = cumulative_q_series(history)
        assert times == [0.0, 1.0]
        assert values == [1.0, 2.0]

    def test_stable_series_detected(self):
        history = [(float(i), 5.0) for i in range(20)]
        assert is_stable(history, window=10)
        assert convergence_time(history, window=10) == 0.0

    def test_unstable_then_stable(self):
        history = [(float(i), float(i)) for i in range(10)]
        history += [(float(10 + i), 9.0) for i in range(10)]
        assert not is_stable(history[:10], window=5)
        t = convergence_time(history, window=5, tolerance=0.0)
        assert t == 9.0  # the last sample of the ramp already equals the plateau

    def test_never_stable(self):
        history = [(float(i), float(i)) for i in range(30)]
        assert convergence_time(history, window=5, tolerance=0.0) is None

    def test_short_series(self):
        assert not is_stable([(0.0, 1.0)], window=5)
        assert convergence_time([(0.0, 1.0)], window=5) is None


def quadratic_convergence_time(
    history: Sequence[Tuple[float, float]], window: int, tolerance: float
) -> Optional[float]:
    """The reference: re-slice the tail at every candidate start."""
    if len(history) < window:
        return None
    values = [v for _, v in history]
    times = [t for t, _ in history]
    for start in range(len(values) - window + 1):
        tail = values[start:]
        if max(tail) - min(tail) <= tolerance:
            return times[start]
    return None


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    values=st.lists(st.one_of(_finite, st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-12])),
                    max_size=40),
    window=st.integers(min_value=1, max_value=12),
    tolerance=st.one_of(st.just(0.0), st.just(1e-9), st.floats(0.0, 1e3)),
)
def test_convergence_time_matches_the_quadratic_reference(values, window, tolerance):
    history = [(0.5 * i, value) for i, value in enumerate(values)]
    assert convergence_time(history, window, tolerance) == quadratic_convergence_time(
        history, window, tolerance
    )
