"""Property-based tests for schedule inspection."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.decay import DecayProtocol
from repro.protocols.schedules import (
    expected_transmitters,
    probability_schedule,
    solo_probability,
)
from repro.protocols.simple import FixedProbabilityProtocol


class TestScheduleProperties:
    @given(st.integers(2, 512), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_decay_schedule_is_valid_probability(self, bound, horizon):
        schedule = probability_schedule(
            DecayProtocol(size_bound=bound), horizon=horizon, n=2
        )
        assert np.all(schedule > 0.0)
        assert np.all(schedule <= 0.5)

    @given(st.integers(1, 30), st.lists(st.integers(0, 10), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_expected_transmitters_bounded_by_awake_count(self, horizon, activations):
        expected = expected_transmitters(
            FixedProbabilityProtocol(p=0.3), activations, horizon=horizon
        )
        for t in range(horizon):
            awake = sum(1 for a in activations if a <= t)
            assert expected[t] <= awake * 0.3 + 1e-12

    @given(st.integers(1, 200), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_solo_probability_is_a_probability(self, n, p):
        value = solo_probability(n, p)
        assert 0.0 <= value <= 1.0

    @given(st.integers(2, 100))
    @settings(max_examples=30, deadline=None)
    def test_solo_probability_peaks_near_reciprocal(self, n):
        # p = 1/n is the exact maximiser of n p (1-p)^{n-1}.
        at_peak = solo_probability(n, 1.0 / n)
        for other in (0.5 / n, 2.0 / n):
            if other <= 1.0:
                assert at_peak >= solo_probability(n, other) - 1e-12

