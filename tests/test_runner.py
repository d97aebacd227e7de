"""Unit tests for the multi-trial runner."""

import math

import pytest

from repro.protocols.simple import FixedProbabilityProtocol
from repro.radio.channel import RadioChannel
from repro.sim.runner import TrialStats, high_probability_budget, run_trials


def _radio_factory(n):
    return lambda rng: RadioChannel(n)


class TestRunTrials:
    def test_counts_add_up(self):
        stats = run_trials(
            _radio_factory(4),
            FixedProbabilityProtocol(p=0.25),
            trials=10,
            seed=1,
            max_rounds=2_000,
        )
        assert stats.trials == 10
        assert len(stats.rounds) + stats.failures == 10

    def test_deterministic_across_calls(self):
        kwargs = dict(trials=8, seed=77, max_rounds=2_000)
        first = run_trials(_radio_factory(4), FixedProbabilityProtocol(p=0.25), **kwargs)
        second = run_trials(_radio_factory(4), FixedProbabilityProtocol(p=0.25), **kwargs)
        assert first.rounds == second.rounds

    def test_different_seeds_differ(self):
        a = run_trials(
            _radio_factory(8), FixedProbabilityProtocol(p=0.25), trials=10, seed=1
        )
        b = run_trials(
            _radio_factory(8), FixedProbabilityProtocol(p=0.25), trials=10, seed=2
        )
        assert a.rounds != b.rounds

    def test_failures_counted(self):
        # p = 1 with n = 2 can never produce a solo round.
        stats = run_trials(
            _radio_factory(2),
            FixedProbabilityProtocol(p=1.0),
            trials=3,
            seed=0,
            max_rounds=50,
        )
        assert stats.failures == 3
        assert stats.rounds == []
        assert stats.solve_rate == 0.0

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            run_trials(_radio_factory(2), FixedProbabilityProtocol(), trials=0)

    def test_tuple_seeds_accepted(self):
        stats = run_trials(
            _radio_factory(4),
            FixedProbabilityProtocol(p=0.25),
            trials=3,
            seed=(5, 7),
        )
        assert stats.trials == 3


class TestTrialStats:
    def test_summary_statistics(self):
        stats = TrialStats(
            protocol_name="x", trials=5, rounds=[1, 2, 3, 4, 10], failures=0
        )
        assert stats.mean_rounds == pytest.approx(4.0)
        assert stats.median_rounds == pytest.approx(3.0)
        assert stats.max_rounds == 10
        assert stats.solve_rate == 1.0
        assert stats.percentile(0) == 1

    def test_empty_rounds_are_nan(self):
        stats = TrialStats(protocol_name="x", trials=3, rounds=[], failures=3)
        assert math.isnan(stats.mean_rounds)
        assert math.isnan(stats.median_rounds)

    def test_percentile_validation(self):
        stats = TrialStats(protocol_name="x", trials=1, rounds=[1], failures=0)
        with pytest.raises(ValueError, match="percentile"):
            stats.percentile(101)

    def test_rounds_per_second_guards_degenerate_wall_times(self):
        # Regression: empty or instantly-failing batches can report a
        # zero, negative-epsilon or nan wall time; the derived rate must
        # come back nan — never a ZeroDivisionError and never inf.
        for wall in (0.0, -0.0, float("nan")):
            stats = TrialStats(
                protocol_name="x",
                trials=0,
                rounds=[],
                failures=0,
                total_wall_time=wall,
                total_rounds_executed=100,
            )
            assert math.isnan(stats.rounds_per_second), wall

    def test_rounds_per_second_normal_case(self):
        stats = TrialStats(
            protocol_name="x",
            trials=1,
            rounds=[5],
            failures=0,
            total_wall_time=2.0,
            total_rounds_executed=10,
        )
        assert stats.rounds_per_second == pytest.approx(5.0)


class TestBudget:
    def test_budget_grows_with_n(self):
        assert high_probability_budget(1024) > high_probability_budget(16)

    def test_budget_has_floor(self):
        assert high_probability_budget(1) >= 64

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            high_probability_budget(0)

    def test_budget_scales_as_log_squared(self):
        # budget(n) ~ slack * log2(n)^2
        ratio = high_probability_budget(2**16) / high_probability_budget(2**4)
        assert ratio == pytest.approx((16 / 4) ** 2, rel=0.05)
