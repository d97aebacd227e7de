"""Unit tests for the Section 3.3 class-bound schedule."""

import math

import numpy as np
import pytest

from repro.analysis.class_bounds import ClassBoundSchedule


def _schedule(**kwargs):
    defaults = dict(n=100, num_classes=4, gamma_slow=0.9, rho=0.25)
    defaults.update(kwargs)
    return ClassBoundSchedule(**defaults)


def aggressive_bound(schedule, t, class_index):
    """The proof's ``q~_{t+1}(i) = q_t(i) * (gamma_slow - rho/(1-rho))``.

    The threshold whose crossing is permanent (the argument after
    Lemma 9): the bound for step ``t + 1`` given the step-``t`` value.
    """
    margin = schedule.gamma_slow - schedule.rho / (1.0 - schedule.rho)
    if margin <= 0.0:
        raise ValueError("gamma_slow - rho/(1-rho) must be positive; pick a smaller rho")
    return schedule.bound(t, class_index) * margin


def schedule_matrix(schedule, max_step=None):
    """``(steps x classes)`` array of ``q_t(i)``, through ``zero_step()`` by default."""
    if max_step is None:
        max_step = schedule.zero_step()
    return np.vstack([schedule.vector(t) for t in range(max_step + 1)])


class TestConstruction:
    def test_lag_definition(self):
        schedule = _schedule(gamma_slow=0.5, rho=0.25)
        # l = ceil(log_{0.5} 0.25) = ceil(2) = 2.
        assert schedule.lag == 2

    def test_lag_is_at_least_one(self):
        schedule = _schedule(gamma_slow=0.5, rho=0.9)
        assert schedule.lag >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            _schedule(n=0)
        with pytest.raises(ValueError):
            _schedule(num_classes=0)
        with pytest.raises(ValueError):
            _schedule(gamma_slow=1.0)
        with pytest.raises(ValueError):
            _schedule(rho=0.0)


class TestBounds:
    def test_no_progress_before_start_step(self):
        schedule = _schedule()
        for i in range(4):
            s_i = schedule.start_step(i)
            assert schedule.bound(s_i, i) == schedule.n
            if s_i > 0:
                assert schedule.bound(s_i - 1, i) == schedule.n

    def test_geometric_decay_after_start(self):
        schedule = _schedule()
        s_1 = schedule.start_step(1)
        assert schedule.bound(s_1 + 1, 1) == pytest.approx(100 * 0.9)
        assert schedule.bound(s_1 + 2, 1) == pytest.approx(100 * 0.81)

    def test_truncation_below_one_node(self):
        schedule = _schedule(n=4)
        # Bounds below 1 collapse to 0 (a class bounded below one node is
        # empty).
        t = schedule.start_step(0) + 20
        assert schedule.bound(t, 0) == 0.0

    def test_larger_class_lags_smaller(self):
        schedule = _schedule()
        t = schedule.start_step(3) + 1
        assert schedule.bound(t, 2) <= schedule.bound(t, 3)

    def test_start_step_spacing(self):
        schedule = _schedule()
        assert schedule.start_step(0) == 0
        assert schedule.start_step(2) == 2 * schedule.lag

    def test_negative_inputs_rejected(self):
        schedule = _schedule()
        with pytest.raises(ValueError):
            schedule.bound(-1, 0)
        with pytest.raises(ValueError):
            schedule.start_step(-1)


class TestAggressiveBound:
    def test_aggressive_is_tighter(self):
        schedule = _schedule()
        t = schedule.start_step(0) + 3
        assert aggressive_bound(schedule, t, 0) < schedule.bound(t + 1, 0) + 1e-9

    def test_margin_formula(self):
        schedule = _schedule(gamma_slow=0.9, rho=0.25)
        margin = 0.9 - 0.25 / 0.75
        assert aggressive_bound(schedule, 0, 0) == pytest.approx(100 * margin)

    def test_rejects_nonpositive_margin(self):
        schedule = _schedule(gamma_slow=0.5, rho=0.4)
        # 0.5 - 0.4/0.6 < 0.
        with pytest.raises(ValueError, match="rho"):
            aggressive_bound(schedule, 0, 0)


class TestZeroStep:
    def test_all_zero_at_zero_step(self):
        schedule = _schedule()
        assert np.all(schedule.vector(schedule.zero_step()) == 0.0)

    def test_not_all_zero_just_before(self):
        schedule = _schedule()
        t = schedule.zero_step()
        assert np.any(schedule.vector(t - 2) > 0.0)

    def test_zero_step_is_theta_logn_plus_logR(self):
        # Claim 8: T = Theta(log n + m) for constant gamma_slow.
        base = _schedule(n=64, num_classes=2).zero_step()
        more_classes = _schedule(n=64, num_classes=10).zero_step()
        bigger_n = _schedule(n=64 * 64, num_classes=2).zero_step()
        assert more_classes - base == pytest.approx(8 * _schedule().lag, abs=1)
        # Squaring n adds exactly one more log n worth of decay steps.
        decay_per_logn = math.log(2) / -math.log(0.9)
        assert bigger_n - base == pytest.approx(6 * decay_per_logn, abs=2)


class TestViolationsAndAchievedStep:
    def test_no_violations_at_step_zero(self):
        schedule = _schedule()
        sizes = np.array([100, 100, 100, 100], dtype=float)
        assert schedule.violations(sizes, 0) == []

    def test_violation_detected(self):
        schedule = _schedule()
        t = schedule.start_step(0) + 5
        bound = schedule.bound(t, 0)
        sizes = np.array([bound + 1, 0, 0, 0])
        assert schedule.violations(sizes, t) == [0]

    def test_shape_validation(self):
        schedule = _schedule()
        with pytest.raises(ValueError, match="shape"):
            schedule.violations(np.array([1.0, 2.0]), 0)

    def test_achieved_step_zero_for_full_classes(self):
        schedule = _schedule()
        sizes = np.array([100.0] * 4)
        # q_t(3) = 100 until its start step, so several steps are satisfied
        # with full classes; but step start(0)+1 requires class 0 <= 90.
        achieved = schedule.achieved_step(sizes)
        assert achieved == schedule.start_step(0)

    def test_achieved_step_max_for_empty_classes(self):
        schedule = _schedule()
        sizes = np.zeros(4)
        assert schedule.achieved_step(sizes) == schedule.zero_step()

    def test_achieved_step_monotone_in_knockouts(self):
        schedule = _schedule()
        fuller = np.array([50.0, 80.0, 100.0, 100.0])
        emptier = np.array([10.0, 30.0, 60.0, 90.0])
        assert schedule.achieved_step(emptier) >= schedule.achieved_step(fuller)


class TestScheduleMatrix:
    def test_matrix_shape(self):
        schedule = _schedule()
        matrix = schedule_matrix(schedule, max_step=10)
        assert matrix.shape == (11, 4)

    def test_matrix_rows_match_vectors(self):
        schedule = _schedule()
        matrix = schedule_matrix(schedule, max_step=6)
        for t in range(7):
            assert np.array_equal(matrix[t], schedule.vector(t))

    def test_matrix_nonincreasing_in_t(self):
        schedule = _schedule()
        matrix = schedule_matrix(schedule)
        assert np.all(np.diff(matrix, axis=0) <= 1e-9)

    def test_default_runs_to_zero_step(self):
        schedule = _schedule()
        matrix = schedule_matrix(schedule)
        assert np.all(matrix[-1] == 0.0)
