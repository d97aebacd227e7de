"""Property-based tests (hypothesis) on the core invariants.

These target the load-bearing mathematical properties:

* SINR monotonicity — adding interferers can only destroy receptions;
* channel/report consistency — transmitters never receive; receptions come
  from actual transmitters;
* link-class partition laws — classes partition the classified nodes, and
  knockouts never move a node to a smaller class;
* the adaptive hitting referee's group dynamics — groups only refine, the
  pair count never increases, no player wins before ``ceil(log2 k)``, and
  its group labels answer as a frozenset partition would;
* the class-bound schedule — monotone non-increasing in ``t``, classes lag
  in the documented order.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.class_bounds import ClassBoundSchedule
from repro.analysis.linkclasses import link_class_partition
from repro.hitting.game import AdaptiveReferee
from repro.sinr.channel import SINRChannel
from repro.sinr.geometry import pairwise_distances
from repro.sinr.parameters import SINRParameters
from tests.dense_geometry import nearest_neighbor_distances, point_sinr
from tests.hitting_oracles import GroupRefinementReferee, mask_of


# -- strategies --------------------------------------------------------------

finite_coord = st.floats(
    min_value=-500.0, max_value=500.0, allow_nan=False, allow_infinity=False
)


@st.composite
def deployments(draw, min_nodes=2, max_nodes=12):
    """Random deployments with pairwise-distinct, well-separated points."""
    n = draw(st.integers(min_nodes, max_nodes))
    points = []
    attempts = 0
    while len(points) < n and attempts < 300:
        attempts += 1
        candidate = (draw(finite_coord), draw(finite_coord))
        if all(
            (candidate[0] - p[0]) ** 2 + (candidate[1] - p[1]) ** 2 >= 1.0
            for p in points
        ):
            points.append(candidate)
    assume(len(points) >= min_nodes)
    return np.asarray(points, dtype=np.float64)


# -- SINR channel properties --------------------------------------------------


class TestSINRMonotonicity:
    @given(deployments(min_nodes=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_adding_interferers_never_creates_receptions(self, positions, data):
        channel = SINRChannel(positions, params=SINRParameters())
        n = positions.shape[0]
        base_tx = data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=max(1, n - 2))
        )
        extra = data.draw(st.integers(0, n - 1))
        assume(extra not in base_tx)
        before = channel.resolve(sorted(base_tx))
        after = channel.resolve(sorted(base_tx | {extra}))
        # Listeners (other than the new transmitter) that received from
        # sender u before can only keep u or lose the reception — a new
        # interferer cannot flip a reception to a *different* sender unless
        # it is itself the new stronger sender.
        for listener, sender in after.received_from.items():
            if listener == extra or sender == extra:
                continue
            # sender cleared beta against MORE interference, so it must
            # have cleared it before too.
            assert before.received_from.get(listener) == sender

    @given(deployments(min_nodes=2))
    @settings(max_examples=40, deadline=None)
    def test_solo_transmission_received_by_all_on_single_hop(self, positions):
        channel = SINRChannel(positions, params=SINRParameters())
        report = channel.resolve([0])
        # Auto-sized power guarantees the single-hop margin, and a solo
        # transmission faces no interference, so everyone decodes it.
        assert set(report.received_from) == set(range(1, positions.shape[0]))

    @given(deployments(min_nodes=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_report_consistency(self, positions, data):
        channel = SINRChannel(positions, params=SINRParameters())
        n = positions.shape[0]
        tx = data.draw(st.sets(st.integers(0, n - 1), min_size=0, max_size=n))
        report = channel.resolve(sorted(tx))
        assert set(report.transmitters) == tx
        for listener, sender in report.received_from.items():
            assert listener not in tx
            assert sender in tx

    @given(deployments(min_nodes=2), st.data())
    @settings(max_examples=30, deadline=None)
    def test_received_signal_actually_clears_beta(self, positions, data):
        channel = SINRChannel(positions, params=SINRParameters())
        n = positions.shape[0]
        tx = sorted(
            data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        )
        report = channel.resolve(tx)
        for listener, sender in report.received_from.items():
            interferers = [w for w in tx if w != sender]
            sinr = point_sinr(channel, sender, listener, interferers)
            assert sinr >= channel.params.beta - 1e-9


# -- link-class properties ----------------------------------------------------


class TestPartitionProperties:
    @given(deployments(min_nodes=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_partition_is_a_partition(self, positions, data):
        n = positions.shape[0]
        mask = np.asarray(
            data.draw(
                st.lists(st.booleans(), min_size=n, max_size=n)
            )
        )
        assume(mask.sum() >= 2)
        partition = link_class_partition(positions, mask, unit=1.0)
        # Every active node appears in exactly one class.
        seen = [node for ids in partition.members.values() for node in ids]
        assert sorted(seen) == sorted(np.flatnonzero(mask).tolist())
        assert len(seen) == len(set(seen))

    @given(deployments(min_nodes=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_deactivation_never_shrinks_class_index(self, positions, data):
        n = positions.shape[0]
        before_mask = np.ones(n, dtype=bool)
        removed = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 2))
        after_mask = before_mask.copy()
        for node in removed:
            after_mask[node] = False
        assume(after_mask.sum() >= 2)
        before = link_class_partition(positions, before_mask, unit=1.0)
        after = link_class_partition(positions, after_mask, unit=1.0)
        for node, index in after.class_of.items():
            assert index >= before.class_of[node]

    @given(deployments(min_nodes=2))
    @settings(max_examples=40, deadline=None)
    def test_class_index_matches_nearest_distance(self, positions):
        partition = link_class_partition(positions, unit=1.0)
        nearest = nearest_neighbor_distances(pairwise_distances(positions))
        for node, index in partition.class_of.items():
            assert 2.0**index <= nearest[node] < 2.0 ** (index + 1)


# -- adaptive referee properties ----------------------------------------------


class TestAdaptiveRefereeProperties:
    @given(st.integers(2, 40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_pair_count_never_increases(self, k, data):
        referee = AdaptiveReferee(k)
        previous = referee.consistent_pairs
        for _ in range(10):
            proposal = data.draw(st.sets(st.integers(0, k - 1), max_size=k))
            won = referee.judge(mask_of(k, proposal))
            assert referee.consistent_pairs <= previous
            previous = referee.consistent_pairs
            if won:
                assert referee.consistent_pairs == 0
                break

    @given(st.integers(2, 32), st.data())
    @settings(max_examples=30, deadline=None)
    def test_no_player_beats_log_floor(self, k, data):
        referee = AdaptiveReferee(k)
        floor = math.ceil(math.log2(k))
        rounds = 0
        for _ in range(200):
            proposal = data.draw(st.sets(st.integers(0, k - 1), max_size=k))
            rounds += 1
            if referee.judge(mask_of(k, proposal)):
                break
        else:
            return  # player never won within the budget; floor vacuous
        assert rounds >= floor

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_labels_match_group_refinement(self, k, data):
        # One label per element holds the frozenset partition's state: the
        # answers and the consistent-pair counts agree round by round, also
        # after a win.
        referee, oracle = AdaptiveReferee(k), GroupRefinementReferee(k)
        for _ in range(12):
            proposal = frozenset(data.draw(st.sets(st.integers(0, k - 1), max_size=k)))
            won = referee.judge(mask_of(k, proposal))
            assert won == oracle.judge(proposal)
            assert referee.consistent_pairs == oracle.consistent_pairs


# -- class-bound schedule properties -------------------------------------------


class TestScheduleProperties:
    @given(
        st.integers(2, 10_000),
        st.integers(1, 12),
        st.floats(0.5, 0.98),
        st.floats(0.05, 0.45),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_monotone_in_t(self, n, m, gamma_slow, rho):
        schedule = ClassBoundSchedule(n, m, gamma_slow=gamma_slow, rho=rho)
        for i in range(m):
            previous = schedule.bound(0, i)
            for t in range(1, min(schedule.zero_step(), 80) + 1):
                current = schedule.bound(t, i)
                assert current <= previous + 1e-9
                previous = current

    @given(st.integers(2, 1_000), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_smaller_classes_lead(self, n, m):
        schedule = ClassBoundSchedule(n, m)
        for t in range(0, schedule.zero_step() + 1, max(1, schedule.lag)):
            vector = schedule.vector(t)
            # q_t(i-1) <= q_t(i): smaller classes are always at least as
            # far along their decay.
            assert np.all(np.diff(vector) >= -1e-9)

    @given(st.integers(2, 10_000), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_zero_step_is_exact(self, n, m):
        schedule = ClassBoundSchedule(n, m)
        T = schedule.zero_step()
        assert np.all(schedule.vector(T) == 0.0)
        assert np.any(schedule.vector(T - 1) > 0.0)
