"""Tests for the Theorem 2 embedding (two players in a large network).

The last step of the paper's lower bound embeds a two-player instance in a
full-size network: the adversary activates only two of the ``n`` deployed
nodes, and "with only two nodes there is no opportunity for spatial reuse",
so the fading channel gives the pair nothing beyond what the collision
channel would. The helpers below execute that embedding on an SINR
deployment; the tests check the embedded winning time matches the pure
two-player collision game's. :func:`two_cluster` builds the geometry the
reduction pictures: two tight groups across a wide gap.
"""

import numpy as np
import pytest

from repro.deploy.topologies import _disk_draw, _rejection_sample, uniform_disk
from repro.hitting.two_player import two_player_trials
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.seeding import generator_from, spawn_generators
from repro.sinr.channel import SINRChannel


def two_cluster(
    cluster_size: int,
    rng: np.random.Generator,
    gap: float = 64.0,
    cluster_radius: float = 2.0,
    min_separation: float = 1.0,
) -> np.ndarray:
    """Two dense clusters separated by ``gap`` — the lower-bound geometry.

    The Section 4 reduction embeds a two-player symmetry-breaking instance
    in a large network; this deployment realises the geometry in which two
    tight groups must break symmetry across a wide gap.
    """
    if cluster_size < 1:
        raise ValueError(f"cluster_size must be positive (got {cluster_size})")
    if gap <= 4.0 * cluster_radius:
        raise ValueError("gap must exceed four cluster radii to keep clusters distinct")
    centers = np.asarray([[0.0, 0.0], [gap, 0.0]])
    points = np.empty((2 * cluster_size, 2), dtype=np.float64)
    for idx, center in enumerate(centers):
        draw = _disk_draw(rng, cluster_radius, center)
        block = _rejection_sample(cluster_size, rng, draw, min_separation)
        points[idx * cluster_size : (idx + 1) * cluster_size] = block
    return points


def embedded_two_player_trial(protocol, channel, pair, rng, max_rounds=10_000):
    """Run ``protocol`` on ``channel`` with only the nodes in ``pair`` awake.

    The other nodes activate beyond the round budget, so they never take
    part: the Section 4 adversary's choice of activation set.
    """
    i, j = pair
    if i == j:
        raise ValueError("the activated pair must be two distinct nodes")
    schedule = [max_rounds + 1] * channel.n
    schedule[i] = schedule[j] = 0
    return Simulation(
        channel,
        protocol.build(channel.n),
        rng=rng,
        max_rounds=max_rounds,
        activation_schedule=schedule,
    ).run()


def embedded_two_player_trials(protocol, channel, trials, seed=0):
    """Winning rounds of independent embedded trials, a random pair each."""
    if trials < 1:
        raise ValueError(f"trials must be positive (got {trials})")
    rounds = []
    for rng in spawn_generators(seed, trials):
        pair = rng.choice(channel.n, size=2, replace=False)
        trace = embedded_two_player_trial(protocol, channel, tuple(pair), rng)
        rounds.append(trace.rounds_to_solve)
    return rounds


@pytest.fixture
def big_channel(rng):
    return SINRChannel(uniform_disk(40, rng))


class TestMechanics:
    def test_only_the_pair_participates(self, big_channel):
        trace = embedded_two_player_trial(
            FixedProbabilityProtocol(p=0.5),
            big_channel,
            pair=(3, 17),
            rng=generator_from(1),
        )
        assert trace.solved
        assert all(set(r.active_before) == {3, 17} for r in trace.records)

    def test_pair_validation(self, big_channel):
        with pytest.raises(ValueError, match="distinct"):
            embedded_two_player_trial(
                FixedProbabilityProtocol(), big_channel, (4, 4), generator_from(0)
            )
        with pytest.raises(IndexError):
            embedded_two_player_trial(
                FixedProbabilityProtocol(), big_channel, (0, 99), generator_from(0)
            )

    def test_trials_validation(self, big_channel):
        with pytest.raises(ValueError, match="trials"):
            embedded_two_player_trials(
                FixedProbabilityProtocol(), big_channel, trials=0
            )

    def test_trials_are_deterministic(self, big_channel):
        a = embedded_two_player_trials(
            FixedProbabilityProtocol(p=0.5), big_channel, trials=10, seed=9
        )
        b = embedded_two_player_trials(
            FixedProbabilityProtocol(p=0.5), big_channel, trials=10, seed=9
        )
        assert a == b


class TestFadingIrrelevance:
    def test_embedded_matches_pure_two_player_distribution(self, big_channel):
        """'With only two nodes there is no opportunity for spatial reuse.'

        The embedded game (2 active nodes on a 40-node SINR deployment)
        must match the pure two-player collision game statistically: both
        are geometric with success probability 2 p (1 - p).
        """
        trials = 600
        embedded = embedded_two_player_trials(
            FixedProbabilityProtocol(p=0.5), big_channel, trials=trials, seed=31
        )
        pure = two_player_trials(
            FixedProbabilityProtocol(p=0.5), trials=trials, seed=32
        )
        embedded_mean = np.mean(embedded)
        pure_mean = np.mean([o.rounds for o in pure])
        # Both geometric(1/2): mean 2; allow generous sampling slack.
        assert embedded_mean == pytest.approx(pure_mean, rel=0.15)
        assert embedded_mean == pytest.approx(2.0, rel=0.15)

    def test_embedded_round_is_solo_of_the_pair(self, big_channel):
        # An embedded win means one of the pair transmitted alone; the
        # sleeping 38 nodes can never transmit.
        trace = embedded_two_player_trial(
            FixedProbabilityProtocol(p=0.5),
            big_channel,
            pair=(0, 1),
            rng=generator_from(7),
        )
        assert trace.solved
        assert trace.records[-1].transmitters in ((0,), (1,))

    def test_pair_across_the_gap_matches_the_pure_game(self):
        # One player in each cluster of the Theorem 2 geometry: the
        # embedded game is still geometric with success probability 1/2.
        channel = SINRChannel(two_cluster(20, generator_from(5), cluster_radius=4.0))
        rounds = [
            embedded_two_player_trial(
                FixedProbabilityProtocol(p=0.5), channel, (t % 20, 20 + 7 * t % 20), rng
            ).rounds_to_solve
            for t, rng in enumerate(spawn_generators(34, 400))
        ]
        assert np.mean(rounds) == pytest.approx(2.0, rel=0.15)

    def test_lower_bound_floor_transfers_to_embedded_setting(self, big_channel):
        # Combined with Lemma 14 (tested in test_reduction.py), the
        # embedding means full-network CR inherits Omega(log n); here we
        # check the embedded game cannot be won with certainty in round 1
        # (symmetric players fail with probability >= 1/2).
        trials = 400
        rounds = embedded_two_player_trials(
            FixedProbabilityProtocol(p=0.5), big_channel, trials=trials, seed=33
        )
        first_round_wins = rounds.count(1)
        assert first_round_wins / trials == pytest.approx(0.5, abs=0.08)
