"""Unit tests for two-player contention resolution."""

import ast
from pathlib import Path

import pytest

import repro.hitting

from repro.hitting.two_player import (
    failure_probability_within,
    two_player_trial,
    two_player_trials,
)
from repro.protocols.backoff import BinaryExponentialBackoffProtocol
from repro.protocols.carrier_sense import CarrierSenseTournamentProtocol
from repro.protocols.cd_tournament import CollisionDetectionTournamentProtocol
from repro.protocols.decay import DecayProtocol
from repro.protocols.sawtooth import SawtoothBackoffProtocol
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.seeding import generator_from, spawn_generators
from tests.hitting_oracles import engine_two_player_trial

#: Factories with a vector step, paired with the game by the engine oracle.
PLAYERS = {
    "simple(0.5)": lambda: FixedProbabilityProtocol(p=0.5),
    "simple(0.1)": lambda: FixedProbabilityProtocol(p=0.1),
    "decay(N=2)": lambda: DecayProtocol(size_bound=2),
    "decay(N=64)": lambda: DecayProtocol(size_bound=64),
    "sawtooth": SawtoothBackoffProtocol,
    "beb": BinaryExponentialBackoffProtocol,
}


class TestSingleTrial:
    def test_simple_protocol_wins(self):
        outcome = two_player_trial(
            FixedProbabilityProtocol(p=0.5), generator_from(0)
        )
        assert outcome.won
        assert outcome.rounds >= 1

    def test_degenerate_p_one_never_wins(self):
        outcome = two_player_trial(
            FixedProbabilityProtocol(p=1.0), generator_from(0), max_rounds=100
        )
        assert not outcome.won


class TestMaskGameEqualsTheEngine:
    @pytest.mark.parametrize("name", sorted(PLAYERS))
    def test_trial_for_trial(self, name):
        protocol = PLAYERS[name]()
        games = spawn_generators(26, 500)
        oracles = spawn_generators(26, 500)
        for game_rng, oracle_rng in zip(games, oracles):
            outcome = two_player_trial(protocol, game_rng, max_rounds=200)
            expected = engine_two_player_trial(protocol, oracle_rng, max_rounds=200)
            assert outcome == expected
            assert game_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_a_factory_without_a_vector_step_is_refused(self):
        with pytest.raises(ValueError, match="vector step"):
            two_player_trial(CarrierSenseTournamentProtocol(threshold=1.0), generator_from(0))

    def test_collision_detection_is_refused(self):
        with pytest.raises(ValueError, match="collision-detection"):
            two_player_trial(CollisionDetectionTournamentProtocol(), generator_from(0))

    def test_the_lower_bound_package_needs_no_engine_and_no_channel(self):
        for path in Path(repro.hitting.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
            imported |= {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names
            }
            assert not any(
                name.startswith(("repro.sim.engine", "repro.radio")) for name in imported
            ), path.name


class TestTrials:
    def test_trial_count(self):
        outcomes = two_player_trials(FixedProbabilityProtocol(p=0.5), trials=20, seed=1)
        assert len(outcomes) == 20

    def test_deterministic(self):
        a = two_player_trials(FixedProbabilityProtocol(p=0.5), trials=10, seed=4)
        b = two_player_trials(FixedProbabilityProtocol(p=0.5), trials=10, seed=4)
        assert [o.rounds for o in a] == [o.rounds for o in b]

    def test_trials_validation(self):
        with pytest.raises(ValueError, match="trials"):
            two_player_trials(FixedProbabilityProtocol(), trials=0)

    def test_p_half_is_geometric_half(self):
        # P(win in a round) = 2 * 0.5 * 0.5 = 0.5, so mean winning time 2.
        outcomes = two_player_trials(
            FixedProbabilityProtocol(p=0.5), trials=600, seed=9
        )
        rounds = [o.rounds for o in outcomes]
        assert sum(rounds) / len(rounds) == pytest.approx(2.0, rel=0.15)

    def test_decay_solves_two_player(self):
        outcomes = two_player_trials(DecayProtocol(size_bound=2), trials=50, seed=2)
        assert all(o.won for o in outcomes)


class TestFailureProbability:
    def test_decays_with_budget(self):
        outcomes = two_player_trials(
            FixedProbabilityProtocol(p=0.5), trials=800, seed=5
        )
        f1 = failure_probability_within(outcomes, 1)
        f4 = failure_probability_within(outcomes, 4)
        f8 = failure_probability_within(outcomes, 8)
        assert f1 > f4 > f8 >= 0.0

    def test_matches_geometric_envelope(self):
        # For the optimal symmetric strategy failure(B) = 2^-B exactly.
        outcomes = two_player_trials(
            FixedProbabilityProtocol(p=0.5), trials=2_000, seed=6
        )
        for budget in (1, 2, 3):
            measured = failure_probability_within(outcomes, budget)
            assert measured == pytest.approx(2.0**-budget, abs=0.05)

    def test_validation(self):
        outcomes = two_player_trials(FixedProbabilityProtocol(p=0.5), trials=5, seed=7)
        with pytest.raises(ValueError, match="budget"):
            failure_probability_within(outcomes, 0)
        with pytest.raises(ValueError, match="outcomes"):
            failure_probability_within([], 1)

    def test_unsolved_counts_as_failure(self):
        outcomes = two_player_trials(
            FixedProbabilityProtocol(p=1.0), trials=10, seed=8, max_rounds=20
        )
        assert failure_probability_within(outcomes, 5) == 1.0
