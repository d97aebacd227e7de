"""Unit tests for the Lemma 14 reduction (CR algorithm -> hitting player)."""

import math

import numpy as np
import pytest

from repro.hitting.game import AdaptiveReferee, FixedTargetReferee, play_hitting_game
from repro.hitting.reduction import ContentionResolutionPlayer
from repro.protocols.aloha import SlottedAlohaProtocol
from repro.protocols.backoff import BinaryExponentialBackoffProtocol
from repro.protocols.carrier_sense import CarrierSenseTournamentProtocol
from repro.protocols.cd_tournament import CollisionDetectionTournamentProtocol
from repro.protocols.decay import DecayProtocol
from repro.protocols.js16 import JurdzinskiStachowiakProtocol
from repro.protocols.sawtooth import SawtoothBackoffProtocol
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.seeding import generator_from
from tests.hitting_oracles import PerNodeContentionResolutionPlayer, mask_of

#: One factory of every protocol the reduction accepts.
VECTOR_STEP_FACTORIES = {
    "simple": lambda k: FixedProbabilityProtocol(p=0.3),
    "decay": lambda k: DecayProtocol(size_bound=k),
    "decay-knockout": lambda k: DecayProtocol(size_bound=k, deactivate_on_receive=True),
    "aloha": lambda k: SlottedAlohaProtocol(),
    "js16": lambda k: JurdzinskiStachowiakProtocol(size_bound=k),
    "sawtooth": lambda k: SawtoothBackoffProtocol(max_exponent=6),
    "beb": lambda k: BinaryExponentialBackoffProtocol(initial_window=2, max_window=64),
}


class TestConstruction:
    def test_rejects_cd_protocols(self):
        with pytest.raises(ValueError, match="collision-detection"):
            ContentionResolutionPlayer(CollisionDetectionTournamentProtocol(), 8)

    def test_rejects_factories_without_vector_step(self):
        with pytest.raises(ValueError, match="vector step"):
            ContentionResolutionPlayer(CarrierSenseTournamentProtocol(threshold=1.0), 8)


class TestSimulation:
    def test_proposal_is_broadcaster_set(self, rng):
        player = ContentionResolutionPlayer(FixedProbabilityProtocol(p=1.0), 4)
        proposal = player.propose(0, rng)
        assert proposal.dtype == bool
        assert proposal.tolist() == [True, True, True, True]

    def test_silence_fed_on_loss(self, rng):
        # The per-node reference feeds every node silence; decay without
        # knockout then keeps all nodes active forever.
        player = PerNodeContentionResolutionPlayer(DecayProtocol(size_bound=4), 4)
        for round_index in range(20):
            player.propose(round_index, rng)
            player.on_loss(round_index)
        assert all(node.active for node in player.nodes)

    def test_simulated_round_advances_only_on_loss(self, rng):
        player = ContentionResolutionPlayer(FixedProbabilityProtocol(p=0.5), 4)
        assert player._round == 0
        player.propose(0, rng)
        assert player._round == 0  # a win would end here, mid-round
        player.on_loss(0)
        assert player._round == 1

    def test_knockout_protocols_stay_active_under_silence(self, rng):
        # All nodes receive nothing, so the paper's algorithm never
        # deactivates anyone inside the simulation.
        player = PerNodeContentionResolutionPlayer(FixedProbabilityProtocol(p=0.3), 16)
        for round_index in range(50):
            player.propose(round_index, rng)
            player.on_loss(round_index)
        assert all(node.active for node in player.nodes)

    @pytest.mark.parametrize("name", sorted(VECTOR_STEP_FACTORIES))
    def test_no_accepted_protocol_knocks_out_under_silence(self, name, rng):
        # Nor does any protocol the reduction accepts, so the vector-step
        # player need not track knockouts.
        k = 16
        player = PerNodeContentionResolutionPlayer(VECTOR_STEP_FACTORIES[name](k), k)
        for round_index in range(50):
            player.propose(round_index, rng)
            player.on_loss(round_index)
        assert all(node.active for node in player.nodes)


class TestPerNodeParity:
    """The vector-step player proposes what stepping each node would."""

    @pytest.mark.parametrize("name", sorted(VECTOR_STEP_FACTORIES))
    @pytest.mark.parametrize("k", [2, 5, 64])
    def test_proposals_match_round_by_round(self, name, k):
        player = ContentionResolutionPlayer(VECTOR_STEP_FACTORIES[name](k), k)
        oracle = PerNodeContentionResolutionPlayer(VECTOR_STEP_FACTORIES[name](k), k)
        rng, oracle_rng = generator_from((k, 1)), generator_from((k, 1))
        for round_index in range(80):
            proposal = player.propose(round_index, rng)
            expected = oracle.propose(round_index, oracle_rng)
            assert np.flatnonzero(proposal).tolist() == sorted(expected), round_index
            player.on_loss(round_index)
            oracle.on_loss(round_index)
        # Both consumed the same draws.
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("name", sorted(VECTOR_STEP_FACTORIES))
    def test_games_match_against_the_adaptive_referee(self, name):
        k = 32
        player = ContentionResolutionPlayer(VECTOR_STEP_FACTORIES[name](k), k)
        result = play_hitting_game(
            player, AdaptiveReferee(k), generator_from(7), max_rounds=2_000
        )
        oracle = PerNodeContentionResolutionPlayer(VECTOR_STEP_FACTORIES[name](k), k)
        referee = AdaptiveReferee(k)
        oracle_rng = generator_from(7)
        for round_index in range(2_000):
            if referee.judge(mask_of(k, oracle.propose(round_index, oracle_rng))):
                assert result.rounds_to_win == round_index + 1
                break
            oracle.on_loss(round_index)
        else:
            assert not result.won


class TestBoundTransfer:
    def test_simple_protocol_respects_adaptive_floor(self, rng):
        for k in (4, 16, 64):
            player = ContentionResolutionPlayer(FixedProbabilityProtocol(p=0.5), k)
            result = play_hitting_game(
                player, AdaptiveReferee(k), rng, max_rounds=50_000
            )
            assert result.won
            assert result.rounds_to_win >= math.ceil(math.log2(k))

    def test_decay_respects_adaptive_floor(self, rng):
        k = 16
        player = ContentionResolutionPlayer(DecayProtocol(size_bound=k), k)
        result = play_hitting_game(player, AdaptiveReferee(k), rng, max_rounds=50_000)
        assert result.won
        assert result.rounds_to_win >= 4

    def test_wins_against_fixed_targets(self, rng):
        k = 8
        referee = FixedTargetReferee(k, (1, 6))
        player = ContentionResolutionPlayer(FixedProbabilityProtocol(p=0.5), k)
        result = play_hitting_game(player, referee, rng, max_rounds=10_000)
        assert result.won
