"""Unit tests for the restricted k-hitting game (referees + play loop)."""

import math

import numpy as np
import pytest

from repro.hitting.game import (
    AdaptiveReferee,
    FixedTargetReferee,
    GameResult,
    play_hitting_game,
)
from repro.hitting.players import (
    BitSplittingPlayer,
    HittingPlayer,
    SingletonPlayer,
    UniformSubsetPlayer,
)
from repro.sim.seeding import generator_from
from tests.hitting_oracles import mask_of


class TestFixedTargetReferee:
    def test_winning_proposal(self):
        referee = FixedTargetReferee(8, (2, 5))
        assert referee.judge(mask_of(8, {2}))
        assert referee.judge(mask_of(8, {5, 7}))

    def test_losing_proposals(self):
        referee = FixedTargetReferee(8, (2, 5))
        assert not referee.judge(mask_of(8, ()))  # hits neither
        assert not referee.judge(mask_of(8, {2, 5}))  # hits both
        assert not referee.judge(mask_of(8, {0, 1}))  # hits neither

    def test_target_validation(self):
        with pytest.raises(ValueError, match="2 elements"):
            FixedTargetReferee(8, (1,))
        with pytest.raises(ValueError, match="0..7"):
            FixedTargetReferee(8, (1, 9))

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k"):
            FixedTargetReferee(1, (0, 1))

    def test_proposal_validation(self):
        referee = FixedTargetReferee(4, (0, 1))
        with pytest.raises(ValueError, match="length 4"):
            referee.judge(mask_of(8, {7}))
        with pytest.raises(ValueError, match="boolean mask"):
            referee.judge(np.array([0, 1]))

    def test_random_referee_target_in_range(self, rng):
        referee = FixedTargetReferee.random(10, rng)
        first, second = referee.target
        assert 0 <= first < second < 10


class TestAdaptiveReferee:
    def test_initial_consistent_pairs(self):
        referee = AdaptiveReferee(5)
        assert referee.consistent_pairs == 10  # C(5, 2)

    def test_losing_answer_while_pairs_survive(self):
        referee = AdaptiveReferee(4)
        # {0, 1} vs {2, 3}: pairs (0,1) and (2,3) survive.
        assert not referee.judge(mask_of(4, {0, 1}))
        assert referee.consistent_pairs == 2

    def test_concedes_when_all_pairs_split(self):
        referee = AdaptiveReferee(4)
        referee.judge(mask_of(4, {0, 1}))  # groups {0,1}, {2,3}
        assert referee.judge(mask_of(4, {0, 2}))  # splits both pairs

    def test_empty_proposal_never_wins_initially(self):
        referee = AdaptiveReferee(4)
        assert not referee.judge(mask_of(4, ()))

    def test_full_proposal_never_wins_initially(self):
        referee = AdaptiveReferee(4)
        assert not referee.judge(mask_of(4, range(4)))

    def test_k_two_concedes_on_split(self):
        referee = AdaptiveReferee(2)
        assert referee.judge(mask_of(2, {0}))

    def test_k_two_survives_symmetric_proposals(self):
        referee = AdaptiveReferee(2)
        assert not referee.judge(mask_of(2, ()))
        assert not referee.judge(mask_of(2, {0, 1}))
        assert referee.consistent_pairs == 1

    def test_log_floor_holds_for_any_proposal_sequence(self, rng):
        # A proposal at most doubles the group count, so at least
        # ceil(log2 k) proposals are needed before the referee concedes.
        for k in (4, 7, 16, 33):
            referee = AdaptiveReferee(k)
            rounds = 0
            while True:
                rounds += 1
                if referee.judge(rng.random(k) < 0.5):
                    break
                if rounds > 10_000:
                    pytest.fail("adaptive game did not terminate")
            assert rounds >= math.ceil(math.log2(k))


class TestPlayLoop:
    def test_bit_player_beats_fixed_targets(self, rng):
        k = 16
        for i in range(k):
            for j in range(i + 1, k):
                referee = FixedTargetReferee(k, (i, j))
                result = play_hitting_game(BitSplittingPlayer(k), referee, rng)
                assert result.won
                assert result.rounds_to_win <= math.ceil(math.log2(k))

    def test_bit_player_exact_on_adaptive(self, rng):
        for k in (2, 3, 8, 17, 64, 100):
            result = play_hitting_game(
                BitSplittingPlayer(k), AdaptiveReferee(k), rng
            )
            assert result.rounds_to_win == max(1, math.ceil(math.log2(k)))

    def test_budget_exhaustion(self, rng):
        class Hopeless(HittingPlayer):
            def propose(self, round_index, rng):
                return mask_of(self.k, ())  # never intersects anything

        result = play_hitting_game(
            Hopeless(8), FixedTargetReferee(8, (0, 1)), rng, max_rounds=5
        )
        assert not result.won
        assert result.proposals_made == 5

    def test_max_rounds_validation(self, rng):
        with pytest.raises(ValueError, match="max_rounds"):
            play_hitting_game(
                SingletonPlayer(4),
                FixedTargetReferee(4, (0, 1)),
                rng,
                max_rounds=0,
            )

    def test_game_result_fields(self):
        result = GameResult(k=8, rounds_to_win=3, proposals_made=3)
        assert result.won
        assert GameResult(k=8, rounds_to_win=None, proposals_made=9).won is False

    def test_singleton_player_wins_within_k(self, rng):
        k = 10
        referee = FixedTargetReferee(k, (7, 9))
        result = play_hitting_game(SingletonPlayer(k), referee, rng, max_rounds=k)
        assert result.won
        assert result.rounds_to_win == 8  # proposal {7} at round index 7

    def test_uniform_player_wins_half_the_time(self, rng):
        k = 32
        wins_in_one = 0
        trials = 400
        for _ in range(trials):
            referee = FixedTargetReferee.random(k, rng)
            player = UniformSubsetPlayer(k)
            if referee.judge(player.propose(0, rng)):
                wins_in_one += 1
        assert wins_in_one / trials == pytest.approx(0.5, abs=0.08)


class TestPlayers:
    @pytest.mark.parametrize(
        "player", [BitSplittingPlayer(5), UniformSubsetPlayer(5), SingletonPlayer(5)]
    )
    def test_proposals_are_boolean_masks(self, player, rng):
        for round_index in range(6):
            proposal = player.propose(round_index, rng)
            assert proposal.dtype == bool
            assert proposal.shape == (5,)

    def test_bit_player_proposes_bit_planes(self, rng):
        player = BitSplittingPlayer(6)
        assert np.flatnonzero(player.propose(0, rng)).tolist() == [1, 3, 5]
        assert np.flatnonzero(player.propose(1, rng)).tolist() == [2, 3]
        assert np.flatnonzero(player.propose(2, rng)).tolist() == [4, 5]

    def test_singleton_player_cycles(self, rng):
        player = SingletonPlayer(3)
        assert [np.flatnonzero(player.propose(r, rng)).tolist() for r in range(4)] == [
            [0], [1], [2], [0]
        ]
