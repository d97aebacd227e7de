"""Lower-bound machinery (Section 4 of the paper).

The paper's ``Omega(log n)`` lower bound is proved in three moves:

1. **Restricted k-hitting game** (Lemma 13, imported from [20]): a referee
   hides a 2-element target ``T`` inside ``{1..k}``; each round the player
   proposes a set ``P`` (a boolean mask of length ``k``) and wins iff
   ``|P ∩ T| = 1``; on a loss it learns nothing. Any player winning w.h.p.
   needs ``Omega(log k)`` rounds.
2. **Two-player contention resolution** (Lemma 14): with only two nodes the
   fading behaviour is irrelevant, and any algorithm solving two-player CR
   in ``f(k)`` rounds with probability ``1 - 1/k`` yields a hitting-game
   player with the same guarantees — by simulating ``k`` nodes, proposing
   the set of simulated broadcasters each round, and feeding every
   simulated node silence (here, with the engine's vector step).
3. **Embedding** (Theorem 2 sketch): a two-player instance embeds into a
   large fading network with ``O(log n)`` link classes, so general CR
   inherits the bound.

This package implements the game (with both a fixed-target referee and the
strongest *lazy adaptive* referee), reference players (including the
deterministic bit-splitting player that meets the bound exactly), the
two-player game, and the Lemma 14 reduction as executable code.
"""

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
from repro.hitting.reduction import ContentionResolutionPlayer
from repro.hitting.two_player import two_player_trial, two_player_trials

__all__ = [
    "AdaptiveReferee",
    "BitSplittingPlayer",
    "ContentionResolutionPlayer",
    "FixedTargetReferee",
    "GameResult",
    "HittingPlayer",
    "SingletonPlayer",
    "UniformSubsetPlayer",
    "play_hitting_game",
    "two_player_trial",
    "two_player_trials",
]
