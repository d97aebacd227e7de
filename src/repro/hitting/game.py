"""The restricted k-hitting game: referees and the play loop.

Rules (Section 4, following [20]): the referee fixes a target
``T ⊆ {0, ..., k-1}`` with ``|T| = 2``. Rounds proceed: the player proposes
``P``; if ``|P ∩ T| = 1`` the player wins; otherwise play continues and the
player learns nothing beyond "that proposal did not win". A proposal is a
boolean mask of length ``k`` (``mask[i]`` iff ``i ∈ P``).

Two referees are provided:

:class:`FixedTargetReferee`
    Commits to ``T`` up front — the game exactly as defined. Useful for
    measuring a player's distribution of winning times over random targets.
:class:`AdaptiveReferee`
    The *lazy adversary*: it never commits, and answers "no win" as long as
    **some** target remains consistent with every answer given so far. A
    pair ``{i, j}`` stays consistent while every proposal has contained
    both or neither of ``i, j``; the referee labels each element with its
    group of identical membership histories and concedes only when a
    proposal leaves no label shared by two elements. Because a proposal
    can at most double the number of groups, **no player beats the
    adaptive referee in fewer than ``ceil(log2 k)`` rounds** — the
    combinatorial core of Lemma 13, here as runnable code
    (property-tested in the suite).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.hitting.players import HittingPlayer

__all__ = [
    "HittingReferee",
    "FixedTargetReferee",
    "AdaptiveReferee",
    "GameResult",
    "play_hitting_game",
]


class HittingReferee(ABC):
    """Judges proposals for one instance of the game."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError(f"the game needs k >= 2 (got {k})")
        self.k = k

    @abstractmethod
    def judge(self, proposal: np.ndarray) -> bool:
        """Return True iff the proposal mask wins. May mutate referee state."""

    def _validate(self, proposal: np.ndarray) -> None:
        if proposal.dtype != bool or proposal.shape != (self.k,):
            raise ValueError(f"a proposal is a boolean mask of length {self.k}")


class FixedTargetReferee(HittingReferee):
    """The literal game: a target pair (ascending) chosen before play begins."""

    def __init__(self, k: int, target: Iterable[int]) -> None:
        super().__init__(k)
        pair = sorted({int(x) for x in target})
        if len(pair) != 2:
            raise ValueError(f"target must have exactly 2 elements (got {len(pair)})")
        if pair[0] < 0 or pair[1] >= k:
            raise ValueError(f"target elements must lie in 0..{k - 1}")
        self.target = tuple(pair)

    @classmethod
    def random(cls, k: int, rng: np.random.Generator) -> "FixedTargetReferee":
        """A referee with a uniformly random target pair."""
        return cls(k, rng.choice(k, size=2, replace=False))

    def judge(self, proposal: np.ndarray) -> bool:
        self._validate(proposal)
        first, second = self.target
        return bool(proposal[first] != proposal[second])


class AdaptiveReferee(HittingReferee):
    """The lazy adversary: concedes only when no consistent target remains.

    State is one group label per element: two elements share a label iff
    every proposal so far contained both or neither, so the consistent
    targets are exactly the pairs that share a label.
    """

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self._labels = np.zeros(k, dtype=np.intp)

    @property
    def consistent_pairs(self) -> int:
        """Number of targets still consistent with all answers so far."""
        sizes = np.bincount(self._labels)
        return int((sizes * (sizes - 1) // 2).sum())

    def judge(self, proposal: np.ndarray) -> bool:
        self._validate(proposal)
        # Each group splits into its proposed and unproposed members.
        _, self._labels, sizes = np.unique(
            2 * self._labels + proposal, return_inverse=True, return_counts=True
        )
        # If some pair survives this proposal, the adversary hides there and
        # answers "no win". Otherwise every formerly-consistent pair was
        # split for the first time by this very proposal, so whichever
        # target the adversary is deemed to have held, this proposal wins.
        return bool(sizes.max() < 2)


@dataclass(frozen=True)
class GameResult:
    """Outcome of one play of the hitting game.

    ``rounds_to_win`` is 1-based; ``None`` means the budget ran out.
    """

    k: int
    rounds_to_win: Optional[int]
    proposals_made: int

    @property
    def won(self) -> bool:
        return self.rounds_to_win is not None


def play_hitting_game(
    player: HittingPlayer,
    referee: HittingReferee,
    rng: np.random.Generator,
    max_rounds: int = 100_000,
) -> GameResult:
    """Run rounds until the player wins or the budget is exhausted."""
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be positive (got {max_rounds})")
    for round_index in range(max_rounds):
        proposal = player.propose(round_index, rng)
        if referee.judge(proposal):
            return GameResult(
                k=referee.k,
                rounds_to_win=round_index + 1,
                proposals_made=round_index + 1,
            )
        player.on_loss(round_index)
    return GameResult(k=referee.k, rounds_to_win=None, proposals_made=max_rounds)
