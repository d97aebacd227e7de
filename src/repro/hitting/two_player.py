"""Two-player contention resolution (the Section 4 intermediate problem).

"Consider a two-player variant of the contention resolution problem ...
Notice, with two players, the fading behavior of the channel does not
matter as with only two nodes there is no opportunity for spatial reuse.
The game is won the first time one player transmits while the other
listens."

Because fading is irrelevant, and so is the channel, a round is only the
two players' decisions: :func:`two_player_trial` asks the factory's
vector step (:func:`~repro.protocols.schedules.template_step`) for the
transmit mask over both players until exactly one of them transmits. A
round that no one wins is silence or a collision, which knocks out no
player of a protocol without collision detection, so nothing else is
kept. These helpers measure the distribution of winning rounds and the
failure probability within a budget — the quantities Lemma 14 relates to
the hitting game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.hitting.reduction import silent_step
from repro.protocols.base import ProtocolFactory
from repro.sim.seeding import SeedLike, spawn_generators

__all__ = [
    "TwoPlayerOutcome",
    "failure_probability_within",
    "two_player_trial",
    "two_player_trials",
]


@dataclass(frozen=True)
class TwoPlayerOutcome:
    """Result of one two-player execution (``rounds`` is 1-based)."""

    rounds: Optional[int]

    @property
    def won(self) -> bool:
        return self.rounds is not None


def two_player_trial(
    protocol: ProtocolFactory,
    rng,
    max_rounds: int = 10_000,
) -> TwoPlayerOutcome:
    """One execution of the protocol with exactly two nodes.

    The protocol must be one :func:`~repro.hitting.reduction.silent_step`
    accepts: with a vector step and without collision detection.
    """
    step = silent_step(protocol, 2)
    players = np.arange(2)
    for round_index in range(max_rounds):
        transmit = step.decide(players, np.full(2, round_index), rng, False)
        if transmit[0] != transmit[1]:
            return TwoPlayerOutcome(rounds=round_index + 1)
    return TwoPlayerOutcome(rounds=None)


def two_player_trials(
    protocol: ProtocolFactory,
    trials: int,
    seed: SeedLike = 0,
    max_rounds: int = 10_000,
) -> List[TwoPlayerOutcome]:
    """Independent two-player executions under spawned seeds."""
    if trials < 1:
        raise ValueError(f"trials must be positive (got {trials})")
    outcomes = []
    for rng in spawn_generators(seed, trials):
        outcomes.append(two_player_trial(protocol, rng, max_rounds=max_rounds))
    return outcomes


def failure_probability_within(
    outcomes: List[TwoPlayerOutcome], budget: int
) -> float:
    """Fraction of executions not won within ``budget`` rounds.

    Lemma 14's contrapositive in measurable form: if an algorithm solved
    two-player CR in ``f(k) = o(log k)`` rounds with failure probability
    ``<= 1/k``, the derived hitting player would beat Lemma 13. Plotting
    this failure probability against the budget shows the geometric decay
    — halving per round is the best possible, pinned by the
    symmetric-strategy argument.
    """
    if budget < 1:
        raise ValueError(f"budget must be positive (got {budget})")
    if not outcomes:
        raise ValueError("no outcomes supplied")
    misses = sum(
        1 for outcome in outcomes if not outcome.won or outcome.rounds > budget
    )
    return misses / len(outcomes)
