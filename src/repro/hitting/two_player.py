"""Two-player contention resolution (the Section 4 intermediate problem).

"Consider a two-player variant of the contention resolution problem ...
Notice, with two players, the fading behavior of the channel does not
matter as with only two nodes there is no opportunity for spatial reuse.
The game is won the first time one player transmits while the other
listens."

Because fading is irrelevant, the game runs on the clique collision channel
with ``n = 2``. Any :class:`~repro.protocols.base.ProtocolFactory` can play;
these helpers measure the distribution of winning rounds and the failure
probability within a budget — the quantities Lemma 14 relates to the
hitting game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.protocols.base import ProtocolFactory
from repro.radio.channel import RadioChannel
from repro.sim.engine import Simulation
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
    """One execution of the protocol with exactly two nodes."""
    channel = RadioChannel(2, collision_detection=False)
    simulation = Simulation(
        channel,
        protocol,
        rng=rng,
        max_rounds=max_rounds,
        keep_records=False,
        protocol_name=protocol.name,
    )
    trace = simulation.run()
    return TwoPlayerOutcome(rounds=trace.rounds_to_solve)


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
