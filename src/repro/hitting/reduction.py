"""Lemma 14: any contention-resolution algorithm is a hitting-game player.

The construction, verbatim from the paper: the player "simulates A on k
nodes with unique ids from {1, 2, ..., k}. Each simulated round corresponds
to a round of the restricted hitting game as follows: first, the player
proposes the set containing the id of every node that broadcast in the
current simulated round; then second, the player completes its simulation
of the round by simulating all k nodes receiving nothing."

The correctness hinge (also from the paper): for the unknown target
``T = {i, j}``, simulating both nodes receiving nothing is consistent with
an execution in which only ``i`` and ``j`` exist — in any round where the
simulation would be *inconsistent* (exactly one of the pair broadcast), the
proposal has already won the game before the inconsistency matters.

:class:`ContentionResolutionPlayer` is that player. It runs the engine's
vector step (:func:`~repro.protocols.schedules.template_step`) over all
``k`` nodes, so a proposal is the step's transmit mask; silence knocks
out no node of any vector-step protocol, so a lost round only advances
the simulated clock. Against the adaptive referee, Lemma 13's bound
becomes a measured floor: **every** such protocol in the library needs at
least ``ceil(log2 k)`` proposals to win.
"""

from __future__ import annotations

import numpy as np

from repro.hitting.players import HittingPlayer
from repro.protocols.base import ProtocolFactory
from repro.protocols.schedules import template_step

__all__ = ["ContentionResolutionPlayer", "silent_step"]


def silent_step(protocol: ProtocolFactory, k: int):
    """The vector step that runs ``k`` of the factory's nodes on silence alone.

    Collision-detection protocols are refused: a CD protocol's behaviour
    is not defined by reception alone. So are factories without a
    vector step (:func:`~repro.protocols.schedules.template_step`).
    """
    if protocol.requires_collision_detection:
        raise ValueError(
            "only silence is simulated; collision-detection protocols "
            "cannot be simulated this way"
        )
    step = template_step(protocol.template(k), k)
    if step is None:
        raise ValueError(
            f"the simulation runs a factory's vector step; {protocol.name} has none"
        )
    return step


class ContentionResolutionPlayer(HittingPlayer):
    """Hitting-game player that simulates a CR algorithm on ``k`` nodes.

    Parameters
    ----------
    protocol:
        A protocol factory that :func:`silent_step` accepts: one with a
        vector step (so not the carrier-sense tournament) and without
        collision detection, since the reduction feeds nodes *silence*.
    k:
        The game size; the simulation runs ``k`` nodes.
    """

    def __init__(self, protocol: ProtocolFactory, k: int) -> None:
        super().__init__(k)
        self.step = silent_step(protocol, k)
        self._ids = np.arange(k)
        self._round = 0

    def propose(self, round_index: int, rng: np.random.Generator) -> np.ndarray:
        return self.step.decide(self._ids, np.full(self.k, self._round), rng, False)

    def on_loss(self, round_index: int) -> None:
        # Every node receives nothing, which knocks none out. (On a win the
        # half-simulated round is discarded, as in the paper's argument.)
        self._round += 1
