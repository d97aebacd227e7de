"""Frozen set-based references for the hitting game's mask implementations.

``repro.hitting`` plays the game on boolean masks: the adaptive referee
keeps one group label per element, and the Lemma 14 player and the
two-player game run the engine's vector step. These are the versions
they replaced, kept here as oracles:

* :class:`GroupRefinementReferee` holds the partition of ``{0..k-1}``
  into frozenset groups with identical proposal-membership histories;
* :class:`PerNodeContentionResolutionPlayer` builds the factory's ``k``
  nodes, asks each one to ``decide`` and feeds each one silence;
* :func:`engine_two_player_trial` runs the generic engine on a
  two-node collision channel without collision detection.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List

import numpy as np

from repro.hitting.two_player import TwoPlayerOutcome
from repro.protocols.base import Action, Feedback, ProtocolFactory
from repro.radio.channel import RadioChannel
from repro.sim.engine import Simulation


def mask_of(k: int, ids: Iterable[int]) -> np.ndarray:
    """The boolean proposal mask of length ``k`` holding ``ids``."""
    mask = np.zeros(k, dtype=bool)
    mask[list(ids)] = True
    return mask


class GroupRefinementReferee:
    """The adaptive referee as a list of frozenset groups."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.groups: List[FrozenSet[int]] = [frozenset(range(k))]

    @property
    def consistent_pairs(self) -> int:
        return sum(len(g) * (len(g) - 1) // 2 for g in self.groups)

    def judge(self, proposal: FrozenSet[int]) -> bool:
        new_groups: List[FrozenSet[int]] = []
        survivor_exists = False
        for group in self.groups:
            for part in (group & proposal, group - proposal):
                if part:
                    new_groups.append(part)
                    survivor_exists |= len(part) >= 2
        self.groups = new_groups
        return not survivor_exists


class PerNodeContentionResolutionPlayer:
    """The Lemma 14 player stepping the factory's nodes one by one."""

    def __init__(self, protocol: ProtocolFactory, k: int) -> None:
        self.nodes = protocol.build(k)
        self._round = 0
        self._pending: FrozenSet[int] = frozenset()

    def propose(self, round_index: int, rng: np.random.Generator) -> FrozenSet[int]:
        transmitters = set()
        for node in self.nodes:
            if not node.active:
                continue
            if node.decide(self._round, rng) is Action.TRANSMIT:
                transmitters.add(node.node_id)
        self._pending = frozenset(transmitters)
        return self._pending

    def on_loss(self, round_index: int) -> None:
        for node in self.nodes:
            if not node.active:
                continue
            transmitted = node.node_id in self._pending
            node.on_feedback(self._round, Feedback(transmitted=transmitted))
        self._round += 1


def engine_two_player_trial(
    protocol: ProtocolFactory, rng, max_rounds: int = 10_000
) -> TwoPlayerOutcome:
    """One two-player execution through a ``RadioChannel(2)`` and a ``Simulation``."""
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
