"""Carrier-sense knockout tournament — the paper's [22] direction, executable.

The paper's related-work caveat: "under the assumption of tunable carrier
sensing — a generalization of receiver collision detection — it is also
possible to do better than the radio network model without collision
detection". This module realises the idea on our SINR channel.

A carrier-sensing radio measures the total arriving signal power while
listening. Under the paper's single-hop assumption, *any* solo transmission
is decodable by everyone, so a listener that senses energy above its
sensitivity threshold but decodes nothing has proof of **at least two**
concurrent transmitters — exactly the information receiver collision
detection provides, obtained for free from the physical layer.

The protocol: each round every active node transmits with probability
``p`` (default 1/2); a listener that hears *anything* — a decoded message
or above-threshold energy — concedes. When ``k' >= 2`` of ``k`` contenders
transmit, every listener senses them and drops out, so the active set falls
to ``k' ~ Binomial(k, p)``: geometric shrinkage, ``Theta(log n)`` rounds
w.h.p., insensitive to ``R``. (When ``k' = 1`` the round is solo and the
problem is already solved; when ``k' = 0`` nothing changes.)

The sensitivity threshold is radio hardware, not protocol state:
:func:`carrier_sense_threshold` sizes it for a given channel as half the
power a single maximally distant transmitter would deliver, so one
transmitter anywhere in the (single-hop) deployment is always sensed and
ambient noise never trips it.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import (
    Action,
    Feedback,
    NodeProtocol,
    NodeSpec,
    ProtocolFactory,
)

__all__ = [
    "carrier_sense_threshold",
    "CarrierSenseNode",
    "CarrierSenseTournamentProtocol",
]


def carrier_sense_threshold(channel) -> float:
    """Sensitivity threshold sized for a deployment.

    Half the arriving power of one transmitter at the deployment diameter:
    ``0.5 * P / diameter^alpha``. Any single in-range transmitter exceeds
    it; silence never does.
    """
    diameter = channel.diameter
    if diameter <= 0.0:
        return 0.5 * channel.params.power
    return 0.5 * channel.params.power / diameter**channel.params.alpha


class CarrierSenseNode(NodeProtocol):
    """One contender of the carrier-sense tournament."""

    requires_energy_sensing = True

    def __init__(self, node_id: int, p: float, threshold: float) -> None:
        super().__init__(node_id)
        self.p = p
        self.threshold = threshold

    def decide(self, round_index: int, rng: np.random.Generator) -> Action:
        if rng.random() < self.p:
            return Action.TRANSMIT
        return Action.LISTEN

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        if feedback.transmitted:
            return  # transmitters learn nothing and stay in
        heard_something = feedback.received is not None or (
            feedback.energy is not None and feedback.energy >= self.threshold
        )
        if heard_something:
            self._active = False


class CarrierSenseTournamentProtocol(ProtocolFactory):
    """Factory for the carrier-sense tournament.

    Parameters
    ----------
    threshold:
        The radio's energy sensitivity. Size it with
        :func:`carrier_sense_threshold` for the deployment in use — the
        factory cannot know the channel, so this is explicit, mirroring
        how real hardware ships with a fixed sensitivity.
    p:
        Per-round transmission probability (default 1/2).
    """

    knows_network_size = False
    requires_collision_detection = False
    requires_energy_sensing = True

    def __init__(self, threshold: float, p: float = 0.5) -> None:
        if threshold <= 0.0:
            raise ValueError(f"threshold must be positive (got {threshold})")
        if not 0.0 < p < 1.0:
            raise ValueError(f"tournament probability must be in (0, 1) (got {p})")
        self.threshold = threshold
        self.p = p
        self.name = f"carrier-sense(p={p:g})"

    def node_spec(self, n: int) -> NodeSpec:
        return CarrierSenseNode, (self.p, self.threshold)
