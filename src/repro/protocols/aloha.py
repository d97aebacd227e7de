"""Slotted ALOHA with exact knowledge of the contender count (genie baseline).

With the true number of contenders ``n`` in hand, broadcasting with
probability ``1/n`` isolates a solo transmitter with probability
``n * (1/n) * (1 - 1/n)^(n-1) -> 1/e`` per round, so the problem is solved
in ``O(1)`` expected rounds and ``O(log n)`` rounds w.h.p. on any of our
channels. This is the information-theoretic best case the paper's
algorithm — which knows *nothing* about ``n`` — is measured against in
experiment E3.
"""

from __future__ import annotations

from repro.protocols.base import NodeSpec, ObliviousNode, ProtocolFactory

__all__ = ["SlottedAlohaNode", "SlottedAlohaProtocol"]


class SlottedAlohaNode(ObliviousNode):
    """One node broadcasting with the genie probability ``1/n``."""

    def __init__(self, node_id: int, p: float) -> None:
        super().__init__(node_id)
        self.p = p


class SlottedAlohaProtocol(ProtocolFactory):
    """Factory for the genie-aided slotted ALOHA baseline."""

    knows_network_size = True
    requires_collision_detection = False
    name = "aloha(1/n)"

    def node_spec(self, n: int) -> NodeSpec:
        return SlottedAlohaNode, (1.0 / n,)
