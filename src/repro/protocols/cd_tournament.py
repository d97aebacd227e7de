"""The ``Theta(log n)`` tournament available with receiver collision detection.

The paper notes (Section 1, citing [20]) that the classical
``Theta(log^2 n)`` contention-resolution bound improves to ``Theta(log n)``
when receivers can detect collisions. The standard tournament realises it:

* each round, every active node transmits with probability 1/2;
* a listener that hears a **collision** concedes — two or more contenders
  just proved themselves willing, so the listener deactivates;
* a listener that hears **silence** or a **message** keeps its state (a
  message means the round was solo and the execution is over anyway).

When ``k >= 2`` nodes are active and ``2 <= k' <= k`` of them transmit, the
``k - k'`` listeners all hear the collision and drop out, so the active set
falls to ``k'`` — in expectation half of ``k`` — and the contenders halve
geometrically until a solo round ends the game: ``O(log n)`` w.h.p.

This protocol only makes sense on a radio channel with
``collision_detection=True`` (declared via
``requires_collision_detection``); the engine refuses to pair it with a
channel that cannot deliver the ternary observation.
"""

from __future__ import annotations

from repro.protocols.base import Knockout, NodeSpec, ObliviousNode, ProtocolFactory

__all__ = ["CollisionDetectionTournamentNode", "CollisionDetectionTournamentProtocol"]


class CollisionDetectionTournamentNode(ObliviousNode):
    """One contender in the halving tournament: listeners concede on a collision."""

    requires_collision_detection = True
    knockout = Knockout.ON_COLLISION

    def __init__(self, node_id: int, p: float) -> None:
        super().__init__(node_id)
        self.p = p


class CollisionDetectionTournamentProtocol(ProtocolFactory):
    """Factory for the collision-detection tournament.

    Parameters
    ----------
    p:
        Per-round transmission probability of the coin flip (default 1/2,
        the textbook choice).
    """

    knows_network_size = False
    requires_collision_detection = True

    def __init__(self, p: float = 0.5) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"tournament probability must be in (0, 1) (got {p})")
        self.p = p
        self.name = f"cd-tournament(p={p:g})"

    def node_spec(self, n: int) -> NodeSpec:
        return CollisionDetectionTournamentNode, (self.p,)
