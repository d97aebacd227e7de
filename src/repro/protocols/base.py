"""Protocol interface shared by the paper's algorithm and all baselines.

The model (Section 2) is synchronous: each round every node either
transmits at fixed power or listens. A protocol is therefore a per-node
state machine with two entry points:

``decide(round_index, rng)``
    Called at the start of each round for every *active* node; returns
    :attr:`Action.TRANSMIT` or :attr:`Action.LISTEN`.
``on_feedback(round_index, feedback)``
    Called after the channel resolves the round. The feedback honours the
    model's information constraints: a transmitter learns nothing about the
    fate of its transmission; a listener learns the decoded message (if
    any) and — only on a collision-detection radio channel — the ternary
    channel observation.

Nodes begin *active* and may deactivate themselves (the paper's algorithm
deactivates on first reception). Inactive nodes are never asked to decide
and never transmit; the engine treats the first round with exactly one
transmitter as solving the problem, matching Section 2's definition.

:class:`ObliviousNode` is the shared base of every protocol whose broadcast
probability depends only on the local round number and whose only reaction
to feedback is a declared :class:`Knockout` rule. The engine runs a round of
such a protocol's factory as one vectorised step (see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple, Type

import numpy as np

from repro.radio.channel import ChannelObservation

__all__ = [
    "Action",
    "Feedback",
    "Knockout",
    "NodeProtocol",
    "NodeSpec",
    "ObliviousNode",
    "ProtocolFactory",
]


class Action(Enum):
    """A node's choice for one round."""

    TRANSMIT = "transmit"
    LISTEN = "listen"


@dataclass(frozen=True)
class Feedback:
    """What one node learns from one round.

    Attributes
    ----------
    transmitted:
        Whether this node transmitted. Transmitters receive no other
        information (``received`` is ``None`` and ``observation`` is
        ``None`` for them) — the radio network model's defining constraint.
    received:
        The id of the decoded sender, or ``None`` if nothing was decoded.
    observation:
        On a collision-detection radio channel, what the listener
        perceived; ``None`` on channels without receiver feedback
        (including the SINR channel, where reception itself is the only
        signal).
    energy:
        On an SINR channel, the total arriving signal power measured while
        listening (what carrier-sensing hardware reports); ``None`` for
        transmitters and on channels without energy measurement. Only
        protocols that declare ``requires_energy_sensing`` may rely on it.
    """

    transmitted: bool
    received: Optional[int] = None
    observation: Optional[ChannelObservation] = None
    energy: Optional[float] = None


class NodeProtocol(ABC):
    """Per-node state machine.

    Subclasses set ``self._active = False`` to drop out of contention. The
    engine guarantees ``decide`` is only invoked on active nodes and that
    feedback is delivered to every node that was active at the start of the
    round.

    The class attributes ``requires_collision_detection`` and
    ``requires_energy_sensing`` mirror the factory flags; the engine
    consults them to refuse protocol/channel mismatches.
    """

    requires_collision_detection: bool = False
    requires_energy_sensing: bool = False

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._active = True

    @property
    def active(self) -> bool:
        """Whether this node is still contending."""
        return self._active

    @abstractmethod
    def decide(self, round_index: int, rng: np.random.Generator) -> Action:
        """Choose this round's action. Only called while active."""

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        """Process the round's outcome. Default: ignore it."""

    def __repr__(self) -> str:
        state = "active" if self._active else "inactive"
        return f"{type(self).__name__}(node_id={self.node_id}, {state})"


class Knockout(Enum):
    """What makes an :class:`ObliviousNode` listener drop out of contention."""

    NEVER = "never"
    #: Deactivate on decoding any message (the paper's knockout rule).
    ON_RECEIVE = "receive"
    #: Deactivate on hearing a collision (collision-detection radio only).
    ON_COLLISION = "collision"


class ObliviousNode(NodeProtocol):
    """A node with an oblivious broadcast schedule and a declared knockout rule.

    Each round the node transmits iff ``rng.random() <
    broadcast_probability(round_index)``; a *listener* deactivates as its
    ``knockout`` rule says, and transmitters learn nothing. Subclasses set
    ``knockout`` (class or instance attribute) and supply
    :meth:`broadcast_probability` (the default returns a constant
    ``self.p``). They must not override :meth:`decide` or
    :meth:`on_feedback`: the engine replaces both by one vectorised step
    over all nodes when a run is given the protocol's factory
    (:func:`repro.protocols.schedules.template_step`); a node list runs
    node by node.
    """

    knockout: Knockout = Knockout.NEVER
    #: The broadcast probability of a constant schedule.
    p: float

    def broadcast_probability(self, round_index: int) -> float:
        """Transmit probability in the given (0-indexed, local) round."""
        return self.p

    def knock_out(self) -> None:
        """Drop out of contention for good."""
        self._active = False

    def decide(self, round_index: int, rng: np.random.Generator) -> Action:
        if rng.random() < self.broadcast_probability(round_index):
            return Action.TRANSMIT
        return Action.LISTEN

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        if feedback.transmitted:
            return  # transmitters learn nothing and stay in
        if self.knockout is Knockout.ON_RECEIVE:
            heard = feedback.received is not None
        elif self.knockout is Knockout.ON_COLLISION:
            heard = feedback.observation is ChannelObservation.COLLISION
        else:
            heard = False
        if heard:
            self.knock_out()


#: ``(node_class, args)``: every node of a run is ``node_class(node_id, *args)``.
NodeSpec = Tuple[Type[NodeProtocol], tuple]


class ProtocolFactory(ABC):
    """Builds the per-node state machines for one execution.

    A factory describes its ``n`` nodes once, by :meth:`node_spec`: one
    node class and the constructor arguments all of them share. The base
    class builds the node list from it (:meth:`build`), or the single
    node that stands for all of them (:meth:`template`), which is all the
    engine's vector step needs (:mod:`repro.sim.engine`).

    Class attributes declare a protocol's assumptions so experiments can
    report them honestly:

    ``knows_network_size``
        Whether :meth:`node_spec` uses its ``n`` argument (e.g. decay
        needs an upper bound on the network size; the paper's algorithm
        does not).
    ``requires_collision_detection``
        Whether the protocol only makes sense on a radio channel with
        receiver collision detection.
    ``requires_energy_sensing``
        Whether the protocol needs per-round energy measurements (carrier
        sensing), which only the SINR channel provides.
    """

    name: str = "protocol"
    knows_network_size: bool = False
    requires_collision_detection: bool = False
    requires_energy_sensing: bool = False

    @abstractmethod
    def node_spec(self, n: int) -> NodeSpec:
        """The node class and shared constructor arguments for ``n >= 1`` nodes."""

    def _checked_spec(self, n: int) -> NodeSpec:
        if n < 1:
            raise ValueError(f"n must be positive (got {n})")
        return self.node_spec(n)

    def build(self, n: int) -> List[NodeProtocol]:
        """Instantiate fresh state machines for ``n`` participating nodes."""
        kind, args = self._checked_spec(n)
        return [kind(i, *args) for i in range(n)]

    def template(self, n: int) -> NodeProtocol:
        """A fresh node 0 of ``build(n)``: every node's class and parameters."""
        kind, args = self._checked_spec(n)
        return kind(0, *args)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
