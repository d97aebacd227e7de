"""Schedule inspection: broadcast probabilities as data.

Several protocols in this library are *oblivious probability schedules* —
a node's transmit probability in a round depends only on the (local) round
number, not on history. These helpers extract that schedule and compute
aggregate quantities the experiments use to *explain* results:

``probability_schedule``
    The per-round broadcast probability of one node over a horizon.
``expected_transmitters``
    For a set of nodes with arbitrary activation offsets, the expected
    number of transmitters in each global round — the quantity whose
    "passes through ~1" moments decide when a solo round is likely.
``solo_probability``
    Exact probability that exactly one of ``n`` i.i.d. nodes transmits at
    probability ``p`` — the classical ``n p (1-p)^{n-1}``.

A protocol qualifies if its node objects expose
``broadcast_probability(round_index)`` (decay, JS16) or a constant ``p``
(the paper's algorithm, ALOHA, the tournaments). State-dependent protocols
(BEB) do not have an oblivious schedule and are rejected.

``template_step``
    The numpy step the engine (:mod:`repro.sim.engine`) runs all of a
    factory run's nodes with, read from the factory's template node, or
    ``None`` when each node must be asked in turn (as every node list
    is). An :class:`ObliviousNode` type that keeps the base ``decide``
    and ``on_feedback`` gets an :class:`ObliviousStep`; a plain BEB node
    gets a :class:`~repro.protocols.backoff.BackoffStep`. The
    carrier-sense tournament has a constant ``p`` and so an oblivious
    schedule, but it is not an ``ObliviousNode``: its feedback reads the
    measured energy, which no knockout mask covers, so it keeps the
    engine's per-node step.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.protocols.backoff import BackoffStep, BinaryExponentialBackoffNode
from repro.protocols.base import Knockout, NodeProtocol, ObliviousNode, ProtocolFactory
from repro.radio.channel import ChannelObservation

__all__ = [
    "ObliviousStep",
    "template_step",
    "probability_schedule",
    "expected_transmitters",
    "solo_probability",
    "has_oblivious_schedule",
]

_NO_IDS = np.empty(0, dtype=np.intp)
_NO_IDS.flags.writeable = False


def _node_probability(node: NodeProtocol, round_index: int) -> float:
    if hasattr(node, "broadcast_probability"):
        return float(node.broadcast_probability(round_index))
    if hasattr(node, "p"):
        return float(node.p)
    raise TypeError(
        f"{type(node).__name__} has no oblivious broadcast schedule "
        "(no broadcast_probability method and no constant p)"
    )


def has_oblivious_schedule(factory: ProtocolFactory, n: int = 2) -> bool:
    """Whether the factory's nodes expose a round-indexed probability."""
    try:
        _node_probability(factory.template(n), 0)
    except TypeError:
        return False
    return True


class ObliviousStep:
    """Rounds of one :class:`ObliviousNode` schedule over all of a run's nodes.

    ``decide`` draws one ``rng.random(k)`` over the ``k`` awake active
    nodes in id order, exactly the numbers ``k`` per-node
    ``rng.random()`` calls would draw, and compares each with its local
    round's probability. ``knock_out`` applies the nodes' knockout rule
    as a mask over the channel's report.
    """

    def __init__(self, template: ObliviousNode) -> None:
        self.template = template

    def decide(
        self,
        active_ids: np.ndarray,
        local_rounds: np.ndarray,
        rng: np.random.Generator,
        staggered: bool,
    ) -> np.ndarray:
        """The transmit mask over ``active_ids``.

        ``broadcast_probability`` runs once per distinct local round;
        without staggered activation every node shares one.
        """
        template = self.template
        if staggered:
            rounds, position = np.unique(local_rounds, return_inverse=True)
            probability = np.array(
                [template.broadcast_probability(r) for r in rounds.tolist()]
            )[position]
        else:
            probability = template.broadcast_probability(int(local_rounds[0]))
        return rng.random(local_rounds.size) < probability

    def knock_out(self, report) -> np.ndarray:
        """The ids of the listeners the knockout rule removes."""
        rule = self.template.knockout
        if rule is Knockout.ON_RECEIVE:
            return report.listener_ids[report.decoded >= 0]
        if (
            rule is Knockout.ON_COLLISION
            and report.observation is ChannelObservation.COLLISION
        ):
            return report.listener_ids
        return _NO_IDS


def _is_oblivious(kind: type) -> bool:
    """Whether ``kind`` is an :class:`ObliviousNode` keeping the base decide and feedback."""
    return (
        issubclass(kind, ObliviousNode)
        and kind.decide is ObliviousNode.decide
        and kind.on_feedback is ObliviousNode.on_feedback
    )


def template_step(
    template: NodeProtocol, n: int
) -> Optional[Union[ObliviousStep, BackoffStep]]:
    """The vector step for ``n`` fresh copies of ``template``, or ``None``.

    A factory's nodes all share the template's class and parameters
    (:meth:`~repro.protocols.base.ProtocolFactory.template`), so the
    template alone decides.
    """
    kind = type(template)
    if kind is BinaryExponentialBackoffNode:
        return BackoffStep.for_template(template, n)
    if _is_oblivious(kind):
        return ObliviousStep(template)
    return None


def probability_schedule(
    factory: ProtocolFactory, horizon: int, n: int = 2
) -> np.ndarray:
    """One node's broadcast probability for rounds ``0 .. horizon - 1``.

    ``n`` is passed to the factory because some schedules depend on the
    network size it is told about (decay's sweep length).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be positive (got {horizon})")
    node = factory.template(n)
    return np.asarray(
        [_node_probability(node, r) for r in range(horizon)], dtype=np.float64
    )


def expected_transmitters(
    factory: ProtocolFactory,
    activations: Sequence[int],
    horizon: int,
) -> np.ndarray:
    """Expected transmitter count per global round under local clocks.

    ``activations[i]`` is node ``i``'s wake-up round; a node contributes
    its probability at *local* round ``t - activations[i]`` to global
    round ``t`` (and nothing before it wakes). This is the lens that shows
    why decay's sweep loses alignment under staggered wake-up while the
    paper's constant schedule cannot.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be positive (got {horizon})")
    activations = [int(a) for a in activations]
    if any(a < 0 for a in activations):
        raise ValueError("activation rounds must be non-negative")
    n = len(activations)
    if n < 1:
        raise ValueError("need at least one node")
    node = factory.template(n)
    expected = np.zeros(horizon, dtype=np.float64)
    for activation in activations:
        for t in range(activation, horizon):
            expected[t] += _node_probability(node, t - activation)
    return expected


def solo_probability(n: int, p: float) -> float:
    """``P(exactly one of n transmits) = n p (1-p)^(n-1)``."""
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1] (got {p})")
    if p == 1.0:
        return 1.0 if n == 1 else 0.0
    return n * p * (1.0 - p) ** (n - 1)
