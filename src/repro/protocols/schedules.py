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

``oblivious_template``
    Whether a whole node list can run as one vectorised step in the
    engine (:mod:`repro.sim.engine`): one :class:`ObliviousNode` type with
    one schedule. The carrier-sense tournament has a constant ``p`` and so
    an oblivious schedule, but it is not an ``ObliviousNode``: its
    feedback reads the measured energy, which no knockout mask covers, so
    it keeps the engine's per-node step.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence

import numpy as np

from repro.protocols.base import NodeProtocol, ObliviousNode, ProtocolFactory

__all__ = [
    "oblivious_template",
    "probability_schedule",
    "expected_transmitters",
    "solo_probability",
    "has_oblivious_schedule",
]


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
    node = factory.build(n)[0]
    try:
        _node_probability(node, 0)
    except TypeError:
        return False
    return True


def oblivious_template(nodes: Sequence[NodeProtocol]) -> Optional[ObliviousNode]:
    """The node whose schedule and knockout rule stand for all of ``nodes``.

    Returns ``None`` unless every node has one :class:`ObliviousNode` type
    that keeps the base ``decide`` and ``on_feedback``, and every node
    carries the first node's parameters (its instance attributes apart
    from id and activity, plus the knockout rule).
    """
    if not nodes:
        return None
    template = nodes[0]
    kind = type(template)
    if not (
        isinstance(template, ObliviousNode)
        and kind.decide is ObliviousNode.decide
        and kind.on_feedback is ObliviousNode.on_feedback
    ):
        return None
    schedule = operator.attrgetter(
        *sorted({"knockout", *vars(template)} - {"node_id", "_active"})
    )
    expected = schedule(template)
    if all(type(node) is kind and schedule(node) == expected for node in nodes):
        return template
    return None


def probability_schedule(
    factory: ProtocolFactory, horizon: int, n: int = 2
) -> np.ndarray:
    """One node's broadcast probability for rounds ``0 .. horizon - 1``.

    ``n`` is passed to ``build`` because some schedules depend on the
    network size the factory is told about (decay's sweep length).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be positive (got {horizon})")
    node = factory.build(n)[0]
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
    nodes = factory.build(n)
    expected = np.zeros(horizon, dtype=np.float64)
    for node, activation in zip(nodes, activations):
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
