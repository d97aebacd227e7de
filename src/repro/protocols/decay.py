"""Decay: the classical radio-network contention-resolution strategy.

The strategy adapted from Bar-Yehuda, Goldreich & Itai (the paper's [2]):
cyclically sweep broadcast probabilities ``2^-1, 2^-2, ..., 2^-ceil(log2 N)``
where ``N`` is a known upper bound on the network size. Whatever the true
number of contenders ``k <= N``, one probability in each sweep is within a
factor 2 of ``1/k``, and that round isolates a single transmitter with
constant probability. One sweep therefore succeeds with constant
probability; ``Theta(log N)`` sweeps — ``Theta(log^2 N)`` rounds — succeed
w.h.p., matching the ``Theta(log^2 n)`` bound the paper quotes for the
non-fading model.

``deactivate_on_receive`` (off by default, since listeners in the classical
wake-up problem gain nothing from quitting) lets the same schedule run as a
knockout protocol on the SINR channel for cross-model comparisons.
"""

from __future__ import annotations

import math
from repro.protocols.base import Knockout, NodeSpec, ObliviousNode, ProtocolFactory

__all__ = ["DecayNode", "DecayProtocol"]


class DecayNode(ObliviousNode):
    """One node following the decay probability schedule."""

    def __init__(self, node_id: int, sweep_length: int, deactivate_on_receive: bool) -> None:
        super().__init__(node_id)
        if deactivate_on_receive:
            self.knockout = Knockout.ON_RECEIVE
        self.sweep_length = sweep_length

    def broadcast_probability(self, round_index: int) -> float:
        """Probability used in the given (0-indexed) round."""
        step = round_index % self.sweep_length
        return 2.0 ** -(step + 1)


class DecayProtocol(ProtocolFactory):
    """Factory for decay.

    Parameters
    ----------
    size_bound:
        Known upper bound ``N >= n`` on the network size; ``None`` (default)
        uses the true ``n`` handed to :meth:`build` — the most favourable
        setting for this baseline.
    deactivate_on_receive:
        Run as a knockout protocol (useful on the SINR channel).
    """

    knows_network_size = True
    requires_collision_detection = False

    def __init__(self, size_bound: int = None, deactivate_on_receive: bool = False) -> None:
        if size_bound is not None and size_bound < 1:
            raise ValueError(f"size_bound must be positive (got {size_bound})")
        self.size_bound = size_bound
        self.deactivate_on_receive = deactivate_on_receive
        suffix = "" if size_bound is None else f"(N={size_bound})"
        self.name = f"decay{suffix}"

    def node_spec(self, n: int) -> NodeSpec:
        bound = self.size_bound if self.size_bound is not None else n
        if bound < n:
            raise ValueError(f"size_bound {bound} is below the actual network size {n}")
        sweep_length = max(1, math.ceil(math.log2(max(bound, 2))))
        return DecayNode, (sweep_length, self.deactivate_on_receive)
