"""Sawtooth backoff — the classical feedback-free window schedule.

The backoff literature's answer to contention of unknown size without any
channel feedback: repeatedly run *windows* of doubling size. During a
window of size ``w`` a node transmits with probability ``1/w`` in each of
its ``w`` rounds; when the window ends, the size doubles; after the window
reaches a cap the whole sawtooth restarts from size 2 (hence the name —
the aggregate broadcast probability traces a sawtooth over time).

Why it matters here: like the paper's algorithm it needs **no knowledge of
``n``** and no feedback, and like decay it is an oblivious probability
schedule — so it slots into the same comparisons. When a window's size
``w`` first reaches the contention level ``k`` (``k ≤ w < 2k``), each of
its ``w`` rounds is solo with probability ``≈ k/w·e^{−k/w} ≥ e^{−1}/2``…
per *round at the right scale* the chance is ``Θ(1/e)``, and the window
has ``w ≥ k`` such rounds, so the first adequate window almost surely
wins. The cost of reaching it is the total length of the preceding
windows, ``2 + 4 + … + 2k ≈ 4k`` — **linear in ``n``**, exponentially
worse than decay's ``log² n``: the price of spending ``w`` rounds per
probability instead of one. The sawtooth is therefore the "obvious
feedback-free schedule" anti-baseline; its measured linear growth makes
the decay/simple comparison meaningful.

(The literature's refinements — log-backoff, loglog-backoff, Bender et
al.'s robust variants — interpolate between this and decay; we implement
the canonical endpoint.)
"""

from __future__ import annotations

from repro.protocols.base import Knockout, NodeSpec, ObliviousNode, ProtocolFactory

__all__ = ["SawtoothBackoffNode", "SawtoothBackoffProtocol"]


def _window_of_round(round_index: int, max_exponent: int) -> int:
    """Window size in force at the given (0-based) round.

    Windows run 2, 4, 8, ..., 2^max_exponent, then the sawtooth restarts.
    """
    cycle_length = sum(2**e for e in range(1, max_exponent + 1))
    position = round_index % cycle_length
    for exponent in range(1, max_exponent + 1):
        width = 2**exponent
        if position < width:
            return width
        position -= width
    raise AssertionError("unreachable: position exceeded cycle length")


class SawtoothBackoffNode(ObliviousNode):
    """One node of the sawtooth schedule."""

    def __init__(self, node_id: int, max_exponent: int, deactivate_on_receive: bool) -> None:
        super().__init__(node_id)
        if deactivate_on_receive:
            self.knockout = Knockout.ON_RECEIVE
        self.max_exponent = max_exponent

    def broadcast_probability(self, round_index: int) -> float:
        """``1/w`` for the window ``w`` in force at this round."""
        return 1.0 / _window_of_round(round_index, self.max_exponent)


class SawtoothBackoffProtocol(ProtocolFactory):
    """Factory for sawtooth backoff.

    Parameters
    ----------
    max_exponent:
        The sawtooth restarts after the window of size ``2^max_exponent``.
        The default (20, i.e. windows up to ~10⁶) comfortably covers every
        contention level in this library's experiments; a node needs no
        knowledge of ``n`` beyond this generous cap.
    deactivate_on_receive:
        Run as a knockout protocol on the SINR channel.
    """

    knows_network_size = False
    requires_collision_detection = False

    def __init__(self, max_exponent: int = 20, deactivate_on_receive: bool = False) -> None:
        if max_exponent < 1:
            raise ValueError(f"max_exponent must be >= 1 (got {max_exponent})")
        self.max_exponent = max_exponent
        self.deactivate_on_receive = deactivate_on_receive
        self.name = f"sawtooth(2^{max_exponent})"

    def node_spec(self, n: int) -> NodeSpec:
        return SawtoothBackoffNode, (self.max_exponent, self.deactivate_on_receive)
