"""Pessimistic binary exponential backoff.

Classical BEB assumes a transmitter learns whether its transmission
collided; the radio network model (and the paper's SINR model) denies
transmitters any feedback. The honest adaptation — *pessimistic* BEB —
has each node double its backoff window after every transmission it makes,
on the assumption that the attempt failed (if it had succeeded, the
execution would be over). Nodes that receive a message deactivate, as in
the paper's algorithm.

This baseline exists to show that uncoordinated window growth is *worse*
than the paper's fixed probability: windows keep growing, the aggregate
broadcast rate decays, and the time to a solo transmission stretches far
beyond ``O(log n)``. It is the cautionary member of the E3 lineup.

:class:`BackoffStep` runs the rounds of all of a factory run's BEB nodes
as numpy over a ``window`` and a ``countdown`` array (the engine's vector
step, :func:`repro.protocols.schedules.template_step`); a node list runs
node by node.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.protocols.base import (
    Action,
    Feedback,
    NodeProtocol,
    NodeSpec,
    ProtocolFactory,
)

__all__ = [
    "BackoffStep",
    "BinaryExponentialBackoffNode",
    "BinaryExponentialBackoffProtocol",
]

#: Window caps below this keep ``2 * window`` inside int64.
_WINDOW_LIMIT = 1 << 62


class BinaryExponentialBackoffNode(NodeProtocol):
    """One node with a private, pessimistically grown backoff window."""

    def __init__(self, node_id: int, initial_window: int, max_window: int) -> None:
        super().__init__(node_id)
        if initial_window < 1:
            raise ValueError(f"initial_window must be >= 1 (got {initial_window})")
        if max_window < initial_window:
            raise ValueError("max_window must be >= initial_window")
        self.window = initial_window
        self.max_window = max_window
        self._countdown = 0  # transmit when the countdown reaches zero

    def decide(self, round_index: int, rng: np.random.Generator) -> Action:
        if self._countdown > 0:
            self._countdown -= 1
            return Action.LISTEN
        # Transmit now; pessimistically assume collision and back off.
        self.window = min(self.max_window, self.window * 2)
        self._countdown = int(rng.integers(0, self.window))
        return Action.TRANSMIT

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        if feedback.received is not None:
            self._active = False


class BackoffStep:
    """Rounds of BEB nodes with one window cap, as arrays.

    ``decide`` has every awake active node whose countdown is 0 transmit
    and every other one count down; the transmitters' windows double up
    to the cap and their new countdowns come from one
    ``rng.integers(0, windows)`` over the transmitters in id order, which
    draws exactly the numbers the nodes' own ``decide`` calls would.
    Listeners that decode a message drop out.
    """

    def __init__(
        self, max_window: int, window: np.ndarray, countdown: np.ndarray
    ) -> None:
        self.max_window = max_window
        self.window = window
        self.countdown = countdown

    @classmethod
    def for_template(
        cls, template: BinaryExponentialBackoffNode, n: int
    ) -> Optional["BackoffStep"]:
        """A step for ``n`` copies of ``template``; ``None`` if its cap is too large."""
        if template.max_window >= _WINDOW_LIMIT:
            return None
        return cls(
            template.max_window,
            np.full(n, template.window, dtype=np.int64),
            np.full(n, template._countdown, dtype=np.int64),
        )

    def decide(
        self,
        active_ids: np.ndarray,
        local_rounds: np.ndarray,
        rng: np.random.Generator,
        staggered: bool,
    ) -> np.ndarray:
        """The transmit mask over ``active_ids`` (BEB ignores the round)."""
        countdown = self.countdown[active_ids]
        transmit = countdown <= 0
        waiting = ~transmit
        self.countdown[active_ids[waiting]] = countdown[waiting] - 1
        tx_ids = active_ids[transmit]
        if tx_ids.size:
            windows = np.minimum(self.window[tx_ids] * 2, self.max_window)
            self.window[tx_ids] = windows
            self.countdown[tx_ids] = rng.integers(0, windows)
        return transmit

    @staticmethod
    def knock_out(report) -> np.ndarray:
        """The ids of the listeners that decoded a message."""
        return report.listener_ids[report.decoded >= 0]


class BinaryExponentialBackoffProtocol(ProtocolFactory):
    """Factory for pessimistic BEB.

    Parameters
    ----------
    initial_window:
        Starting window size (a node's first transmission lands within its
        first ``initial_window`` rounds).
    max_window:
        Cap on window growth; prevents the schedule from freezing entirely
        in long executions.
    """

    knows_network_size = False
    requires_collision_detection = False

    def __init__(self, initial_window: int = 2, max_window: int = 1 << 16) -> None:
        if initial_window < 1:
            raise ValueError(f"initial_window must be >= 1 (got {initial_window})")
        if max_window < initial_window:
            raise ValueError("max_window must be >= initial_window")
        self.initial_window = initial_window
        self.max_window = max_window
        self.name = f"beb(w0={initial_window})"

    def node_spec(self, n: int) -> NodeSpec:
        return BinaryExponentialBackoffNode, (self.initial_window, self.max_window)
