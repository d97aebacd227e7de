"""Single-hop collision channel (the classical radio network model).

Geometry is irrelevant in this model: the network is a clique, a round
delivers iff exactly one node transmits, and two or more concurrent
transmissions collide everywhere. This matches the model in which the
``Theta(log^2 n)`` contention-resolution lower bound holds, and — with
receiver collision detection enabled — the ``Theta(log n)`` bound of [20].
"""

from __future__ import annotations

import time
from enum import Enum
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.obs.registry import get_registry

__all__ = ["ChannelObservation", "RadioReport", "RadioChannel", "round_ids"]


class ChannelObservation(Enum):
    """What a listener perceives in one round."""

    SILENCE = "silence"
    MESSAGE = "message"
    COLLISION = "collision"


_NO_IDS = np.empty(0, dtype=np.intp)
_NO_IDS.flags.writeable = False


def _node_mask(ids: Sequence[int], n: int, role: str) -> np.ndarray:
    """The length-``n`` boolean mask of ``ids``; duplicates are ignored.

    :func:`round_ids` validates a round's ids with it: a negative id raises
    instead of wrapping (-1 would address node ``n - 1``), and an id
    ``>= n`` raises a clear ``IndexError`` instead of a raw numpy error.
    Arrays are used as given, without a copy.
    """
    if not isinstance(ids, np.ndarray):
        ids = list(ids)
    ids = np.asarray(ids, dtype=np.intp)
    # Viewed unsigned, a negative id is huge: one max covers both bounds.
    if ids.size and ids.view(np.uintp).max() >= n:
        raise IndexError(f"{role} index out of range")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def round_ids(
    transmitters: Sequence[int], listeners: Optional[Sequence[int]], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A round's validated ids: sorted transmitters and sorted listeners.

    ``listeners`` defaults to every non-transmitter; a transmitter listed
    as a listener too only transmits. Both channels' public ``resolve``
    turns its arguments into the ``resolve_ids`` arguments with it.
    """
    tx_mask = _node_mask(transmitters, n, "transmitter")
    if listeners is None:
        listen_mask = ~tx_mask
    else:
        listen_mask = _node_mask(listeners, n, "listener")
        listen_mask[tx_mask] = False
    return tx_mask.nonzero()[0], listen_mask.nonzero()[0]


class RadioReport:
    """Outcome of one round on the collision channel, held as arrays.

    ``tx_ids`` and ``listener_ids`` are the round's sorted transmitters and
    listeners, and ``observation`` is what every listener perceived, with
    collisions reported as :attr:`ChannelObservation.SILENCE` when the
    channel was built without collision detection. The mappings
    :attr:`received_from` (every listener that decoded the unique
    transmission, to its sender; empty unless exactly one node
    transmitted) and :attr:`observations` (every listener, to
    ``observation``) and the tuple :attr:`transmitters` are views built
    on first access.
    """

    def __init__(
        self,
        transmitters: Sequence[int],
        listener_ids: np.ndarray = _NO_IDS,
        observation: ChannelObservation = ChannelObservation.SILENCE,
    ) -> None:
        self.tx_ids = np.asarray(transmitters, dtype=np.intp)
        self.listener_ids = listener_ids
        self.observation = observation

    @cached_property
    def decoded(self) -> np.ndarray:
        """Per listener, the transmitter it decoded, or -1."""
        sender = int(self.tx_ids[0]) if self.tx_ids.size == 1 else -1
        return np.full(self.listener_ids.size, sender, dtype=np.intp)

    @cached_property
    def transmitters(self) -> tuple:
        """Sorted node indices that transmitted this round."""
        return tuple(self.tx_ids.tolist())

    @cached_property
    def received_from(self) -> Dict[int, int]:
        """Mapping ``listener -> sender``; empty unless the round was solo."""
        if self.tx_ids.size != 1:
            return {}
        return dict.fromkeys(self.listener_ids.tolist(), int(self.tx_ids[0]))

    @cached_property
    def observations(self) -> Dict[int, ChannelObservation]:
        """Mapping ``listener -> observation`` for every listener."""
        return dict.fromkeys(self.listener_ids.tolist(), self.observation)

    def _views(self) -> tuple:
        return self.transmitters, self.received_from, self.observations

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._views() == other._views()

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"RadioReport(transmitters={self.transmitters!r}, "
            f"received_from={self.received_from!r}, "
            f"observations={self.observations!r})"
        )


class RadioChannel:
    """Clique collision channel with optional receiver collision detection.

    Parameters
    ----------
    n:
        Number of nodes.
    collision_detection:
        When true, listeners can distinguish collision from silence.
        Transmitters never receive feedback in either variant (a
        transmitting node does not learn the fate of its transmission,
        matching the radio network model).
    """

    def __init__(self, n: int, collision_detection: bool = False) -> None:
        if n < 1:
            raise ValueError(f"channel needs at least one node (got {n})")
        self.n = n
        self.collision_detection = collision_detection

    def resolve(
        self,
        transmitters: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        listeners: Optional[Sequence[int]] = None,
    ) -> RadioReport:
        """Resolve one synchronous round.

        The signature mirrors :meth:`repro.sinr.channel.SINRChannel.resolve`,
        so callers can drive either substrate; ``rng`` is accepted (and
        ignored) for that reason — the collision channel is deterministic
        given the transmitter set. Ids are validated and deduplicated
        (:func:`round_ids`), then resolved by :meth:`resolve_ids`.
        """
        return self.resolve_ids(*round_ids(transmitters, listeners, self.n), rng)

    def resolve_ids(
        self,
        tx: np.ndarray,
        listener_ids: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> RadioReport:
        """Resolve a round given as sorted, disjoint, in-range id arrays.

        The ids are used as given, unchecked: the engine, which already
        holds them in that form, calls this directly.
        """
        obs = get_registry()
        started = time.perf_counter() if obs.enabled else 0.0
        if tx.size == 1:
            observation = ChannelObservation.MESSAGE
        elif tx.size >= 2 and self.collision_detection:
            observation = ChannelObservation.COLLISION
        else:
            observation = ChannelObservation.SILENCE
        report = RadioReport(tx, listener_ids, observation)
        if obs.enabled:
            obs.counter("channel.radio.resolve_calls").inc()
            obs.histogram("channel.radio.resolve_seconds").observe(
                time.perf_counter() - started
            )
        return report

    def __repr__(self) -> str:
        return f"RadioChannel(n={self.n}, collision_detection={self.collision_detection})"
