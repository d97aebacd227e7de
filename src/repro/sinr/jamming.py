"""External interference sources (jammers, co-channel systems).

The SINR equation's interference term sums over *protocol participants*,
but a real band also contains transmitters the protocol does not control:
co-channel networks, malfunctioning radios, deliberate jammers. An
:class:`ExternalSource` is such a transmitter — a fixed position, a
transmission power, and a duty cycle (the probability it is on the air in
any given round, independently per round).

:class:`repro.sinr.channel.SINRChannel` accepts a list of sources and adds
their arriving power to every listener's interference (and measured
energy) whenever they are active. Experiment E16 uses this to measure how
gracefully the paper's algorithm degrades: external interference can only
*suppress* receptions, so the knockout dynamic slows smoothly rather than
breaking — until the jammer drowns the band entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["ExternalSource", "external_gain_matrix"]


@dataclass(frozen=True)
class ExternalSource:
    """One uncontrolled transmitter sharing the band.

    Attributes
    ----------
    position:
        Planar coordinates ``(x, y)``.
    power:
        Transmission power (same units as the protocol power ``P``).
    duty_cycle:
        Probability of transmitting in any given round, independently per
        round. 1.0 (default) is a continuous jammer.
    """

    position: Tuple[float, float]
    power: float
    duty_cycle: float = 1.0

    def __post_init__(self) -> None:
        if len(self.position) != 2:
            raise ValueError("position must be a planar (x, y) pair")
        if self.power <= 0.0:
            raise ValueError(f"power must be positive (got {self.power})")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError(
                f"duty_cycle must be in (0, 1] (got {self.duty_cycle})"
            )


def external_gain_matrix(
    sources: Sequence[ExternalSource], positions: np.ndarray, alpha: float
) -> np.ndarray:
    """``(num_sources, n)`` arriving power of each source at each node.

    Sources co-located with a node are rejected — an infinite-gain link
    makes every SINR question degenerate.
    """
    if not sources:
        return np.zeros((0, positions.shape[0]))
    source_points = np.asarray([s.position for s in sources], dtype=np.float64)
    deltas = source_points[:, None, :] - positions[None, :, :]
    distances = np.sqrt((deltas**2).sum(axis=2))
    if np.any(distances == 0.0):
        raise ValueError("an external source is co-located with a node")
    powers = np.asarray([s.power for s in sources], dtype=np.float64)
    return powers[:, None] / distances**alpha
