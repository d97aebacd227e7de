"""Link-length statistics of a deployment.

The paper's bound is parameterised by ``R``, the ratio of the longest to
shortest link over all node pairs (Section 2, with the shortest normalised
to 1), and its analysis partitions nodes into at most ``ceil(log R) + 1``
link classes. These helpers measure both quantities for any deployment so
experiments can report the actual ``log R`` their workloads induced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.linkclasses import link_class_indices
from repro.analysis.nearest_active import nearest_in_pool
from repro.sinr.geometry import as_positions, diameter_of

__all__ = [
    "link_ratio",
    "log_link_ratio",
    "DeploymentStats",
    "deployment_stats",
]


def link_ratio(positions: np.ndarray) -> float:
    """``R`` — longest link length divided by shortest link length."""
    return deployment_stats(positions).link_ratio


def log_link_ratio(positions: np.ndarray) -> float:
    """``log2 R``; zero for degenerate (single-node) deployments."""
    return math.log2(link_ratio(positions))


@dataclass(frozen=True)
class DeploymentStats:
    """Summary of a deployment's geometry.

    Attributes
    ----------
    n:
        Node count.
    shortest_link, longest_link:
        Extremes over all node pairs (pre-normalisation).
    link_ratio:
        ``R = longest / shortest``.
    log_link_ratio:
        ``log2 R``.
    occupied_classes:
        Distinct occupied link classes (footnote 3's ``l``).
    """

    n: int
    shortest_link: float
    longest_link: float
    link_ratio: float
    log_link_ratio: float
    occupied_classes: int

    def __str__(self) -> str:
        return (
            f"n={self.n} shortest={self.shortest_link:.3g} "
            f"longest={self.longest_link:.3g} R={self.link_ratio:.3g} "
            f"log2R={self.log_link_ratio:.2f} classes={self.occupied_classes}"
        )


def deployment_stats(positions: np.ndarray) -> DeploymentStats:
    """Compute all link statistics of a deployment from its positions, in O(n) memory."""
    positions = as_positions(positions)
    n = positions.shape[0]
    if n < 2:
        return DeploymentStats(
            n=n,
            shortest_link=0.0,
            longest_link=0.0,
            link_ratio=1.0,
            log_link_ratio=0.0,
            occupied_classes=0,
        )
    # The shortest link is the shortest nearest-neighbour distance and the
    # longest the diameter, both with the (n, n) matrix's bits.
    everyone = np.arange(n)
    nearest, _ = nearest_in_pool(positions, everyone, everyone)
    shortest = float(nearest.min())
    longest = diameter_of(positions)
    ratio = longest / shortest
    return DeploymentStats(
        n=n,
        shortest_link=shortest,
        longest_link=longest,
        link_ratio=ratio,
        log_link_ratio=math.log2(ratio),
        occupied_classes=int(np.unique(link_class_indices(nearest, shortest)).size),
    )
