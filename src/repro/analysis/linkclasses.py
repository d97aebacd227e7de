"""Link classes — the Section 3.1 partition of active nodes.

"For a given round, we partition the active nodes into at most
``log R + 1`` link classes ``d_0, d_1, ..., d_{log R}``, where ``d_i``
contains all nodes whose nearest neighbor is at a distance in the range
``[2^i, 2^{i+1})``." Nearest neighbors are measured among *active* nodes
only, so nodes migrate to larger classes as their neighbors are knocked
out — the complication the Section 3.3 class-bound vectors exist to tame.
A sole surviving node has no nearest active neighbor and belongs to no
class.

Distances here are taken relative to the deployment's shortest link, which
the paper normalises to 1 (Section 2). :func:`link_class_partition` accepts
an explicit ``unit`` so callers can pin the normalisation to the *initial*
shortest link even after the pair realising it is knocked out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sinr.geometry import nearest_neighbor_distances

__all__ = [
    "LinkClassPartition",
    "link_class_indices",
    "link_class_partition",
    "link_class_round_sizes",
    "LinkClassTracker",
]


def link_class_indices(nearest: np.ndarray, unit: float) -> np.ndarray:
    """Class index ``floor(log2(d / unit))`` of each finite distance ``d``.

    The one binning expression of the package: the partition, the probes'
    per-round class sizes and the nearest-active-neighbour tracker all
    bin through it. It agrees with ``math.floor(math.log2(d / unit))``
    (pinned by the test suite, including the neighbours of every power
    of two from 2^-40 to 2^40).
    """
    return np.floor(np.log2(nearest / unit)).astype(np.int64)


def link_class_round_sizes(
    nearest: np.ndarray, knocked_ids: Sequence[int] = ()
) -> Tuple[Tuple[int, int, int], ...]:
    """Per-class ``(index, size, knocked)`` triples from nearest distances.

    ``nearest`` holds each node's nearest active neighbour distance, with
    ``inf`` for nodes in no class (inactive, or the last one standing).
    Classes use the default unit, the shortest finite distance, so the
    smallest class is 0. ``knocked_ids`` outside every class are ignored.
    Triples come sorted by class index, empty classes left out.
    """
    members = np.flatnonzero(np.isfinite(nearest))
    if members.size == 0:
        return ()
    distances = nearest[members]
    classes = link_class_indices(distances, float(distances.min()))
    sizes = np.bincount(classes)
    slot = np.full(nearest.shape[0], -1, dtype=np.int64)
    slot[members] = classes
    knocked = slot[np.asarray(knocked_ids, dtype=np.intp)]
    knocked = np.bincount(knocked[knocked >= 0], minlength=sizes.size)
    occupied = np.flatnonzero(sizes)
    return tuple(
        zip(occupied.tolist(), sizes[occupied].tolist(), knocked[occupied].tolist())
    )


@dataclass(frozen=True)
class LinkClassPartition:
    """The partition of active nodes into link classes for one round.

    Attributes
    ----------
    class_of:
        ``node id -> class index i`` for every active node with a nearest
        active neighbor. The last surviving node is absent.
    members:
        ``class index -> sorted node ids`` (inverse of ``class_of``).
    unit:
        The distance normalised to 1 when assigning classes.
    """

    class_of: Dict[int, int]
    members: Dict[int, Tuple[int, ...]]
    unit: float

    def size(self, class_index: int) -> int:
        """``n_i`` — the number of active nodes in class ``d_i``."""
        return len(self.members.get(class_index, ()))

    def size_below(self, class_index: int) -> int:
        """``n_{<i}`` — total active nodes in all smaller classes."""
        return sum(
            len(ids) for index, ids in self.members.items() if index < class_index
        )

    def size_at_least(self, class_index: int) -> int:
        """``n_{>=i}`` — total active nodes in class ``i`` and larger."""
        return sum(
            len(ids) for index, ids in self.members.items() if index >= class_index
        )

    @property
    def occupied(self) -> Tuple[int, ...]:
        """Sorted indices of the non-empty classes."""
        return tuple(sorted(self.members))

    @property
    def smallest_occupied(self) -> Optional[int]:
        return min(self.members) if self.members else None

    @property
    def largest_occupied(self) -> Optional[int]:
        return max(self.members) if self.members else None

    def sizes(self) -> Dict[int, int]:
        """``class index -> n_i`` for the occupied classes."""
        return {index: len(ids) for index, ids in self.members.items()}


def link_class_partition(
    distances: np.ndarray,
    active: Optional[np.ndarray] = None,
    unit: Optional[float] = None,
) -> LinkClassPartition:
    """Partition the active nodes into the paper's link classes.

    Parameters
    ----------
    distances:
        Full ``(n, n)`` distance matrix of the deployment.
    active:
        Boolean activity mask (default: everyone active).
    unit:
        The length treated as 1 when binning. Defaults to the shortest
        nearest-neighbor distance among the currently active nodes; pass
        the *initial* shortest link explicitly when tracking an execution
        so class indices stay comparable across rounds.
    """
    n = distances.shape[0]
    if active is None:
        active = np.ones(n, dtype=bool)
    nearest = nearest_neighbor_distances(distances, active)
    finite = np.isfinite(nearest)
    if not finite.any():
        return LinkClassPartition(class_of={}, members={}, unit=unit or 1.0)
    if unit is None:
        unit = float(nearest[finite].min())
    if unit <= 0.0:
        raise ValueError(f"unit must be positive (got {unit})")

    ids = np.flatnonzero(finite)
    classes = link_class_indices(nearest[ids], unit)
    class_of = dict(zip(ids.tolist(), classes.tolist()))
    # A stable sort keeps each class's members in ascending id order.
    occupied, sizes = np.unique(classes, return_counts=True)
    groups = np.split(ids[np.argsort(classes, kind="stable")], np.cumsum(sizes)[:-1])
    members = {
        index: tuple(group.tolist()) for index, group in zip(occupied.tolist(), groups)
    }
    return LinkClassPartition(class_of=class_of, members=members, unit=unit)


class LinkClassTracker:
    """Round-by-round link-class sizes along an execution.

    Register :meth:`observe` with the simulation engine's ``observers``
    hook; after the run, :attr:`history` holds one
    :class:`LinkClassPartition` per round (taken *after* that round's
    knockouts), and :meth:`size_matrix` lays the ``n_i`` trajectories out
    as an array for the E6 comparison against the ``q_t`` schedule.
    """

    def __init__(self, distances: np.ndarray, unit: Optional[float] = None) -> None:
        self.distances = distances
        if unit is None:
            nearest = nearest_neighbor_distances(distances)
            finite = nearest[np.isfinite(nearest)]
            unit = float(finite.min()) if finite.size else 1.0
        self.unit = unit
        self.history: List[LinkClassPartition] = []

    def observe(self, record, active_mask: np.ndarray) -> None:
        """Engine observer: snapshot the partition after a round."""
        partition = link_class_partition(
            self.distances, active=active_mask, unit=self.unit
        )
        self.history.append(partition)

    def size_matrix(self) -> Tuple[np.ndarray, List[int]]:
        """``(rounds x classes)`` size array and the class index legend.

        Classes that are empty in every recorded round are omitted.
        """
        occupied = sorted({index for part in self.history for index in part.members})
        matrix = np.zeros((len(self.history), len(occupied)), dtype=np.int64)
        for row, part in enumerate(self.history):
            for col, index in enumerate(occupied):
                matrix[row, col] = part.size(index)
        return matrix, occupied
