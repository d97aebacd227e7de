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
shortest link even after the pair realising it is knocked out;
:func:`link_class_history` replays an execution's knockouts with such a
pinned unit. Both take nearest distances from positions
(:mod:`repro.analysis.nearest_active`), in O(n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.nearest_active import NearestActiveNeighbours, nearest_in_pool
from repro.sinr.geometry import as_positions

__all__ = [
    "LinkClassPartition",
    "link_class_history",
    "link_class_indices",
    "link_class_partition",
    "link_class_round_sizes",
]


def link_class_indices(nearest: np.ndarray, unit: float) -> np.ndarray:
    """Class index ``floor(log2(d / unit))`` of each finite distance ``d``.

    The one binning expression of the package: the partition, its replay
    along a trace, the probes' per-round class sizes and the deployment
    statistics all bin through it. It agrees with
    ``math.floor(math.log2(d / unit))`` (pinned by the test suite,
    including the neighbours of every power of two from 2^-40 to 2^40).
    """
    return np.floor(np.log2(nearest / unit)).astype(np.int64)


def link_class_round_sizes(
    nearest: np.ndarray, knocked_ids: Sequence[int] = ()
) -> Tuple[Tuple[int, int, int], ...]:
    """Per-class ``(index, size, knocked)`` triples from nearest distances.

    ``nearest`` holds each node's nearest active neighbour distance
    (:attr:`NearestActiveNeighbours.distance`), with ``inf`` for nodes in
    no class (inactive, or the last one standing).
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

    @property
    def occupied(self) -> Tuple[int, ...]:
        """Sorted indices of the non-empty classes."""
        return tuple(sorted(self.members))

    @property
    def largest_occupied(self) -> Optional[int]:
        return max(self.members) if self.members else None


def link_class_partition(
    positions: np.ndarray,
    active: Optional[np.ndarray] = None,
    unit: Optional[float] = None,
) -> LinkClassPartition:
    """Partition the active nodes into the paper's link classes.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates of the deployment.
    active:
        Boolean activity mask (default: everyone active).
    unit:
        The length treated as 1 when binning. Defaults to the shortest
        nearest-neighbor distance among the currently active nodes; pass
        the *initial* shortest link explicitly when tracking an execution
        so class indices stay comparable across rounds.
    """
    positions = as_positions(positions)
    ids = np.arange(positions.shape[0]) if active is None else np.flatnonzero(active)
    nearest, _ = nearest_in_pool(positions, ids, ids)
    finite = np.isfinite(nearest)
    if not finite.any():
        return LinkClassPartition(class_of={}, members={}, unit=unit or 1.0)
    if unit is None:
        unit = float(nearest[finite].min())
    if unit <= 0.0:
        raise ValueError(f"unit must be positive (got {unit})")

    ids = ids[finite]
    classes = link_class_indices(nearest[finite], unit)
    class_of = dict(zip(ids.tolist(), classes.tolist()))
    # A stable sort keeps each class's members in ascending id order.
    occupied, sizes = np.unique(classes, return_counts=True)
    groups = np.split(ids[np.argsort(classes, kind="stable")], np.cumsum(sizes)[:-1])
    members = {
        index: tuple(group.tolist()) for index, group in zip(occupied.tolist(), groups)
    }
    return LinkClassPartition(class_of=class_of, members=members, unit=unit)


def link_class_history(
    positions: np.ndarray, trace, unit: float
) -> Tuple[np.ndarray, List[int]]:
    """Round-by-round link-class sizes of an execution, replayed from its records.

    Starts from every node active and drops each round's ``knocked_out``,
    so ``trace`` must keep its records (``keep_records=True``) of a run
    in which every node is active from round 0. Returns the
    ``(rounds x classes)`` size array, row ``t`` taken after round
    ``t``'s knockouts, and the sorted class indices of its columns:
    those non-empty in some round. Pass the initial partition's ``unit``
    so class indices stay comparable across rounds.
    """
    if len(trace.records) != trace.rounds_executed:
        raise ValueError("link_class_history needs a trace run with keep_records=True")
    nearest = NearestActiveNeighbours(positions)
    rounds = []
    for record in trace.records:
        nearest.remove(record.knocked_out)
        distance = nearest.distance[np.isfinite(nearest.distance)]
        rounds.append(link_class_indices(distance, unit))
    occupied = np.unique(np.concatenate(rounds)) if rounds else np.empty(0, np.int64)
    matrix = np.zeros((len(rounds), occupied.size), dtype=np.int64)
    for t, classes in enumerate(rounds):
        matrix[t] = np.bincount(np.searchsorted(occupied, classes), minlength=occupied.size)
    return matrix, occupied.tolist()
