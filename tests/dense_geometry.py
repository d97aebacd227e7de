"""Distance-matrix reference forms of the positions-based geometry.

The library takes nearest active neighbours, link classes and link-length
extremes from positions, in O(n) memory
(:mod:`repro.analysis.nearest_active`, :mod:`repro.analysis.linkclasses`,
:mod:`repro.deploy.metrics`). These helpers are the plain forms over the
full ``(n, n)`` matrix of :func:`repro.sinr.geometry.pairwise_distances`;
the tests hold the library to them bit for bit. :func:`point_sinr` is
Equation 1 for one explicit link, read off a channel's gain matrix.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.linkclasses import (
    LinkClassPartition,
    link_class_indices,
    link_class_round_sizes,
)


def nearest_neighbor_distances(
    distances: np.ndarray, active: Optional[np.ndarray] = None
) -> np.ndarray:
    """Distance from each active node to its nearest *other* active node.

    Inactive nodes get ``inf`` and are ignored as neighbours, as is a sole
    active node (the last one standing is in no link class).
    """
    n = distances.shape[0]
    ids = np.arange(n) if active is None else np.flatnonzero(active)
    result = np.full(n, np.inf)
    if ids.size:
        within = np.take(distances[ids], ids, axis=1)
        np.fill_diagonal(within, np.inf)
        result[ids] = within.min(axis=1)
    return result


def link_class_partition(
    distances: np.ndarray,
    active: Optional[np.ndarray] = None,
    unit: Optional[float] = None,
) -> LinkClassPartition:
    """The Section 3.1 partition of the active nodes, from the matrix."""
    nearest = nearest_neighbor_distances(distances, active)
    finite = np.isfinite(nearest)
    if not finite.any():
        return LinkClassPartition(class_of={}, members={}, unit=unit or 1.0)
    if unit is None:
        unit = float(nearest[finite].min())
    ids = np.flatnonzero(finite)
    classes = link_class_indices(nearest[ids], unit)
    class_of = dict(zip(ids.tolist(), classes.tolist()))
    members = {
        index: tuple(ids[classes == index].tolist()) for index in np.unique(classes).tolist()
    }
    return LinkClassPartition(class_of=class_of, members=members, unit=unit)


def link_class_round_stats(
    distances: np.ndarray,
    active_mask: np.ndarray,
    knocked_ids: Sequence[int],
) -> Tuple[Tuple[int, int, int], ...]:
    """Per-class ``(index, size_before, knocked)`` triples for one round.

    The partition of the pre-round active set with the default unit, as
    the engine and the fast path publish it on the probe bus.
    """
    return link_class_round_sizes(nearest_neighbor_distances(distances, active_mask), knocked_ids)


def link_length_extremes(distances: np.ndarray) -> Tuple[float, float]:
    """``(shortest, longest)`` link lengths over all node pairs."""
    n = distances.shape[0]
    if n < 2:
        return (0.0, 0.0)
    upper = distances[np.triu_indices(n, k=1)]
    return (float(upper.min()), float(upper.max()))


def exponential_annulus(
    distances: np.ndarray, center: int, class_index: int, t: int
) -> np.ndarray:
    """The node ids in the paper's exponential annulus ``A^i_t(u)``.

    ``A^i_t(u) = B(u, 2^{t+1} * 2^i) \\ B(u, 2^t * 2^i)``: nodes at
    distance ``d`` with ``2^t * 2^i <= d < 2^{t+1} * 2^i`` from ``u``.
    """
    row = distances[center]
    within = (row >= 2.0 ** (t + class_index)) & (row < 2.0 ** (t + 1 + class_index))
    within[center] = False
    return np.flatnonzero(within)


def point_sinr(channel, sender: int, receiver: int, interferers: Sequence[int]) -> float:
    """Equation 1's SINR of ``sender`` at ``receiver`` under explicit ``interferers``.

    Read off the channel's ``(n, n)`` gain matrix; ``sender`` and
    ``receiver`` are dropped from the interferers.
    """
    if sender == receiver:
        raise ValueError("sender and receiver must differ")
    gains = channel.base_gains
    others = [w for w in interferers if w not in (sender, receiver)]
    interference = float(gains[others, receiver].sum()) if others else 0.0
    denominator = channel.params.noise + interference
    return math.inf if denominator == 0.0 else gains[sender, receiver] / denominator
