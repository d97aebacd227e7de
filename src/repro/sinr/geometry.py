"""Vectorised planar geometry used throughout the analysis.

The paper's arguments are geometric: link classes are defined by
nearest-neighbor distances, good nodes by the population of *exponential
annuli* ``A^i_t(u) = B(u, 2^{t+1} * 2^i) \\ B(u, 2^t * 2^i)`` (Section 3.2),
and the well-separated subsets ``S_i`` by greedy circle packing (Lemma 2).
This module holds the distance primitives every path shares: the
elementwise expression that fixes each distance's bits
(:func:`cross_distances`), the ``(n, n)`` matrix built from it and the
deployment's diameter; and the annulus and packing primitives over that
matrix. Nearest (active) neighbour distances come from positions, in
:mod:`repro.analysis.nearest_active`.

All functions treat positions as immutable float64 arrays; none of them
mutate their inputs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "pairwise_distances",
    "cross_distances",
    "squared_cross_distances",
    "has_colocated_pair",
    "diameter_of",
    "annulus_counts",
    "annulus_count_rows",
    "greedy_separated_subset",
    "as_positions",
    "column_bounds",
]


def as_positions(points: Iterable[Sequence[float]]) -> np.ndarray:
    """Coerce an iterable of 2-D points into a validated ``(n, 2)`` array."""
    positions = np.asarray(points, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(
            f"positions must form an (n, 2) array of planar points, got shape {positions.shape}"
        )
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    return positions


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Full symmetric ``(n, n)`` Euclidean distance matrix.

    The diagonal is exactly zero. This is the only O(n^2)-memory object in
    the library. A channel builds it only when something asks for its
    ``distances`` or ``base_gains`` (probes, fading models, shared
    deployments); the fast path and the generic engine work from
    :func:`cross_distances` over the pairs a round touches instead. The
    matrix is that function over all pairs, so every entry has the same
    bits either way.
    """
    positions = as_positions(positions)
    distances = cross_distances(positions, positions)
    np.fill_diagonal(distances, 0.0)
    return distances


def cross_distances(
    sources: np.ndarray,
    targets: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Distances from each of ``sources`` to each of ``targets``, ``(m, k)``.

    Computed as ``sqrt(dx*dx + dy*dy)``. :func:`pairwise_distances`, the
    channel's gains and its construction checks all go through this
    function, so they agree bit for bit. ``out`` and ``work``, two
    C-order ``(m, k)`` float64 buffers, let a caller that fills many
    blocks reuse its memory: the distances land in ``out``, ``work`` is
    scratch.
    """
    squared = squared_cross_distances(sources, targets, out=out, work=work)
    return np.sqrt(squared, out=squared)


def squared_cross_distances(
    sources: np.ndarray,
    targets: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`cross_distances` before its square root: ``dx*dx + dy*dy``, ``(m, k)``.

    ``out`` and ``work`` as for :func:`cross_distances`.
    """
    # Contiguous x and y rows make the broadcast subtractions faster
    # (a view, without a copy, when ``targets`` is column-major).
    target_x, target_y = np.ascontiguousarray(targets.T)
    dx = np.subtract(sources[:, 0, None], target_x, out=out)
    dy = np.subtract(sources[:, 1, None], target_y, out=work)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


#: Coordinate gap below which two points may be at computed distance 0:
#: ``d * d`` underflows to 0 only for ``|d|`` below about ``1.5e-162``.
_UNDERFLOW_GAP = 1e-150


def _runs(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Run ids over sorted ``values``: a new run starts at a new group or a gap >= ``_UNDERFLOW_GAP``."""
    starts = np.ones(values.size, dtype=bool)
    starts[1:] = (groups[1:] != groups[:-1]) | (values[1:] - values[:-1] >= _UNDERFLOW_GAP)
    return np.cumsum(starts)


def column_bounds(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(points.min(axis=0), points.max(axis=0))``, reduced one column at a time.

    numpy reduces a C-order ``(m, k)`` array along its first axis many
    times slower than it reduces each column (at ``m = 2048``, ``k = 2``:
    ~80 µs against ~10 µs a column); the values are the same.
    """
    columns = points.T
    return np.array([column.min() for column in columns]), np.array(
        [column.max() for column in columns]
    )


def has_colocated_pair(positions: np.ndarray) -> bool:
    """Whether two points are at distance exactly 0 in :func:`pairwise_distances`.

    That includes distinct points so close that ``dx*dx + dy*dy``
    underflows. Such a pair is closer than ``_UNDERFLOW_GAP`` along both
    axes, so it shares a run of points sorted by ``x`` whose consecutive
    gaps are all below it, and within that run a run sorted by ``y``. Only
    those runs, almost always single points, are compared pairwise:
    O(n log n) time and no ``(n, n)`` matrix. When every x-run is a
    single point there is nothing to compare, and the ``y`` sort is
    skipped.
    """
    n = positions.shape[0]
    if n < 2:
        return False
    by_x = np.argsort(positions[:, 0], kind="stable")
    x_runs = _runs(positions[by_x, 0], np.zeros(n, dtype=np.intp))
    if x_runs[-1] == n:
        # Every x-run is one point, and a co-located pair shares one.
        return False
    within = np.lexsort((positions[by_x, 1], x_runs))
    order = by_x[within]
    runs = _runs(positions[order, 1], x_runs[within])
    sizes = np.bincount(runs)
    for run in np.flatnonzero(sizes >= 2):
        members = positions[order[runs == run]]
        distances = cross_distances(members, members)
        np.fill_diagonal(distances, np.inf)
        if np.any(distances == 0.0):
            return True
    return False


#: Most distances :func:`diameter_of` holds at once (32 MiB of float64).
_DIAMETER_BLOCK_CELLS = 1 << 22

#: Most distances :func:`annulus_count_rows` bins at once (8 MiB of float64).
_ANNULUS_BLOCK_CELLS = 1 << 20


def diameter_of(positions: np.ndarray) -> float:
    """Longest pairwise distance, equal to ``pairwise_distances(positions).max()``.

    Let ``c`` be the bounding-box centre, ``R`` the largest distance from
    ``c`` and ``L`` any pair distance. A longest pair ``(a, b)`` has
    ``|a - c| >= |a - b| - |b - c| >= L - R``, as does ``b``; so the
    maximum over the points that pass that test (with a slack far above
    the rounding error) is the maximum over all pairs, taken with the
    same elementwise expression. On spread-out deployments few points
    pass; the survivors are compared in blocks of at most
    ``_DIAMETER_BLOCK_CELLS`` distances, so memory stays O(n) even when
    all pass (a ring).
    """
    n = positions.shape[0]
    if n < 2:
        return 0.0
    low, high = column_bounds(positions)
    centre = (low + high) / 2.0
    from_centre = cross_distances(positions, centre[None, :])[:, 0]
    far = int(from_centre.argmax())
    radius = float(from_centre[far])
    bound = float(cross_distances(positions[far : far + 1], positions).max())
    slack = 1e-9 * (bound + radius)
    survivors = positions[from_centre >= bound - radius - slack]
    step = max(1, _DIAMETER_BLOCK_CELLS // survivors.shape[0])
    longest = bound
    for start in range(0, survivors.shape[0], step):
        block = cross_distances(survivors[start : start + step], survivors)
        longest = max(longest, float(block.max()))
    return longest


def annulus_counts(
    distances: np.ndarray,
    center: int,
    class_index: int,
    max_t: int,
    active: Optional[np.ndarray] = None,
    unit: float = 1.0,
) -> np.ndarray:
    """Population of every annulus ``A^i_t(u)`` for ``t = 0 .. max_t``.

    Vectorised over ``t``: bins the distance row once instead of issuing
    ``max_t`` ball queries. Used by the Definition 1 good-node test, which
    inspects every annulus up to ``t = log R``. Distances are divided by
    ``unit`` (the normalised shortest link) before binning.
    """
    return annulus_count_rows(distances, [center], class_index, max_t, active, unit)[0]


def annulus_count_rows(
    distances: np.ndarray,
    centers: Sequence[int],
    class_index: int,
    max_t: int,
    active: Optional[np.ndarray] = None,
    unit: float = 1.0,
) -> np.ndarray:
    """:func:`annulus_counts` of each of ``centers``, one row each.

    Bins the centres' distance rows together, in blocks of at most
    ``_ANNULUS_BLOCK_CELLS`` distances. The bins are ``np.histogram``'s
    over the annulus edges: half-open, the last one closed.
    """
    centers = np.asarray(centers, dtype=np.intp)
    n = distances.shape[0]
    others = np.arange(n) if active is None else np.flatnonzero(active)
    counts = np.zeros((centers.size, max(max_t + 1, 0)), dtype=np.int64)
    if max_t < 0 or others.size == 0:
        return counts
    # Annulus t covers [2^(t+i), 2^(t+1+i)); a distance d lands in
    # t = floor(log2(d)) - i when that value is within [0, max_t].
    edges = 2.0 ** (class_index + np.arange(max_t + 2, dtype=np.float64))
    step = max(1, _ANNULUS_BLOCK_CELLS // others.size)
    for start in range(0, centers.size, step):
        block = centers[start : start + step]
        scaled = distances[np.ix_(block, others)] / unit
        t = np.searchsorted(edges, scaled, side="right") - 1
        t[scaled == edges[-1]] = max_t
        row, column = np.nonzero((t >= 0) & (t <= max_t) & (others != block[:, None]))
        cell = row * (max_t + 1) + t[row, column]
        counts[start : start + step] = np.bincount(
            cell, minlength=block.size * (max_t + 1)
        ).reshape(block.size, max_t + 1)
    return counts


def greedy_separated_subset(
    distances: np.ndarray,
    candidates: Sequence[int],
    separation: float,
) -> List[int]:
    """Greedy maximal subset of ``candidates`` pairwise farther than ``separation``.

    This is the standard packing construction behind Lemma 2: scanning the
    candidates in order and keeping each one that is more than
    ``separation`` away from everything kept so far yields a maximal
    separated subset whose size is a constant fraction of the maximum.

    Returns the kept indices in scan order.
    """
    if separation < 0.0:
        raise ValueError(f"separation must be non-negative (got {separation})")
    kept: List[int] = []
    for candidate in candidates:
        row = distances[candidate]
        if all(row[other] > separation for other in kept):
            kept.append(int(candidate))
    return kept
