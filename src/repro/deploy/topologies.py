"""Generators for the deployments used across the experiments.

Conventions
-----------
* Every generator takes an explicit ``rng`` (``numpy.random.Generator``) —
  determinism is owned by the caller, typically
  :class:`repro.sim.runner.ExperimentRunner`, which spawns child generators
  from a root :class:`numpy.random.SeedSequence`.
* Every generator enforces a minimum pairwise separation ``min_separation``
  (default 1.0, matching the paper's normalisation of the shortest link
  to 1) by rejection sampling. Deterministic generators (grid, line,
  exponential chain) satisfy it by construction. The rejection sampler
  tests each drawn batch of candidates at once in numpy: first against
  the points accepted so far, then the survivors against each other,
  comparing only pairs in neighbouring grid cells (or, for small
  batches, every pair in one distance block). A short loop in draw order
  settles the survivors that clash with an earlier survivor, so the
  accept decisions are those of taking the candidates one by one, and a
  deployment costs O(n log n) numpy work instead of O(n^2).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "uniform_disk",
    "grid",
    "line",
    "ring",
    "exponential_chain",
    "clustered",
]

_MAX_REJECTION_ROUNDS = 10_000

#: Point pairs up to which the sampler compares every pair in one
#: distance block instead of hashing the points into grid cells.
_BLOCK_PAIRS = 4096

#: Batches for more points than this are tested head first
#: (:func:`_rejection_sample`).
_HEAD_MIN = 32


def _close(points: np.ndarray, queries: np.ndarray, min_separation: float) -> np.ndarray:
    """``(len(queries), len(points))`` mask of the pairs closer than ``min_separation``.

    The distance is ``sqrt(dx*dx + dy*dy)``, the dense sampler's, so a
    pair is close exactly when the one-by-one comparison finds it close.
    """
    dx = queries[:, 0, None] - points[:, 0]
    dy = queries[:, 1, None] - points[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx) < min_separation


def _close_pairs(points: np.ndarray, queries: np.ndarray, min_separation: float):
    """Index pairs ``(query, point)`` closer than ``min_separation``, by query.

    Pass the same array twice for the close pairs within one set. Few
    pairs are compared in one :func:`_close` block. Otherwise the points
    are hashed into square cells of side at least ``2 * min_separation``:
    a point closer than ``min_separation`` is less than half a cell away
    along each axis, so even with the rounding of the cell division its
    cell index differs from the query's by at most one, and only the 3x3
    cells around each query are compared. Cell indices count from the
    sets' lower-left corner and a cell key is ``column * height + row``,
    so the three cells ``row - 1 .. row + 1`` of a column are one range
    of the sorted point keys. The side grows past ``2 * min_separation``
    when the sets span more than ``2**30`` cells, which keeps every key
    below ``2**62``.
    """
    if len(points) * len(queries) <= _BLOCK_PAIRS:
        return np.nonzero(_close(points, queries, min_separation))
    both = points if points is queries else np.concatenate((points, queries))
    x, y = both[:, 0], both[:, 1]
    x0, y0 = x.min(), y.min()
    side = max(2.0 * min_separation, max(x.max() - x0, y.max() - y0) / 2.0**30)
    column = np.floor((x - x0) / side).astype(np.int64)
    row = np.floor((y - y0) / side).astype(np.int64)
    height = int(row.max()) + 2
    keys = column * height + row
    order = np.argsort(keys[: len(points)])
    by_key = order if points is queries else np.argsort(keys[len(points) :])
    point_keys = keys[order]
    # One row per neighbouring column, each ascending: sorted searches.
    columns = keys[len(keys) - len(queries) :][by_key] + np.array([[-height], [0], [height]])
    start = np.searchsorted(point_keys, columns - 1, side="left").ravel()
    counts = np.searchsorted(point_keys, columns + 1, side="right").ravel() - start
    query = np.repeat(np.tile(by_key, 3), counts)
    ends = np.cumsum(counts)
    point = order[np.arange(ends[-1]) + np.repeat(start - ends + counts, counts)]
    dx = queries[query, 0] - points[point, 0]
    dy = queries[query, 1] - points[point, 1]
    close = np.flatnonzero(np.sqrt(dx * dx + dy * dy) < min_separation)
    close = close[np.argsort(query[close], kind="stable")]
    return query[close], point[close]


def _accepted_in_order(previous: np.ndarray, candidates: np.ndarray, min_separation: float):
    """The ``candidates`` the one-by-one sampler would accept, in draw order.

    A candidate is accepted iff it is at least ``min_separation`` from
    every point in ``previous`` and from every earlier accepted
    candidate. The first test is one batch query. Only the candidates
    that pass it (the survivors) are compared with each other; a
    survivor with no earlier survivor close by is accepted outright, and
    the rest are resolved in draw order.
    """
    if len(previous):
        if len(previous) * len(candidates) <= _BLOCK_PAIRS:
            far = ~np.logical_or.reduce(_close(previous, candidates, min_separation), axis=1)
        else:
            far = np.ones(len(candidates), dtype=bool)
            far[_close_pairs(previous, candidates, min_separation)[0]] = False
        candidates = candidates.compress(far, axis=0)
        if len(candidates) < 2:
            return candidates
    later, earlier = _close_pairs(candidates, candidates, min_separation)
    clash = earlier < later
    if not clash.any():
        return candidates
    # Pairs come by the later index, so each earlier survivor is settled
    # before it is consulted.
    rejected = set()
    for j, i in zip(later[clash].tolist(), earlier[clash].tolist()):
        if i not in rejected:
            rejected.add(j)
    keep = np.ones(len(candidates), dtype=bool)
    keep[list(rejected)] = False
    return candidates[keep]


def _rejection_sample(
    n: int,
    rng: np.random.Generator,
    draw,
    min_separation: float,
) -> np.ndarray:
    """Sample ``n`` points from ``draw`` keeping pairwise separation.

    ``draw(k)`` must return ``(k, 2)`` candidate points. Candidates are
    taken in order and one is accepted iff its distance
    ``sqrt(dx*dx + dy*dy)`` to every point accepted so far is at least
    ``min_separation``; raises if the target density is infeasible
    (caller asked for more separated points than fit).

    Each batch is tested at once (:func:`_accepted_in_order`) and its
    first accepted candidates are kept up to ``n``: a candidate's fate
    depends only on the candidates drawn before it, so the accept
    decisions are exactly those of taking the candidates one by one. A
    batch for more than ``_HEAD_MIN`` points is tested in two parts: a
    head of about the points still needed and, only if the head falls
    short, the rest against everything accepted so far.
    """
    accepted = np.empty((n, 2), dtype=np.float64)
    count = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        if count == n:
            break
        needed = n - count
        candidates = draw(max(needed * 2, 8))
        split = needed + needed // 8 if needed > _HEAD_MIN else len(candidates)
        for part in (candidates[:split], candidates[split:]):
            if count == n or len(part) == 0:
                break
            if min_separation > 0.0:
                part = _accepted_in_order(accepted[:count], part, min_separation)
            taken = part[: n - count]
            accepted[count : count + len(taken)] = taken
            count += len(taken)
    if count < n:
        raise RuntimeError(
            f"could not place {n} points with separation {min_separation}; "
            "the requested density is infeasible — enlarge the region"
        )
    return accepted


def _polar(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The ``(k, 2)`` points ``(r cos theta, r sin theta)``."""
    points = np.empty((len(r), 2), dtype=np.float64)
    np.multiply(r, np.cos(theta), out=points[:, 0])
    np.multiply(r, np.sin(theta), out=points[:, 1])
    return points


def _disk_draw(rng: np.random.Generator, radius: float, center=None):
    """``draw(k)``: ``k`` points uniform in a disk, by sqrt-radius polar sampling."""

    def draw(k: int) -> np.ndarray:
        r = radius * np.sqrt(rng.random(k))
        points = _polar(r, 2.0 * math.pi * rng.random(k))
        if center is not None:
            points += center
        return points

    return draw


def uniform_disk(
    n: int,
    rng: np.random.Generator,
    radius: Optional[float] = None,
    min_separation: float = 1.0,
) -> np.ndarray:
    """``n`` points uniform in a disk, pairwise ``>= min_separation`` apart.

    The default radius scales as ``4 * sqrt(n)`` so the density (and hence
    the distribution of nearest-neighbor distances) is independent of ``n``
    — this is the footnote-1 regime where ``R`` is polynomial in ``n``.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if radius is None:
        radius = 4.0 * math.sqrt(max(n, 1)) * min_separation

    return _rejection_sample(n, rng, _disk_draw(rng, radius), min_separation)


def grid(n: int, spacing: float = 1.0) -> np.ndarray:
    """The first ``n`` points of a square lattice with the given spacing.

    A grid has the smallest possible number of occupied link classes for
    its size (every node's nearest neighbor is at exactly ``spacing``), so
    it isolates the ``log n`` term of the paper's bound from the ``log R``
    term.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if spacing <= 0.0:
        raise ValueError(f"spacing must be positive (got {spacing})")
    side = math.ceil(math.sqrt(n))
    xs, ys = np.meshgrid(np.arange(side), np.arange(side))
    points = np.column_stack((xs.ravel(), ys.ravel())).astype(np.float64)
    return spacing * points[:n]


def line(n: int, spacing: float = 1.0) -> np.ndarray:
    """``n`` evenly spaced collinear points (worst-case interference chain)."""
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if spacing <= 0.0:
        raise ValueError(f"spacing must be positive (got {spacing})")
    xs = spacing * np.arange(n, dtype=np.float64)
    return np.column_stack((xs, np.zeros(n)))


def ring(n: int, spacing: float = 1.0) -> np.ndarray:
    """``n`` points evenly spaced on a circle with the given arc spacing.

    The ring is the maximally symmetric single-class deployment: every
    node has the identical local view, which makes it the cleanest
    workload for symmetry-breaking arguments (no node is favoured by
    geometry).
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if spacing <= 0.0:
        raise ValueError(f"spacing must be positive (got {spacing})")
    if n == 1:
        return np.zeros((1, 2))
    if n == 2:
        return np.asarray([[0.0, 0.0], [spacing, 0.0]])
    # Chord length between neighbors equals `spacing`.
    radius = spacing / (2.0 * math.sin(math.pi / n))
    angles = 2.0 * math.pi * np.arange(n) / n
    return radius * np.column_stack((np.cos(angles), np.sin(angles)))


def exponential_chain(
    num_classes: int,
    nodes_per_class: int = 2,
    base: float = 2.0,
) -> np.ndarray:
    """A deployment with exactly ``num_classes`` occupied link classes.

    Places ``nodes_per_class`` tight pairs at geometrically growing offsets
    along a line: cluster ``i`` sits at ``x = C * base**i`` and its nodes
    are ``base**i`` apart, so the nodes of cluster ``i`` land in link class
    ``d_i`` and ``log R`` grows linearly in ``num_classes``. This is the
    workload for experiment E2 (rounds vs ``log R`` at fixed ``n``).

    ``nodes_per_class`` must be even; nodes are laid out as vertical pairs
    so every node's nearest neighbor is its partner within the cluster.
    """
    if num_classes < 1:
        raise ValueError(f"num_classes must be positive (got {num_classes})")
    if nodes_per_class < 2 or nodes_per_class % 2 != 0:
        raise ValueError(
            f"nodes_per_class must be an even integer >= 2 (got {nodes_per_class})"
        )
    if base <= 1.0:
        raise ValueError(f"base must exceed 1 (got {base})")
    points = []
    # Spread clusters far apart (growing with the class scale) so that a
    # node's nearest neighbor is always its in-cluster partner. The offset
    # advances past each cluster's full extent, so clusters never overlap
    # regardless of nodes_per_class.
    offset = 0.0
    for i in range(num_classes):
        scale = base**i
        start = offset + 16.0 * scale
        pair_gap = scale  # in [2^i, 2^{i+1}) for base == 2
        for j in range(nodes_per_class // 2):
            x = start + 4.0 * scale * j
            points.append((x, 0.0))
            points.append((x, pair_gap))
        offset = start + 4.0 * scale * (nodes_per_class // 2 - 1)
    return np.asarray(points, dtype=np.float64)


def clustered(
    num_clusters: int,
    nodes_per_cluster: int,
    rng: np.random.Generator,
    cluster_radius: float = 4.0,
    field_side: Optional[float] = None,
    min_separation: float = 1.0,
) -> np.ndarray:
    """Dense clusters scattered over a field.

    Cluster centers are well separated; inside each cluster nodes are
    uniform in a small disk. This produces several heavily populated link
    classes at once, which is the stress case for the Section 3.3
    class-migration analysis (nodes jump to larger classes as their nearest
    neighbors are knocked out).
    """
    if num_clusters < 1 or nodes_per_cluster < 1:
        raise ValueError("num_clusters and nodes_per_cluster must be positive")
    total = num_clusters * nodes_per_cluster
    if field_side is None:
        field_side = 40.0 * cluster_radius * math.sqrt(num_clusters)

    centers = _rejection_sample(
        num_clusters,
        rng,
        lambda k: field_side * rng.random((k, 2)),
        min_separation=8.0 * cluster_radius,
    )

    points = np.empty((total, 2), dtype=np.float64)
    filled = 0
    for center in centers:
        draw = _disk_draw(rng, cluster_radius, center)
        cluster_points = _rejection_sample(nodes_per_cluster, rng, draw, min_separation)
        points[filled : filled + nodes_per_cluster] = cluster_points
        filled += nodes_per_cluster
    return points
