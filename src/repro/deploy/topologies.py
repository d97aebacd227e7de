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
  checks each candidate against the accepted points in neighbouring
  grid cells only, so a deployment costs O(n) instead of O(n^2).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "uniform_disk",
    "uniform_square",
    "grid",
    "line",
    "ring",
    "exponential_chain",
    "power_law_disk",
    "clustered",
    "two_cluster",
]

_MAX_REJECTION_ROUNDS = 10_000

#: Cell offsets of a cell and its eight neighbours.
_NEIGHBOURHOOD = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def _clear_of(cells: dict, cx: int, cy: int, x: float, y: float, min_separation: float) -> bool:
    """Whether ``(x, y)`` is at least ``min_separation`` from every hashed point near cell ``(cx, cy)``."""
    for ox, oy in _NEIGHBOURHOOD:
        for qx, qy in cells.get((cx + ox, cy + oy), ()):
            dx = qx - x
            dy = qy - y
            if math.sqrt(dx * dx + dy * dy) < min_separation:
                return False
    return True


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

    Accepted points are hashed into square cells of side
    ``2 * min_separation`` and a candidate is compared with the points in
    its own and the eight surrounding cells only. A point closer than
    ``min_separation`` is less than half a cell away along each axis, so
    even with the rounding of ``x / side`` its cell index differs from
    the candidate's by at most one: the accept decisions are exactly
    those of comparing against every accepted point.
    """
    accepted = np.empty((n, 2), dtype=np.float64)
    count = 0
    side = 2.0 * min_separation
    cells: dict = {}
    for _ in range(_MAX_REJECTION_ROUNDS):
        if count == n:
            break
        needed = n - count
        candidates = draw(max(needed * 2, 8))
        for x, y in candidates.tolist():
            if count == n:
                break
            if min_separation > 0.0:
                cx = math.floor(x / side)
                cy = math.floor(y / side)
                if not _clear_of(cells, cx, cy, x, y, min_separation):
                    continue
                cells.setdefault((cx, cy), []).append((x, y))
            accepted[count, 0] = x
            accepted[count, 1] = y
            count += 1
    if count < n:
        raise RuntimeError(
            f"could not place {n} points with separation {min_separation}; "
            "the requested density is infeasible — enlarge the region"
        )
    return accepted


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

    def draw(k: int) -> np.ndarray:
        # Uniform in the disk via sqrt-radius polar sampling.
        r = radius * np.sqrt(rng.random(k))
        theta = 2.0 * math.pi * rng.random(k)
        return np.column_stack((r * np.cos(theta), r * np.sin(theta)))

    return _rejection_sample(n, rng, draw, min_separation)


def uniform_square(
    n: int,
    rng: np.random.Generator,
    side: Optional[float] = None,
    min_separation: float = 1.0,
) -> np.ndarray:
    """``n`` points uniform in an axis-aligned square."""
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if side is None:
        side = 6.0 * math.sqrt(max(n, 1)) * min_separation

    def draw(k: int) -> np.ndarray:
        return side * rng.random((k, 2))

    return _rejection_sample(n, rng, draw, min_separation)


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


def power_law_disk(
    n: int,
    rng: np.random.Generator,
    exponent: float = 2.0,
    inner_radius: float = 2.0,
    outer_radius: Optional[float] = None,
    min_separation: float = 1.0,
) -> np.ndarray:
    """Radially thinning deployment: density falls as ``r^-exponent``.

    Points are denser near the center and sparser outward, so
    nearest-neighbor distances span many scales *naturally* — unlike the
    engineered :func:`exponential_chain`, the link classes here emerge
    from a realistic density gradient (think a city core fading into
    suburbs). Useful for stressing the multi-class analysis on organic
    geometry.

    The radial coordinate is drawn with density ``∝ r^{1-exponent}`` on
    ``[inner_radius, outer_radius]`` via inverse-transform sampling.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if exponent <= 1.0:
        raise ValueError(f"exponent must exceed 1 (got {exponent})")
    if inner_radius <= 0.0:
        raise ValueError(f"inner_radius must be positive (got {inner_radius})")
    if outer_radius is None:
        outer_radius = inner_radius * 16.0 * math.sqrt(max(n, 1))
    if outer_radius <= inner_radius:
        raise ValueError("outer_radius must exceed inner_radius")

    power = 2.0 - exponent  # exponent of the radial CDF's argument

    def draw(k: int) -> np.ndarray:
        u = rng.random(k)
        if abs(power) < 1e-12:
            # exponent == 2: log-uniform radii.
            r = inner_radius * (outer_radius / inner_radius) ** u
        else:
            a = inner_radius**power
            b = outer_radius**power
            r = (a + u * (b - a)) ** (1.0 / power)
        theta = 2.0 * math.pi * rng.random(k)
        return np.column_stack((r * np.cos(theta), r * np.sin(theta)))

    return _rejection_sample(n, rng, draw, min_separation)


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
        def draw(k: int, center=center) -> np.ndarray:
            r = cluster_radius * np.sqrt(rng.random(k))
            theta = 2.0 * math.pi * rng.random(k)
            return center + np.column_stack((r * np.cos(theta), r * np.sin(theta)))

        cluster_points = _rejection_sample(nodes_per_cluster, rng, draw, min_separation)
        points[filled : filled + nodes_per_cluster] = cluster_points
        filled += nodes_per_cluster
    return points


def two_cluster(
    cluster_size: int,
    rng: np.random.Generator,
    gap: float = 64.0,
    cluster_radius: float = 2.0,
    min_separation: float = 1.0,
) -> np.ndarray:
    """Two dense clusters separated by ``gap`` — the lower-bound geometry.

    The Section 4 reduction embeds a two-player symmetry-breaking instance
    in a large network; this deployment realises the geometry in which two
    tight groups must break symmetry across a wide gap.
    """
    if cluster_size < 1:
        raise ValueError(f"cluster_size must be positive (got {cluster_size})")
    if gap <= 4.0 * cluster_radius:
        raise ValueError("gap must exceed four cluster radii to keep clusters distinct")
    centers = np.asarray([[0.0, 0.0], [gap, 0.0]])
    points = np.empty((2 * cluster_size, 2), dtype=np.float64)
    for idx, center in enumerate(centers):
        def draw(k: int, center=center) -> np.ndarray:
            r = cluster_radius * np.sqrt(rng.random(k))
            theta = 2.0 * math.pi * rng.random(k)
            return center + np.column_stack((r * np.cos(theta), r * np.sin(theta)))

        block = _rejection_sample(cluster_size, rng, draw, min_separation)
        points[idx * cluster_size : (idx + 1) * cluster_size] = block
    return points
