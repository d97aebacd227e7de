"""Nearest active neighbour of every active node, kept up to date from positions.

The link classes of Section 3.1 bin each active node by the distance to
its nearest *active* neighbour. Every nearest distance of the package
comes from this module: the partition and its replay along a trace
(:mod:`repro.analysis.linkclasses`), the deployment statistics and the
probes' per-round class sizes. Recomputing it from the ``(n, n)`` distance matrix costs
``|active|^2`` per round and needs the matrix; but a round changes only
a few nearest neighbours. :class:`NearestActiveNeighbours` therefore
keeps each active node's nearest distance and neighbour id, and after a
round re-queries only the nodes whose neighbour was knocked out. Nodes
that wake up are queried themselves and offered to everyone else as a
possibly nearer neighbour.

Queries hash the active nodes into square cells and compare each query
point with the points in its own and the eight surrounding cells, using
:func:`~repro.sinr.geometry.cross_distances`' expression
``sqrt(dx*dx + dy*dy)``, so every distance has the bits the matrix entry
has. A grid answer closer than one cell side (less a slack far above the
rounding error) is provably the nearest; every other query (a node
isolated from the rest, exponential chains, clusters far apart,
near-empty sets) is answered by brute force over the active set, in
blocks of bounded size. Small queries skip the grid altogether. Memory
stays O(n).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sinr.geometry import as_positions, cross_distances

__all__ = ["NearestActiveNeighbours", "nearest_in_pool"]

#: Most distances a brute-force block holds at once (8 MiB of float64).
_BLOCK_CELLS = 1 << 20

#: Queries times pool size up to which brute force beats the grid.
_BRUTE_FORCE_CELLS = 1 << 15

#: Queries a grid answers at once. With about 9 * _POINTS_PER_CELL
#: candidates each, the per-pair arrays stay small enough to come from
#: reused heap memory rather than freshly faulted pages.
_QUERY_BLOCK = 256

#: Mean number of pool points per grid cell.
_POINTS_PER_CELL = 3.0

#: Cell offsets of a cell and its eight neighbours; the cell itself is
#: at index _CENTRE.
_OFFSETS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
_CENTRE = 4

Answer = Tuple[np.ndarray, np.ndarray]


def _brute_force(positions: np.ndarray, query_ids: np.ndarray, pool_ids: np.ndarray) -> Answer:
    """Nearest pool node of each query other than itself, comparing all pairs."""
    distance = np.full(query_ids.size, np.inf)
    neighbour = np.full(query_ids.size, -1, dtype=np.intp)
    pool = positions[pool_ids]
    step = max(1, _BLOCK_CELLS // pool_ids.size)
    for start in range(0, query_ids.size, step):
        ids = query_ids[start : start + step]
        block = cross_distances(positions[ids], pool)
        block[ids[:, None] == pool_ids] = np.inf
        best = block.argmin(axis=1)
        distance[start : start + step] = block[np.arange(ids.size), best]
        neighbour[start : start + step] = pool_ids[best]
    neighbour[np.isinf(distance)] = -1
    return distance, neighbour


class _Grid:
    """A grid hash over a pool of nodes, answering nearest-neighbour queries.

    Cells hold about ``_POINTS_PER_CELL`` pool points each, with at most
    ``m / 2`` cells along the longer side so a collinear pool still gets
    wide cells. Keys live on a grid padded by one cell on every side, so a
    neighbour of an occupied cell never aliases another cell.
    """

    def __init__(self, positions: np.ndarray, pool_ids: np.ndarray) -> None:
        pool = positions[pool_ids]
        self.size = pool_ids.size
        self.low = pool.min(axis=0)
        width = pool.max(axis=0) - self.low
        extent = float(width.max())
        self.side = max(
            float(np.sqrt(_POINTS_PER_CELL * width[0] * width[1] / pool_ids.size)),
            2.0 * extent / pool_ids.size,
        )
        # A pool point outside a query's 3 x 3 block is at least one cell
        # side away, less the rounding of the cell assignment.
        self.limit = self.side - 1e-9 * (self.side + extent)
        if not self.side > 0.0:
            return
        cells = np.floor((pool - self.low) / self.side).astype(np.int64)
        self.last = cells.max(axis=0)
        self.columns = int(self.last[1]) + 3
        keys = (cells[:, 0] + 1) * self.columns + (cells[:, 1] + 1)
        order = np.argsort(keys, kind="stable")
        self.counts = np.bincount(keys, minlength=(int(self.last[0]) + 3) * self.columns)
        self.starts = np.cumsum(self.counts) - self.counts
        self.ids = pool_ids[order]
        self.x = pool[order, 0]
        self.y = pool[order, 1]
        self.slot_of = np.full(positions.shape[0], -1, dtype=np.intp)
        self.slot_of[self.ids] = np.arange(pool_ids.size)
        self.around = _OFFSETS @ (self.columns, 1)

    def discard(self, ids: np.ndarray) -> None:
        """Drop ``ids`` from the pool: they move to infinity, out of every answer."""
        if self.side > 0.0:
            slots = self.slot_of[ids]
            slots = slots[slots >= 0]
            self.x[slots] = np.inf
            self.y[slots] = np.inf

    def query(
        self, positions: np.ndarray, query_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(distance, neighbour, proven)`` for each query, skipping itself.

        ``proven`` marks the answers that are the nearest pool node for
        certain; the others carry ``inf`` or a distance that may not be
        the minimum.
        """
        distance = np.full(query_ids.size, np.inf)
        neighbour = np.full(query_ids.size, -1, dtype=np.intp)
        if self.side > 0.0:
            # Blocks of queries keep the per-pair arrays small enough to
            # reuse heap memory instead of faulting in fresh pages.
            for start in range(0, query_ids.size, _QUERY_BLOCK):
                block = slice(start, start + _QUERY_BLOCK)
                distance[block], neighbour[block] = self._nearest(positions, query_ids[block])
        return distance, neighbour, distance < self.limit

    def _nearest(self, positions: np.ndarray, query_ids: np.ndarray) -> Answer:
        distance = np.full(query_ids.size, np.inf)
        neighbour = np.full(query_ids.size, -1, dtype=np.intp)
        queries = positions[query_ids]
        cells = np.floor((queries - self.low) / self.side)
        rows = np.flatnonzero(np.all((cells >= 0) & (cells <= self.last), axis=1))
        keys = (cells[rows, 0] + 1) * self.columns + (cells[rows, 1] + 1)
        around = keys.astype(np.int64)[:, None] + self.around
        counts = self.counts[around]
        starts = self.starts[around]
        per_query = counts.sum(axis=1)
        first = np.cumsum(per_query) - per_query
        flat = counts.ravel()
        slot = np.arange(per_query.sum()) + np.repeat(
            starts.ravel() - (np.cumsum(flat) - flat), flat
        )
        # cross_distances' expression, pair by pair.
        dx = np.repeat(queries[rows, 0], per_query)
        dy = np.repeat(queries[rows, 1], per_query)
        dx -= self.x[slot]
        dy -= self.y[slot]
        dx *= dx
        dy *= dy
        dx += dy
        pair = np.sqrt(dx, out=dx)
        # A query in the pool never answers itself: it sits in its own
        # cell, the centre of its block.
        own = self.slot_of[query_ids[rows]]
        member = own >= 0
        pair[
            first[member]
            + counts[member, :_CENTRE].sum(axis=1)
            + own[member]
            - starts[member, _CENTRE]
        ] = np.inf

        found = np.flatnonzero(per_query)
        if found.size:
            distance[rows[found]] = np.minimum.reduceat(pair, first[found])
            # The first candidate at the minimum names the neighbour.
            hits = np.flatnonzero(pair == np.repeat(distance[rows], per_query))
            owner = np.searchsorted(first, hits, side="right") - 1
            leads = np.ones(hits.size, dtype=bool)
            leads[1:] = owner[1:] != owner[:-1]
            neighbour[rows[owner[leads]]] = self.ids[slot[hits[leads]]]
        neighbour[np.isinf(distance)] = -1
        return distance, neighbour


def _answer(
    positions: np.ndarray,
    query_ids: np.ndarray,
    pool_ids: np.ndarray,
    grid: Optional[_Grid],
) -> Answer:
    """Grid answers where proven, brute force over ``pool_ids`` for the rest."""
    if grid is None:
        return _brute_force(positions, query_ids, pool_ids)
    distance, neighbour, proven = grid.query(positions, query_ids)
    rest = np.flatnonzero(~proven)
    if rest.size:
        distance[rest], neighbour[rest] = _brute_force(positions, query_ids[rest], pool_ids)
    return distance, neighbour


def _small(query_ids: np.ndarray, pool_ids: np.ndarray) -> bool:
    return query_ids.size * pool_ids.size <= _BRUTE_FORCE_CELLS


def nearest_in_pool(positions: np.ndarray, query_ids, pool_ids) -> Answer:
    """Nearest member of ``pool_ids`` to each of ``query_ids``, other than itself.

    Returns ``(distance, neighbour)``: the distance as the ``(n, n)``
    matrix holds it, and the id of a pool node at that distance
    (``inf`` and ``-1`` when the pool has no other node).
    """
    query_ids = np.asarray(query_ids, dtype=np.intp)
    pool_ids = np.asarray(pool_ids, dtype=np.intp)
    if query_ids.size == 0 or pool_ids.size == 0:
        return np.full(query_ids.size, np.inf), np.full(query_ids.size, -1, dtype=np.intp)
    grid = None if _small(query_ids, pool_ids) else _Grid(positions, pool_ids)
    return _answer(positions, query_ids, pool_ids, grid)


class NearestActiveNeighbours:
    """Each active node's nearest active neighbour, updated incrementally.

    ``distance[i]`` is node ``i``'s distance to its nearest other active
    node, bit for bit the minimum over its row of the ``(n, n)`` distance
    matrix restricted to the active set, and ``neighbour[i]`` a node at
    that distance. Both are ``inf`` / ``-1`` for inactive nodes and for a
    sole active node.

    The grid over the active set is kept across removals, which move the
    removed nodes out of it, and rebuilt once the active set has halved
    or nodes have been added.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates (a channel's ``positions``).
    active:
        Initial activity mask; default everyone. Build with an all-false
        mask and :meth:`sync` to follow a staggered activation.
    """

    def __init__(self, positions, active: Optional[np.ndarray] = None) -> None:
        self.positions = as_positions(positions)
        n = self.positions.shape[0]
        self.active = np.zeros(n, dtype=bool)
        self.distance = np.full(n, np.inf)
        self.neighbour = np.full(n, -1, dtype=np.intp)
        self._grid: Optional[_Grid] = None
        self.add(np.arange(n) if active is None else np.flatnonzero(active))

    def _query(self, query_ids: np.ndarray) -> None:
        """Answer ``query_ids`` against the whole active set."""
        pool = np.flatnonzero(self.active)
        grid = None
        if not _small(query_ids, pool):
            if self._grid is None or self._grid.size > 2 * pool.size:
                self._grid = _Grid(self.positions, pool)
            grid = self._grid
        self.distance[query_ids], self.neighbour[query_ids] = _answer(
            self.positions, query_ids, pool, grid
        )

    def add(self, ids: Sequence[int]) -> None:
        """Activate ``ids`` (all currently inactive)."""
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size == 0:
            return
        others = np.flatnonzero(self.active)
        self.active[ids] = True
        self._grid = None
        self._query(ids)
        # The others keep their neighbour unless a newcomer is nearer.
        closer, via = nearest_in_pool(self.positions, others, ids)
        nearer = closer < self.distance[others]
        self.distance[others[nearer]] = closer[nearer]
        self.neighbour[others[nearer]] = via[nearer]

    def remove(self, ids: Sequence[int]) -> None:
        """Deactivate ``ids`` (all currently active); re-query their orphans."""
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size == 0:
            return
        self.active[ids] = False
        self.distance[ids] = np.inf
        self.neighbour[ids] = -1
        if self._grid is not None:
            self._grid.discard(ids)
        orphans = np.flatnonzero(self.neighbour >= 0)
        orphans = orphans[~self.active[self.neighbour[orphans]]]
        if orphans.size:
            self._query(orphans)

    def sync(self, active: np.ndarray) -> None:
        """Follow the activity mask ``active``: drop the departed, add the newcomers."""
        self.remove(np.flatnonzero(self.active & ~active))
        self.add(np.flatnonzero(active & ~self.active))
