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

The grid pass that starts a tracker with every node active also keeps,
for each node, its candidate list: the nodes of its 3 x 3 block closer
than one cell side, the radius inside which a grid answer is proven.
That proof holds for every subset of the nodes, so an orphan is
re-answered by the nearest still-active node of its list, and only an
orphan whose list has run dry is queried again. A channel keeps that
start state (:meth:`~repro.sinr.channel.SINRChannel.nearest_active`), so
runs on one deployment start from an O(n) copy of it.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sinr.geometry import as_positions, column_bounds, cross_distances

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

#: Longest candidate list. A node with more candidates than this (a dense
#: cluster inside one cell) keeps none and is queried instead.
_MAX_CANDIDATES = 32

#: Cell offsets of a cell and its eight neighbours; the cell itself is
#: at index _CENTRE.
_OFFSETS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
_CENTRE = 4

Answer = Tuple[np.ndarray, np.ndarray]

#: A block's query pairs: ``(rows, per_query, first, slot, pair)``.
Pairs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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
        self.low, high = column_bounds(pool)
        width = high - self.low
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
        self.last = column_bounds(cells)[1]
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

    def query(
        self, positions: np.ndarray, query_ids: np.ndarray, live: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(distance, neighbour, proven)`` for each query, skipping itself.

        ``live``, a mask over all node ids, leaves the pool nodes outside
        it out of every answer; the grid itself is never changed.
        ``proven`` marks the answers that are the nearest live pool node
        for certain; the others carry ``inf`` or a distance that may not
        be the minimum.
        """
        distance = np.full(query_ids.size, np.inf)
        neighbour = np.full(query_ids.size, -1, dtype=np.intp)
        if self.side > 0.0:
            x, y = self.x, self.y
            if live is not None:
                # Dead pool nodes move to infinity.
                kept = live[self.ids]
                x = np.where(kept, x, np.inf)
                y = np.where(kept, y, np.inf)
            # Blocks of queries keep the per-pair arrays small enough to
            # reuse heap memory instead of faulting in fresh pages.
            for start in range(0, query_ids.size, _QUERY_BLOCK):
                block = slice(start, start + _QUERY_BLOCK)
                distance[block], neighbour[block] = self._nearest(
                    positions, query_ids[block], x, y
                )
        return distance, neighbour, distance < self.limit

    def candidates(self, positions: np.ndarray, query_ids: np.ndarray) -> Optional[Answer]:
        """Each pool node's candidates, as ``(distance, id)`` rows indexed by node id.

        A row lists, in block order, the pool nodes of the node's 3 x 3
        block closer than :attr:`limit`; ``query_ids``, the pool's ids in
        ascending order, name the rows to fill. Padding is ``inf`` at id
        0, and a node with more than ``_MAX_CANDIDATES`` candidates keeps
        padding only. ``None`` when no row lists one.
        """
        if not self.side > 0.0:
            return None
        owner, ids, distance = [], [], []
        for start in range(0, query_ids.size, _QUERY_BLOCK):
            block = query_ids[start : start + _QUERY_BLOCK]
            rows, per_query, _, slot, pair = self._pairs(positions, block, self.x, self.y)
            near = np.flatnonzero(pair < self.limit)
            owner.append(np.repeat(block[rows], per_query)[near])
            ids.append(self.ids[slot[near]])
            distance.append(pair[near])
        owner, ids, distance = np.concatenate(owner), np.concatenate(ids), np.concatenate(distance)
        n = self.slot_of.size
        counts = np.bincount(owner, minlength=n)
        if counts.max() > _MAX_CANDIDATES:
            kept = np.flatnonzero(counts[owner] <= _MAX_CANDIDATES)
            owner, ids, distance = owner[kept], ids[kept], distance[kept]
            counts[counts > _MAX_CANDIDATES] = 0
        if owner.size == 0:
            return None
        width = int(counts.max())
        # Queries come in ascending order, so each pair's cell is its
        # owner's row at its rank among the owner's pairs.
        shift = np.arange(0, n * width, width) - (np.cumsum(counts) - counts)
        cell = np.arange(owner.size) + shift[owner]
        rows_distance = np.full(n * width, np.inf)
        rows_distance[cell] = distance
        rows_id = np.zeros(n * width, dtype=np.intp)
        rows_id[cell] = ids
        return rows_distance.reshape(n, width), rows_id.reshape(n, width)

    def _pairs(
        self, positions: np.ndarray, query_ids: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Pairs:
        """Distances from each query to the pool points of its 3 x 3 block.

        ``pair`` holds them query after query, the ``per_query`` pairs of
        query ``rows[k]`` from ``first[k]``, with pool slots ``slot``; a
        query in the pool gets ``inf`` for itself.
        """
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
        dx -= x[slot]
        dy -= y[slot]
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
        return rows, per_query, first, slot, pair

    def _nearest(
        self, positions: np.ndarray, query_ids: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Answer:
        distance = np.full(query_ids.size, np.inf)
        neighbour = np.full(query_ids.size, -1, dtype=np.intp)
        rows, per_query, first, slot, pair = self._pairs(positions, query_ids, x, y)
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
    live: Optional[np.ndarray] = None,
) -> Answer:
    """Grid answers where proven, brute force over ``pool_ids`` for the rest."""
    if grid is None:
        return _brute_force(positions, query_ids, pool_ids)
    distance, neighbour, proven = grid.query(positions, query_ids, live)
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

    Nodes added to an empty tracker through the grid are answered from
    their candidate lists, which then answer later removals' orphans;
    adding nodes to a non-empty tracker drops the lists. The grid over
    the active set is kept across removals, whose nodes its queries
    skip, and rebuilt once the active set has halved or nodes have been
    added. :meth:`copy` is O(n): copies share the grid and the lists,
    which never change once built.

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
        self._candidates: Optional[Answer] = None
        self.add(np.arange(n) if active is None else np.flatnonzero(active))

    def copy(self) -> "NearestActiveNeighbours":
        """An independent tracker in this one's state."""
        other = copy.copy(self)
        other.active = self.active.copy()
        other.distance = self.distance.copy()
        other.neighbour = self.neighbour.copy()
        return other

    def _query(self, query_ids: np.ndarray) -> None:
        """Answer ``query_ids`` against the whole active set."""
        pool = np.flatnonzero(self.active)
        grid = None
        if not _small(query_ids, pool):
            if self._grid is None or self._grid.size > 2 * pool.size:
                self._grid = _Grid(self.positions, pool)
            grid = self._grid
        self.distance[query_ids], self.neighbour[query_ids] = _answer(
            self.positions, query_ids, pool, grid, self.active
        )

    def _reanswer(self, orphans: np.ndarray) -> np.ndarray:
        """Answer ``orphans`` from their candidate lists; return those left unanswered.

        Every node missing from a list is at least the proven radius
        away, farther than every listed one, so the nearest active listed
        node is the nearest active node.
        """
        rows_distance, rows_id = self._candidates
        ids = rows_id[orphans]
        distance = np.where(self.active[ids], rows_distance[orphans], np.inf)
        return self._nearest_listed(orphans, distance, ids)

    def _nearest_listed(
        self, query_ids: np.ndarray, distance: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """Take each query's nearest of its ``(distance, ids)`` row; return those with none."""
        best = distance.argmin(axis=1)
        rows = np.arange(query_ids.size)
        self.distance[query_ids] = distance = distance[rows, best]
        self.neighbour[query_ids] = ids[rows, best]
        return query_ids[np.isinf(distance)]

    def add(self, ids: Sequence[int]) -> None:
        """Activate ``ids`` (all currently inactive)."""
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size == 0:
            return
        others = np.flatnonzero(self.active)
        self.active[ids] = True
        self._grid = None
        self._candidates = None
        if others.size == 0 and not _small(ids, ids):
            # The newcomers are the whole active set: one grid pass lists
            # everyone's candidates, and the lists answer most of them.
            ids = np.sort(ids)
            self._grid = _Grid(self.positions, ids)
            self._candidates = self._grid.candidates(self.positions, ids)
            if self._candidates is not None:
                ids = self._nearest_listed(ids, *(rows[ids] for rows in self._candidates))
            if ids.size:
                self._query(ids)
            return
        self._query(ids)
        # The others keep their neighbour unless a newcomer is nearer.
        closer, via = nearest_in_pool(self.positions, others, ids)
        nearer = closer < self.distance[others]
        self.distance[others[nearer]] = closer[nearer]
        self.neighbour[others[nearer]] = via[nearer]

    def remove(self, ids: Sequence[int]) -> None:
        """Deactivate ``ids`` (all currently active); re-answer their orphans."""
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size == 0:
            return
        self.active[ids] = False
        self.distance[ids] = np.inf
        self.neighbour[ids] = -1
        orphans = np.flatnonzero(self.neighbour >= 0)
        orphans = orphans[~self.active[self.neighbour[orphans]]]
        # A removal small enough for brute force goes straight to it, which
        # is then cheaper than the lists followed by queries for those
        # whose list ran dry.
        if (
            self._candidates is not None
            and orphans.size * np.count_nonzero(self.active) > _BRUTE_FORCE_CELLS
        ):
            orphans = self._reanswer(orphans)
        if orphans.size:
            self._query(orphans)

    def sync(self, active: np.ndarray) -> None:
        """Follow the activity mask ``active``: drop the departed, add the newcomers."""
        self.remove(np.flatnonzero(self.active & ~active))
        self.add(np.flatnonzero(active & ~self.active))
