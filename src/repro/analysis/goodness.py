"""Good nodes (Definition 1) and the well-separated subset ``S_i`` (Lemma 2).

Definition 1: a node ``u`` in link class ``d_i`` is **good** if for every
annulus distance ``t in {0, ..., log R}``

    |A^i_t(u)|  <=  96 * 2^{t (alpha - 1 - epsilon)},   epsilon = alpha/2 - 1,

i.e. no exponential annulus around ``u`` is overpopulated relative to the
head-room that super-quadratic fading provides. Lemma 6 shows that when the
smaller classes are collectively light (``n_{<i} <= delta * n_i``) at least
half of ``V_i`` is good; experiment E4 measures that fraction.

Lemma 2 extracts from the good nodes of ``V_i`` a subset ``S_i`` in which
every pair is more than ``(s + 1) * 2^i`` apart; a greedy packing argument
shows ``|S_i| = Theta(#good)``. :func:`well_separated_subset` implements the
greedy construction.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.analysis.linkclasses import LinkClassPartition
from repro.sinr.geometry import annulus_count_rows, greedy_separated_subset

__all__ = [
    "GOOD_NODE_CONSTANT",
    "annulus_budget",
    "is_good",
    "good_nodes",
    "good_fraction",
    "well_separated_subset",
    "partner_of",
]

#: The constant in Definition 1's annulus budget.
GOOD_NODE_CONSTANT = 96.0


def annulus_budget(t: int, alpha: float, constant: float = GOOD_NODE_CONSTANT) -> float:
    """Definition 1's budget ``constant * 2^{t (alpha - 1 - epsilon)}``.

    With ``epsilon = alpha/2 - 1`` the exponent simplifies to
    ``t * alpha / 2``.
    """
    if alpha <= 2.0:
        raise ValueError(f"alpha must exceed 2 (got {alpha})")
    epsilon = alpha / 2.0 - 1.0
    return constant * 2.0 ** (t * (alpha - 1.0 - epsilon))


def _max_annulus_index(distances: np.ndarray, class_index: int, unit: float) -> int:
    """Largest ``t`` for which some annulus ``A^i_t`` could be non-empty."""
    diameter = float(distances.max())
    if diameter <= 0.0:
        return 0
    # Annulus t reaches out to 2^{t+1+i} * unit; beyond the diameter every
    # annulus is empty, so stop at the last one that intersects it.
    return max(0, math.ceil(math.log2(diameter / unit)) - class_index)


def _annulus_test(
    class_index: int,
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    unit: float,
    constant: float,
) -> Callable[[Sequence[int]], np.ndarray]:
    """Definition 1's test as a predicate on nodes of class ``i``, many at once.

    The diameter, the annulus range and the budgets are the same for every
    node of the class, so they are computed once here, and the nodes'
    annuli are counted together.
    """
    max_t = _max_annulus_index(distances, class_index, unit)
    budgets = np.array([annulus_budget(t, alpha, constant) for t in range(max_t + 1)])

    def good(nodes: Sequence[int]) -> np.ndarray:
        counts = annulus_count_rows(distances, nodes, class_index, max_t, active, unit)
        return ~np.any(counts > budgets, axis=1)

    return good


def is_good(
    node: int,
    class_index: int,
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    unit: float = 1.0,
    constant: float = GOOD_NODE_CONSTANT,
) -> bool:
    """Definition 1's test for a single node.

    ``unit`` is the normalised shortest link (annuli are measured in
    multiples of ``2^i * unit``).
    """
    return bool(_annulus_test(class_index, distances, active, alpha, unit, constant)([node])[0])


def good_nodes(
    partition: LinkClassPartition,
    class_index: int,
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    constant: float = GOOD_NODE_CONSTANT,
) -> List[int]:
    """All good nodes of class ``d_i`` under the current activity mask."""
    members = partition.members.get(class_index, ())
    if not members:
        return []
    good = _annulus_test(class_index, distances, active, alpha, partition.unit, constant)
    return [node for node, ok in zip(members, good(members).tolist()) if ok]


def good_fraction(
    partition: LinkClassPartition,
    class_index: int,
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
) -> float:
    """Fraction of ``V_i`` that is good (``nan`` for an empty class)."""
    size = partition.size(class_index)
    if size == 0:
        return float("nan")
    return len(good_nodes(partition, class_index, distances, active, alpha)) / size


def well_separated_subset(
    candidates: Sequence[int],
    class_index: int,
    distances: np.ndarray,
    separation_constant: float,
    unit: float = 1.0,
) -> List[int]:
    """Greedy ``S_i``: candidates pairwise farther than ``(s + 1) 2^i``.

    ``separation_constant`` is the paper's ``s`` (fixed in Lemma 4 as
    ``s = (96 c_geo / c)^{1/epsilon}`` for the target interference bound;
    experiments pass modest values like 2–4). By Lemma 2 the result
    contains a constant fraction of the candidates.
    """
    if separation_constant < 0.0:
        raise ValueError(
            f"separation_constant must be non-negative (got {separation_constant})"
        )
    separation = (separation_constant + 1.0) * (2.0**class_index) * unit
    return greedy_separated_subset(distances, list(candidates), separation)


def partner_of(
    node: int, distances: np.ndarray, active: np.ndarray
) -> Optional[int]:
    """The node's *partner*: its closest active node (Lemma 3's ``T_i``).

    Returns ``None`` when no other active node exists.
    """
    row = np.where(active, distances[node], np.inf).copy()
    row[node] = np.inf
    best = int(np.argmin(row))
    if not np.isfinite(row[best]):
        return None
    return best
