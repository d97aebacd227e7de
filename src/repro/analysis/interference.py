"""Interference accounting — Lemmas 3 and 4 as executable bounds.

Section 3.2's engine room is a set of interference bounds on the
well-separated good nodes ``S_i``:

* **Claim 1**: the *total* interference experienced by all of ``S_i``
  collectively is at most ``c_max * |S_i| * P / 2^{i alpha}``, with
  ``c_max = 96 / (1 - 2^{-epsilon})`` — the geometric-series constant that
  falls out of summing the good-node annulus budgets.
* **Claim 2**: symmetrically, no single outside node can *generate* more
  than ``c_max * P / 2^{i alpha}`` at the members of ``S_i`` combined.
* **Lemma 4**: even if every node of ``S_i ∪ T_i`` transmits at once, the
  interference at a member ``u`` from ``S_i ∪ T_i \\ {partner}`` is at most
  ``c * P / 2^{i alpha}`` once the separation constant ``s`` is chosen as
  ``s = (96 / (c (1 - 2^{-epsilon})))^{1/epsilon}``.

This module computes the measured quantities and the paper's bounds so
experiment E13 can check the inequalities numerically on real deployments —
the closest thing a simulation offers to "re-running" a proof.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sinr.parameters import SINRParameters

__all__ = [
    "geometric_series_constant",
    "claim1_constant",
    "claim1_bound",
    "lemma4_separation",
    "lemma4_constant",
    "lemma4_bound",
    "interference_at",
    "total_interference_on_set",
    "interference_generated_by",
]


def geometric_series_constant(alpha: float) -> float:
    """``1 / (1 - 2^{-epsilon})`` with ``epsilon = alpha/2 - 1``.

    The convergence factor of the annulus interference series; finite
    exactly because ``alpha > 2``.
    """
    epsilon = alpha / 2.0 - 1.0
    if epsilon <= 0.0:
        raise ValueError(f"alpha must exceed 2 (got {alpha})")
    return 1.0 / (1.0 - 2.0**-epsilon)


def claim1_constant(alpha: float, good_constant: float = 96.0) -> float:
    """Claim 1's ``c_max = 96 / (1 - 2^{-epsilon})``."""
    return good_constant * geometric_series_constant(alpha)


def claim1_bound(
    params: SINRParameters, class_index: int, set_size: int, unit: float = 1.0
) -> float:
    """Claim 1's collective bound ``c_max * |S_i| * P / 2^{i alpha}``.

    ``unit`` rescales for deployments whose shortest link is not 1 (the
    paper normalises it away; we keep it explicit).
    """
    if set_size < 0:
        raise ValueError(f"set_size must be non-negative (got {set_size})")
    scale = (2.0**class_index * unit) ** params.alpha
    return claim1_constant(params.alpha) * set_size * params.power / scale


def lemma4_separation(alpha: float, c: float, good_constant: float = 96.0) -> float:
    """Lemma 4's separation constant ``s = (96 g / c)^{1/epsilon}``.

    ``g`` is the geometric-series constant; choosing ``S_i`` with pairwise
    distance ``> (s + 1) 2^i`` caps the in-set interference at
    ``c P / 2^{i alpha}``.
    """
    if c <= 0.0:
        raise ValueError(f"target constant c must be positive (got {c})")
    epsilon = alpha / 2.0 - 1.0
    if epsilon <= 0.0:
        raise ValueError(f"alpha must exceed 2 (got {alpha})")
    return (good_constant * geometric_series_constant(alpha) / c) ** (1.0 / epsilon)


def lemma4_constant(alpha: float, s: float, good_constant: float = 96.0) -> float:
    """Invert Lemma 4: the ``c`` guaranteed by a given separation ``s``.

    ``c = 96 g / s^epsilon`` — the same trade-off as
    :func:`lemma4_separation`, solved the other way. Useful numerically:
    the paper's worst-case constants make ``s(c)`` astronomically large for
    small ``c``, but any *practical* ``s`` still certifies a concrete
    interference cap ``c(s) * P / 2^{i alpha}``.
    """
    if s <= 0.0:
        raise ValueError(f"separation s must be positive (got {s})")
    epsilon = alpha / 2.0 - 1.0
    if epsilon <= 0.0:
        raise ValueError(f"alpha must exceed 2 (got {alpha})")
    return good_constant * geometric_series_constant(alpha) / s**epsilon


def lemma4_bound(
    params: SINRParameters, class_index: int, c: float, unit: float = 1.0
) -> float:
    """Lemma 4's per-node cap ``c * P / 2^{i alpha}``."""
    if c <= 0.0:
        raise ValueError(f"target constant c must be positive (got {c})")
    scale = (2.0**class_index * unit) ** params.alpha
    return c * params.power / scale


def interference_at(
    gains: np.ndarray, node: int, transmitters: Sequence[int]
) -> float:
    """Sum of arriving signal powers at ``node`` from ``transmitters``.

    ``gains`` is the channel's base gain matrix (``gains[i, j]`` = power at
    ``j`` when ``i`` transmits); the node itself is excluded automatically
    because the diagonal is zero. ``transmitters`` may be an id array,
    which is then used without a copy per call.
    """
    indices = np.asarray(transmitters, dtype=np.intp)
    indices = indices[indices != node]
    if not indices.size:
        return 0.0
    return float(gains[indices, node].sum())


def total_interference_on_set(
    gains: np.ndarray, members: Sequence[int], sources: Sequence[int]
) -> float:
    """Collective interference on ``members`` from ``sources`` (Claim 1's LHS).

    Sources that are themselves members contribute to the *other* members
    only (a node does not interfere with itself).
    """
    sources = np.asarray(sources, dtype=np.intp)
    return sum(interference_at(gains, m, sources) for m in members)


def interference_generated_by(
    gains: np.ndarray, source: int, members: Sequence[int]
) -> float:
    """Claim 2's ``int(u)``: total power ``source`` lands on ``members``."""
    targets = np.asarray(members, dtype=np.intp)
    targets = targets[targets != source]
    if not targets.size:
        return 0.0
    return float(gains[source, targets].sum())
