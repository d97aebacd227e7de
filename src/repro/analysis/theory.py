"""Closed-form predictions the simulations are anchored against.

Reproduction is more convincing when measured numbers land on *derivable*
values, not just plausible curves. This module collects every quantity in
the paper's orbit that has a closed form (or an exactly computable
recursion), so tests and experiments can assert measured-vs-predicted:

* slotted ALOHA's per-round solo probability and expected solve time;
* the two-player optimal failure envelope ``2^-B``;
* the adaptive hitting game's ``ceil(log2 k)`` floor;
* decay's sweep length and per-sweep lower bound on solo probability;
* the collision-detection tournament's expected solve time, via an exact
  dynamic program over the halving chain.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "aloha_round_success_probability",
    "aloha_expected_rounds",
    "two_player_failure_floor",
    "adaptive_hitting_floor",
    "decay_sweep_length",
    "decay_sweep_success_lower_bound",
    "geometric_knockout_rounds",
    "cd_tournament_expected_rounds",
]


def aloha_round_success_probability(n: int) -> float:
    """Solo probability per round for ``n`` nodes at ``p = 1/n``.

    ``n * (1/n) * (1 - 1/n)^{n-1} = (1 - 1/n)^{n-1}``, which decreases to
    ``1/e`` as ``n`` grows.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if n == 1:
        return 1.0
    return (1.0 - 1.0 / n) ** (n - 1)


def aloha_expected_rounds(n: int) -> float:
    """Expected solve time of genie ALOHA: geometric mean time ``1/q``."""
    return 1.0 / aloha_round_success_probability(n)


def two_player_failure_floor(budget: int) -> float:
    """Minimum failure probability of two-player CR within ``budget`` rounds.

    Symmetric players can break symmetry with probability at most 1/2 per
    round (transmit/listen anticorrelation), so failure ``>= 2^-budget``.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative (got {budget})")
    return 2.0**-budget


def adaptive_hitting_floor(k: int) -> int:
    """Rounds any player needs against the lazy adaptive referee.

    A proposal at most doubles the number of membership-history groups;
    winning requires ``k`` singleton groups, hence ``ceil(log2 k)``.
    """
    if k < 2:
        raise ValueError(f"the game needs k >= 2 (got {k})")
    return max(1, math.ceil(math.log2(k)))


def decay_sweep_length(size_bound: int) -> int:
    """Length of one decay probability sweep for bound ``N``."""
    if size_bound < 1:
        raise ValueError(f"size_bound must be positive (got {size_bound})")
    return max(1, math.ceil(math.log2(max(size_bound, 2))))


def decay_sweep_success_lower_bound(n: int, size_bound: int = None) -> float:
    """Lower bound on one sweep's solo probability with ``n`` contenders.

    Some step of the sweep uses ``p`` with ``1/(2n) <= p <= 1/n`` (the
    sweep halves through every scale up to ``N >= n``), and at that step
    the solo probability ``n p (1-p)^{n-1}`` is at least
    ``(1/2) (1 - 1/n)^{n-1} >= 1/(2e)`` for ``n >= 2``.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if size_bound is not None and size_bound < n:
        raise ValueError("size_bound must be at least n")
    if n == 1:
        # The sweep's first step has p = 1/2; a solo needs just that node.
        return 0.5
    return 0.5 * (1.0 - 1.0 / n) ** (n - 1)


def geometric_knockout_rounds(n: int, gamma: float) -> float:
    """Rounds for a geometric knockout to reduce ``n`` actives to one.

    If each round retains a ``gamma`` fraction of the active set
    (Corollary 7's regime), contention reaches 1 after
    ``log(n) / log(1/gamma)`` rounds.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1) (got {gamma})")
    if n == 1:
        return 0.0
    return math.log(n) / math.log(1.0 / gamma)


def _binomial_pmf_row(k: int, p: float, log_factorial: np.ndarray) -> np.ndarray:
    """PMF of Binomial(k, p) over outcomes ``0..k``.

    ``log_factorial[i]`` is ``log(i!)`` for ``i`` up to at least ``k``.
    Stable enough for the k values used here (<= a few thousand).
    """
    outcomes = np.arange(k + 1)
    log_comb = log_factorial[k] - log_factorial[: k + 1] - log_factorial[k::-1]
    return np.exp(
        log_comb + outcomes * math.log(p) + (k - outcomes) * math.log(1.0 - p)
    )


def cd_tournament_expected_rounds(n: int, p: float = 0.5) -> float:
    """Exact expected solve time of the collision-detection tournament.

    State = number of active contenders ``k``. Each round ``k' ~
    Binomial(k, p)`` transmit; ``k' = 1`` ends the game, ``k' = 0`` keeps
    ``k`` unchanged (nobody concedes on silence), and ``k' >= 2`` moves
    the state to ``k'`` (all listeners concede). Solving the linear
    recurrence bottom-up:

        E[k] * (1 - P(0|k) - P(k|k)) = 1 + sum_{j=2}^{k-1} P(j|k) E[j]

    ``E[1] = 0`` by definition (with one contender the next transmission
    is solo; state 1 is absorbed at its first transmission, handled by the
    general formula with the empty sum).
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1) (got {p})")
    log_factorial = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    expected = np.zeros(n + 1)
    # E[1]: each round the lone contender transmits w.p. p (solo) else
    # silence; geometric with success p.
    expected[1] = 1.0 / p
    for k in range(2, n + 1):
        pmf = _binomial_pmf_row(k, p, log_factorial)
        absorbing = 1.0 - pmf[0] - pmf[k]
        cross = float(pmf[2:k] @ expected[2:k])
        expected[k] = (1.0 + cross) / absorbing
    return float(expected[n])
