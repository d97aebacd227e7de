"""Reference players for the restricted k-hitting game.

A proposal is a boolean mask of length ``k``: element ``i`` is proposed
iff ``mask[i]``. Three players bracket the problem:

:class:`BitSplittingPlayer`
    Deterministic and optimal: round ``b`` proposes every element whose
    ``b``-th bit is set. Any two distinct elements differ in some bit, so
    the player wins within ``ceil(log2 k)`` rounds against *every* referee
    — including the adaptive one, where ``ceil(log2 k)`` is also a lower
    bound. This exhibits the tightness of Lemma 13.
:class:`UniformSubsetPlayer`
    Memoryless randomness: each element joins the proposal independently
    with probability 1/2. A fixed target is hit with probability exactly
    1/2 per round, so winning w.p. ``1 - 1/k`` takes ``Theta(log k)``
    rounds; against the adaptive referee the expected time is
    ``~ 2 log2 k`` (pairs survive a round w.p. 1/2 and ``k^2/2`` pairs must
    die).
:class:`SingletonPlayer`
    The cautionary baseline: proposes ``{0}, {1}, {2}, ...`` in order. A
    singleton ``{i}`` wins iff ``i`` is a target element, so the fixed-game
    winning time is uniform over the target's positions (expected
    ``~ k/3``), exponentially worse than the bound.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "HittingPlayer",
    "BitSplittingPlayer",
    "UniformSubsetPlayer",
    "SingletonPlayer",
]


class HittingPlayer(ABC):
    """A strategy for the hitting game."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError(f"the game needs k >= 2 (got {k})")
        self.k = k

    @abstractmethod
    def propose(self, round_index: int, rng: np.random.Generator) -> np.ndarray:
        """The proposal for the given (0-based) round, a boolean mask of length ``k``."""

    def on_loss(self, round_index: int) -> None:
        """Notification that the proposal did not win. Default: ignore.

        The game gives the player no other information, so this callback
        carries none — it exists for players that track their own schedule
        (e.g. the Lemma 14 reduction, which must advance its simulation).
        """


class BitSplittingPlayer(HittingPlayer):
    """Deterministic bit-plane proposals; optimal at ``ceil(log2 k)``."""

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self.num_bits = max(1, (k - 1).bit_length())
        self._ids = np.arange(k)

    def propose(self, round_index: int, rng: np.random.Generator) -> np.ndarray:
        bit = round_index % self.num_bits
        return (self._ids >> bit) & 1 == 1


class UniformSubsetPlayer(HittingPlayer):
    """Independent 1/2 coin per element each round."""

    def __init__(self, k: int, p: float = 0.5) -> None:
        super().__init__(k)
        if not 0.0 < p < 1.0:
            raise ValueError(f"inclusion probability must be in (0, 1) (got {p})")
        self.p = p

    def propose(self, round_index: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random(self.k) < self.p


class SingletonPlayer(HittingPlayer):
    """Proposes one element at a time, in order."""

    def propose(self, round_index: int, rng: np.random.Generator) -> np.ndarray:
        mask = np.zeros(self.k, dtype=bool)
        mask[round_index % self.k] = True
        return mask
