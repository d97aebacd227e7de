"""Class-bound vectors ``q_t`` — Section 3.3's fitting strategy.

The round-complexity proof does not argue about individual executions
directly; it defines a *schedule* of upper bounds on the link-class sizes
and shows every execution eventually obeys it:

* constants ``gamma < gamma_slow < 1`` (knockout survival fractions),
  ``rho < 1`` (the target ratio between consecutive class sizes), and
  ``l = ceil(log_{gamma_slow} rho)``;
* start steps ``s_i = i * l`` — class ``d_i`` owes no progress before step
  ``s_i``;
* the vectors themselves:

      q_t(i) = n                       for t <= s_i,
      q_t(i) = gamma_slow * q_{t-1}(i) for t >  s_i,

  truncated at 0 when the value drops below 1 (a class bounded below one
  node is empty). The proof's aggressive bound
  ``q~_{t+1}(i) = q_t(i) * (gamma_slow - rho/(1-rho))``, whose
  satisfaction is permanent (the argument following Lemma 9), sits below
  ``q_{t+1}(i)``; the tests check that against :meth:`ClassBoundSchedule.bound`.

Claim 8: the first step ``T`` with ``q_T = 0`` everywhere is
``Theta(log n + log R)``. Experiment E6 overlays measured class-size
trajectories on this schedule.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

__all__ = ["ClassBoundSchedule"]


class ClassBoundSchedule:
    """The ``q_t`` schedule for a given ``n`` and class count.

    Parameters
    ----------
    n:
        Number of participating nodes (the initial bound for every class).
    num_classes:
        ``m = log R + 1`` — how many class positions the vectors carry.
    gamma_slow:
        Per-step survival fraction (``gamma < gamma_slow < 1``). The proof
        sets ``gamma_slow = gamma + rho/(1-rho)``; experiments typically
        probe values around 0.8–0.95.
    rho:
        Target geometric ratio between consecutive class sizes, chosen
        small enough that ``rho/(1-rho) < gamma * delta``.
    """

    def __init__(
        self,
        n: int,
        num_classes: int,
        gamma_slow: float = 0.9,
        rho: float = 0.25,
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be positive (got {n})")
        if num_classes < 1:
            raise ValueError(f"num_classes must be positive (got {num_classes})")
        if not 0.0 < gamma_slow < 1.0:
            raise ValueError(f"gamma_slow must be in (0, 1) (got {gamma_slow})")
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0, 1) (got {rho})")
        self.n = n
        self.num_classes = num_classes
        self.gamma_slow = gamma_slow
        self.rho = rho
        # l = ceil(log_{gamma_slow} rho): the lag (in steps) between the
        # schedules of consecutive classes. log of two sub-1 numbers is a
        # positive ratio.
        self.lag = max(1, math.ceil(math.log(rho) / math.log(gamma_slow)))

    def start_step(self, class_index: int) -> int:
        """``s_i = i * l`` — no progress owed before this step."""
        if class_index < 0:
            raise ValueError(f"class_index must be non-negative (got {class_index})")
        return class_index * self.lag

    def bound(self, t: int, class_index: int) -> float:
        """``q_t(i)`` with values below one node truncated to 0."""
        if t < 0:
            raise ValueError(f"step t must be non-negative (got {t})")
        start = self.start_step(class_index)
        if t <= start:
            return float(self.n)
        value = self.n * self.gamma_slow ** (t - start)
        return value if value >= 1.0 else 0.0

    def vector(self, t: int) -> np.ndarray:
        """The full ``q_t`` as an array over class positions."""
        return np.array(
            [self.bound(t, i) for i in range(self.num_classes)], dtype=np.float64
        )

    def zero_step(self) -> int:
        """Claim 8's ``T``: the first step where every position is 0.

        ``T = Theta(log n + log R)``: the last class starts reducing at
        step ``(m-1) * l`` and needs ``log_{1/gamma_slow} n`` further steps
        to cross below one node. Only the last class matters (earlier
        classes zero out sooner), so ``T`` is computed exactly for it.
        """
        last = self.num_classes - 1
        # Smallest d >= 1 with n * gamma_slow^d < 1.
        decay_steps = math.floor(math.log(self.n) / -math.log(self.gamma_slow)) + 1
        t = self.start_step(last) + decay_steps
        # Guard against floating-point edge cases in the log arithmetic.
        while self.bound(t, last) > 0.0:
            t += 1
        while t > 1 and self.bound(t - 1, last) == 0.0:
            t -= 1
        return t

    def violations(self, sizes: np.ndarray, t: int) -> List[int]:
        """Class indices whose measured size exceeds ``q_t``.

        ``sizes`` is a length-``num_classes`` vector of measured ``n_i``.
        """
        sizes = np.asarray(sizes, dtype=np.float64)
        if sizes.shape != (self.num_classes,):
            raise ValueError(
                f"sizes must have shape ({self.num_classes},), got {sizes.shape}"
            )
        bound = self.vector(t)
        return [int(i) for i in np.flatnonzero(sizes > bound)]

    def achieved_step(self, sizes: np.ndarray) -> int:
        """The largest step ``t`` whose bound the measured sizes satisfy.

        Monotone in knockouts: as classes shrink, later (tighter) steps
        become satisfied. Returns the largest ``t <= zero_step()`` with no
        violations; step 0 is always satisfied since ``q_0(i) = n``.
        """
        achieved = 0
        for t in range(self.zero_step() + 1):
            if not self.violations(sizes, t):
                achieved = t
            else:
                break
        return achieved

    def __repr__(self) -> str:
        return (
            f"ClassBoundSchedule(n={self.n}, m={self.num_classes}, "
            f"gamma_slow={self.gamma_slow}, rho={self.rho}, l={self.lag})"
        )
