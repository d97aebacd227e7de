"""E10 — ablation: the path-loss exponent ``alpha`` is load-bearing.

The entire upper-bound analysis lives in the gap ``epsilon = alpha/2 - 1``
between quadratic interferer growth and super-quadratic signal fading
(Section 3.2): as ``alpha -> 2`` the gap closes, spatial reuse vanishes,
and the fading advantage evaporates; large ``alpha`` localises interference
and makes knockouts easy.

This ablation sweeps ``alpha`` on a fixed workload. Expected shape: solve
time decreases monotonically (up to noise) as ``alpha`` grows, and the
smallest ``alpha`` in the sweep is the slowest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.experiments.common import ExperimentResult
from repro.sim.parallel import UniformDiskFactory, run_fast_trials
from repro.sim.runner import high_probability_budget
from repro.sinr.parameters import SINRParameters

TITLE = "path-loss exponent ablation (spatial reuse vanishes as alpha -> 2)"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    alphas: List[float] = field(default_factory=lambda: [2.1, 2.5, 3.0, 4.0, 6.0])
    n: int = 256
    trials: int = 30
    p: float = 0.1
    seed: int = 1010

    @classmethod
    def quick(cls) -> "Config":
        return cls(alphas=[2.2, 3.0, 4.0], n=128, trials=10)

    @classmethod
    def full(cls) -> "Config":
        return cls(n=512, trials=80)


def run(config: Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E10",
        title=TITLE,
        header=["alpha", "n", "mean_rounds", "median", "p95", "solve_rate"],
    )

    budget = 200 * high_probability_budget(config.n)
    means: List[float] = []
    for index, alpha in enumerate(config.alphas):
        stats = run_fast_trials(
            UniformDiskFactory(config.n, SINRParameters(alpha=alpha)),
            config.p,
            config.trials,
            seed=(config.seed, index),
            max_rounds=budget,
        )
        means.append(stats.mean_rounds)
        result.rows.append(
            [
                alpha,
                config.n,
                stats.mean_rounds,
                stats.median_rounds,
                stats.percentile(95),
                stats.solve_rate,
            ]
        )

    result.checks["smallest_alpha_is_slowest"] = means[0] == max(means)
    result.checks["larger_alpha_at_least_as_fast"] = means[-1] <= means[0]
    result.notes.append(
        "mean rounds by alpha: "
        + ", ".join(f"{a:g}: {m:.1f}" for a, m in zip(config.alphas, means))
    )
    return result
