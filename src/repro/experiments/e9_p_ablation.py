"""E9 — ablation: the constant broadcast probability ``p``.

The paper fixes ``p`` through existence arguments (Lemma 3 picks
``p = c / (4 c_max)`` for packing constants depending on ``alpha``) and
never optimises it. This ablation sweeps ``p`` on a fixed workload and
reports the solve time, answering two practical questions the paper leaves
open: how wide is the working range, and where does it degrade?

Expected shape: a broad U — tiny ``p`` wastes rounds in silence (the solo
round needs *someone* to transmit), large ``p`` drowns the channel in
interference so knockouts stop happening; the middle decade is flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.experiments.common import ExperimentResult
from repro.sim.parallel import UniformDiskFactory, run_fast_trials
from repro.sim.runner import high_probability_budget
from repro.sinr.parameters import SINRParameters

TITLE = "broadcast probability ablation for the paper's algorithm"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    probabilities: List[float] = field(
        default_factory=lambda: [0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75]
    )
    n: int = 256
    trials: int = 30
    alpha: float = 3.0
    seed: int = 909

    @classmethod
    def quick(cls) -> "Config":
        return cls(probabilities=[0.02, 0.05, 0.1, 0.2, 0.5], n=128, trials=10)

    @classmethod
    def full(cls) -> "Config":
        # The "silence" penalty at the small-p edge only appears once
        # n * p << 1 (with n * p around 1 the solo round arrives by luck
        # almost immediately), so the full sweep reaches down to
        # p = 0.0001 at n = 512.
        return cls(
            probabilities=[0.0001, 0.001, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75],
            n=512,
            trials=80,
        )


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E9",
        title=TITLE,
        header=["p", "n", "mean_rounds", "median", "p95", "solve_rate"],
    )

    means = {}
    budget = 100 * high_probability_budget(config.n)
    for index, p in enumerate(config.probabilities):
        stats = run_fast_trials(
            UniformDiskFactory(config.n, params),
            p,
            config.trials,
            seed=(config.seed, index),
            max_rounds=budget,
        )
        means[p] = stats.mean_rounds
        result.rows.append(
            [
                p,
                config.n,
                stats.mean_rounds,
                stats.median_rounds,
                stats.percentile(95),
                stats.solve_rate,
            ]
        )

    # Shape checks: the middle of the sweep should beat both extremes.
    probabilities = sorted(means)
    lowest, highest = probabilities[0], probabilities[-1]
    interior_best = min(means[p] for p in probabilities[1:-1])
    result.checks["interior_beats_smallest_p"] = interior_best <= means[lowest]
    result.checks["interior_not_worse_than_largest_p"] = (
        interior_best <= means[highest]
    )
    best_p = min(means, key=means.get)
    result.notes.append(f"best p in sweep: {best_p:g} ({means[best_p]:.1f} rounds)")
    return result
