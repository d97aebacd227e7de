"""E1 — Theorem 1's ``n`` dependence: rounds grow as ``log n``, not ``log^2 n``.

Workload: uniform-disk deployments at constant density (so ``R`` stays
polynomial in ``n`` — the footnote-1 regime), swept over ``n``. For each
size we run many independent trials of the paper's algorithm and record the
mean and 95th-percentile solving round.

Claim under test: the end-to-end growth *ratio* of the measured rounds
tracks the ``log n`` prediction, not the ``log^2 n`` prediction. Concretely,
with baseline size ``n_0`` (the second entry of the sweep — the smallest
size carries a constant "wait for any transmission" floor that pollutes
ratios) and top size ``n_1``:

    measured_ratio = rounds(n_1) / rounds(n_0)

must fall below the geometric mean of ``log2(n_1)/log2(n_0)`` and
``(log2(n_1)/log2(n_0))^2`` — i.e. strictly closer to the log prediction.
Both candidate laws are also least-squares fitted and reported as notes
(the AIC comparison is too fragile at these sample sizes to gate on).

Execution note: the sweep runs through ``run_fast_trials`` — for the
paper's fixed-``p`` algorithm on a deterministic SINR channel the fast
path consumes the identical coin-flip stream and computes the identical
decode as ``FixedProbabilityProtocol`` through the generic engine, so
every number here is **bit-identical** to the engine runs this
experiment previously performed (pinned by
``tests/test_fast_path.py::TestEngineExactParity``). The switch makes
the sweep honour the CLI's ``--workers`` sharding
(docs/parallelism.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.analysis.fits import fit_models
from repro.experiments.common import ExperimentResult
from repro.sim.parallel import UniformDiskFactory, run_fast_trials
from repro.sim.runner import high_probability_budget
from repro.sinr.parameters import SINRParameters

TITLE = "rounds vs n for the paper's algorithm (uniform disk, fixed density)"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    """Parameters for the E1 sweep."""

    sizes: List[int] = field(default_factory=lambda: [16, 32, 64, 128, 256, 512])
    trials: int = 40
    p: float = 0.1
    alpha: float = 3.0
    seed: int = 101

    @classmethod
    def quick(cls) -> "Config":
        """CI-sized preset (~seconds).

        Distinguishing ``log`` from ``log^2`` growth needs both a wide
        ``n`` range and enough trials to tame the heavy-tailed round
        distribution; smaller presets produce fits dominated by noise.
        """
        return cls(sizes=[16, 32, 64, 128, 256, 512], trials=40)

    @classmethod
    def full(cls) -> "Config":
        """Measurement preset (~minutes)."""
        return cls(sizes=[16, 32, 64, 128, 256, 512, 1024], trials=150)


def run(config: Config) -> ExperimentResult:
    """Execute the sweep and fit scaling laws."""
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E1",
        title=TITLE,
        header=["n", "trials", "mean_rounds", "median", "p95", "max", "solve_rate"],
    )

    means: List[float] = []
    p95s: List[float] = []
    for n in config.sizes:
        stats = run_fast_trials(
            channel_factory=UniformDiskFactory(n, params),
            p=config.p,
            trials=config.trials,
            seed=(config.seed, n),
            max_rounds=high_probability_budget(n),
        )
        means.append(stats.mean_rounds)
        p95s.append(stats.percentile(95))
        result.add_timing(f"n={n}", stats.total_wall_time, stats.rounds_per_second)
        result.rows.append(
            [
                n,
                stats.trials,
                stats.mean_rounds,
                stats.median_rounds,
                stats.percentile(95),
                stats.max_rounds,
                stats.solve_rate,
            ]
        )

    if len(config.sizes) < 3:
        raise ValueError("the sweep needs at least 3 sizes")
    baseline_index = 1  # skip the smallest size's constant floor
    n0, n1 = config.sizes[baseline_index], config.sizes[-1]
    log_ratio = math.log2(n1) / math.log2(n0)
    log2_ratio = log_ratio**2
    threshold = math.sqrt(log_ratio * log2_ratio)

    for label, series in (("mean", means), ("p95", p95s)):
        measured_ratio = series[-1] / series[baseline_index]
        result.checks[f"{label}_growth_closer_to_log"] = measured_ratio < threshold
        result.notes.append(
            f"{label} growth ratio n={n0}->n={n1}: measured {measured_ratio:.2f} "
            f"vs log {log_ratio:.2f} / log^2 {log2_ratio:.2f} "
            f"(threshold {threshold:.2f})"
        )
        fits = fit_models(config.sizes, series, laws=("log", "log2"))
        result.notes.append(f"{label} fit {fits['log']}")
        result.notes.append(f"{label} fit {fits['log2']}")
    return result
