"""E2 — Theorem 1's ``R`` dependence: rounds grow additively with ``log R``.

Workload: exponential-chain deployments, where the number of occupied link
classes — and hence ``log R`` — is an explicit knob while the node count is
held fixed (``num_classes * nodes_per_class = n``). The paper's bound
``O(log n + log R)`` predicts a *linear* dependence of rounds on ``log R``
at fixed ``n``; the worst-case naive analysis it improves on would predict
``log n * log R`` (emptying the classes one at a time).

Claim under test — and an honest caveat. Theorem 1 is an *upper bound*:
``O(log n + log R)``. On the chain workload the measured rounds actually
stay nearly flat in ``log R``, because the exponential separation between
clusters is exactly the geometry in which spatial reuse lets every link
class knock itself out *in parallel* — the algorithm beats its own analysis
here, which is consistent with (and stronger than) the theorem. The checks
therefore assert the upper-bound shape:

1. ``bounded_by_log_sum`` — mean rounds <= C * (log2 n + log2 R) at every
   sweep point, for a small constant ``C``;
2. ``beats_naive_product`` — mean rounds stay below the naive
   ``log n * log R`` schedule (emptying classes one at a time), the bound
   the paper's Section 3.2/3.3 machinery exists to beat.

The fitted slope of rounds vs ``log R`` is reported as a note.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import List

import numpy as np

from repro.deploy.metrics import deployment_stats
from repro.deploy.topologies import exponential_chain
from repro.experiments.common import ExperimentResult
from repro.sim.parallel import run_fast_trials
from repro.sinr.channel import SINRChannel
from repro.sinr.parameters import SINRParameters

TITLE = "rounds vs log R at fixed n (exponential-chain deployments)"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    """Parameters for the E2 sweep.

    ``total_nodes`` must be divisible by every entry of ``class_counts``
    (and the quotient must be even) so ``n`` is truly fixed across the
    sweep.
    """

    class_counts: List[int] = field(default_factory=lambda: [2, 4, 8, 16])
    total_nodes: int = 64
    trials: int = 30
    p: float = 0.1
    alpha: float = 3.0
    seed: int = 202
    max_rounds: int = 20_000

    @classmethod
    def quick(cls) -> "Config":
        return cls(class_counts=[2, 4, 8], total_nodes=32, trials=10)

    @classmethod
    def full(cls) -> "Config":
        return cls(class_counts=[2, 4, 8, 16, 32], total_nodes=128, trials=80)


def run(config: Config) -> ExperimentResult:
    """Execute the sweep and fit rounds against ``log R``."""
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E2",
        title=TITLE,
        header=[
            "classes",
            "n",
            "log2R",
            "mean_rounds",
            "p95",
            "solve_rate",
            "naive_logn_logR",
        ],
    )

    log_rs: List[float] = []
    means: List[float] = []
    below_naive = True
    bounded = True
    bound_constant = 4.0
    for classes in config.class_counts:
        per_class = config.total_nodes // classes
        if per_class * classes != config.total_nodes or per_class % 2 != 0:
            raise ValueError(
                f"total_nodes={config.total_nodes} must split evenly (even "
                f"quotient) across {classes} classes"
            )
        positions = exponential_chain(classes, nodes_per_class=per_class)
        stats_geom = deployment_stats(positions)
        channel = SINRChannel(positions, params=params)
        stats = run_fast_trials(
            lambda rng, channel=channel: channel,
            config.p,
            config.trials,
            seed=(config.seed, classes),
            max_rounds=config.max_rounds,
        )
        log_rs.append(stats_geom.log_link_ratio)
        means.append(stats.mean_rounds)
        log_n = math.log2(config.total_nodes)
        naive = log_n * max(stats_geom.log_link_ratio, 1.0)
        if stats.mean_rounds > bound_constant * (log_n + stats_geom.log_link_ratio):
            bounded = False
        if stats.mean_rounds > naive:
            below_naive = False
        result.rows.append(
            [
                classes,
                config.total_nodes,
                stats_geom.log_link_ratio,
                stats.mean_rounds,
                stats.percentile(95),
                stats.solve_rate,
                naive,
            ]
        )

    # Linear fit of mean rounds against log R.
    x = np.asarray(log_rs)
    y = np.asarray(means)
    design = np.column_stack((x, np.ones_like(x)))
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    predicted = design @ coeffs
    total_ss = float(((y - y.mean()) ** 2).sum())
    rss = float(((y - predicted) ** 2).sum())
    r_squared = 1.0 - rss / total_ss if total_ss > 0 else 1.0

    result.checks["bounded_by_log_sum"] = bounded
    result.checks["beats_naive_product"] = below_naive
    result.notes.append(
        f"upper bound tested: rounds <= {bound_constant:g} * (log2 n + log2 R)"
    )
    result.notes.append(
        f"rounds ~= {slope:.3g} * log2(R) + {intercept:.3g} (R^2={r_squared:.4f}); "
        "near-zero slope means the chain solves its classes in parallel "
        "(spatial reuse), beating the bound's log R term"
    )
    return result
