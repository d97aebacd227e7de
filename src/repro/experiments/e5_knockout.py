"""E5 — Corollary 7: dominant classes lose a constant fraction per round.

Corollary 7: there exist constants ``p``, ``delta``, ``c`` such that for
every link class ``d_i`` with ``V_i`` non-empty and ``n_{<i} <= delta n_i``,
with probability at least ``1 - e^{-c |V_i|}`` a constant fraction of
``V_i`` becomes inactive in a single round.

Workload: fresh single rounds of the paper's algorithm on deployments with
a dominant class (uniform disk and clustered). For each trial we run
exactly one round, identify the dominant class beforehand, and measure the
fraction of its members knocked out.

Claims under test: (1) the mean single-round knockout fraction of the
dominant class is bounded away from zero; (2) the *failure* events (rounds
knocking out less than a small fraction) become rarer as the class grows —
the ``e^{-c n_i}`` shape, checked as monotone non-increasing failure rate
along the size sweep (with tolerance for sampling noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.linkclasses import link_class_partition
from repro.deploy.topologies import uniform_disk
from repro.experiments.common import ExperimentResult
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.seeding import spawn_generators
from repro.sinr.channel import SINRChannel
from repro.sinr.parameters import SINRParameters

TITLE = "single-round knockout fraction of the dominant link class (Cor. 7)"

__all__ = ["Config", "run", "TITLE"]

#: A round "fails" when it knocks out less than this fraction of the class.
FAILURE_FRACTION = 0.05


@dataclass
class Config:
    sizes: List[int] = field(default_factory=lambda: [32, 64, 128, 256])
    trials: int = 40
    p: float = 0.1
    alpha: float = 3.0
    seed: int = 505

    @classmethod
    def quick(cls) -> "Config":
        return cls(sizes=[32, 64, 128], trials=15)

    @classmethod
    def full(cls) -> "Config":
        return cls(sizes=[32, 64, 128, 256, 512], trials=120)


def _single_round_knockout(positions, params, p, rng) -> float:
    """Run exactly one round; return the dominant class's knockout fraction."""
    partition = link_class_partition(positions)
    dominant = max(partition.occupied, key=partition.size)
    members = set(partition.members[dominant])

    channel = SINRChannel(positions, params=params)
    protocol = FixedProbabilityProtocol(p=p)
    simulation = Simulation(channel, protocol, rng=rng, max_rounds=1, keep_records=True)
    trace = simulation.run()
    knocked = set(trace.records[0].knocked_out) if trace.records else set()
    if not members:
        return float("nan")
    return len(knocked & members) / len(members)


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E5",
        title=TITLE,
        header=["n", "trials", "mean_knockout_frac", "min", "failure_rate"],
    )

    failure_rates: List[float] = []
    mean_fracs: List[float] = []
    generators = spawn_generators(config.seed, 2 * len(config.sizes) * config.trials)
    gen_index = 0
    for n in config.sizes:
        fractions = []
        for _ in range(config.trials):
            deploy_rng = generators[gen_index]
            round_rng = generators[gen_index + 1]
            gen_index += 2
            positions = uniform_disk(n, deploy_rng)
            fractions.append(
                _single_round_knockout(positions, params, config.p, round_rng)
            )
        fractions = np.asarray(fractions)
        failure_rate = float((fractions < FAILURE_FRACTION).mean())
        failure_rates.append(failure_rate)
        mean_fracs.append(float(fractions.mean()))
        result.rows.append(
            [n, config.trials, float(fractions.mean()), float(fractions.min()), failure_rate]
        )

    result.checks["constant_fraction_knockout"] = all(f > 0.1 for f in mean_fracs)
    # e^{-c n_i} shape: failure rates should not grow with size (tolerate
    # one small inversion from sampling noise).
    inversions = sum(
        1
        for a, b in zip(failure_rates, failure_rates[1:])
        if b > a + 0.1
    )
    result.checks["failure_rate_shrinks_with_size"] = inversions == 0
    result.notes.append(
        "mean knockout fractions: "
        + ", ".join(f"n={n}: {f:.2f}" for n, f in zip(config.sizes, mean_fracs))
    )
    return result
