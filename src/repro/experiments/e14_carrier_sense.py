"""E14 — extension: tunable carrier sensing on the fading channel ([22]).

The paper's related work notes that *tunable carrier sensing* — a
generalisation of receiver collision detection — can beat the plain
radio-model bounds. Our carrier-sense tournament uses the SINR channel's
energy measurements: a listener that senses above-threshold energy but
decodes nothing has proof of a collision and concedes.

Claims under test:

1. the carrier-sense tournament's rounds grow as ``log n`` (and stay below
   decay's), like the CD tournament it generalises;
2. it is insensitive to ``R``: on exponential-chain deployments its rounds
   barely move as ``log R`` grows at fixed ``n`` — whereas the paper's own
   algorithm carries a (theoretical) ``log R`` term;
3. it is competitive with the paper's algorithm on uniform deployments,
   despite using strictly more hardware capability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.deploy.metrics import deployment_stats
from repro.deploy.topologies import exponential_chain, uniform_disk
from repro.experiments.common import ExperimentResult
from repro.protocols.carrier_sense import (
    CarrierSenseTournamentProtocol,
    carrier_sense_threshold,
)
from repro.sim.parallel import run_fast_trials
from repro.sim.runner import high_probability_budget, run_trials
from repro.sinr.channel import SINRChannel
from repro.sinr.parameters import SINRParameters

TITLE = "carrier-sense tournament on the SINR channel (extension, [22])"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    sizes: List[int] = field(default_factory=lambda: [32, 64, 128, 256])
    chain_classes: List[int] = field(default_factory=lambda: [2, 4, 8])
    chain_total: int = 32
    trials: int = 25
    alpha: float = 3.0
    seed: int = 1414

    @classmethod
    def quick(cls) -> "Config":
        return cls(sizes=[32, 64, 128], trials=12)

    @classmethod
    def full(cls) -> "Config":
        return cls(
            sizes=[32, 64, 128, 256, 512],
            chain_classes=[2, 4, 8, 16],
            chain_total=64,
            trials=60,
        )


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E14",
        title=TITLE,
        header=["workload", "protocol", "n", "log2R", "mean_rounds", "p95", "solve_rate"],
    )

    # Part 1: n sweep on uniform disks, carrier-sense vs the paper's
    # algorithm. The channel (and hence the threshold) is fixed per size by
    # sampling one deployment; trials vary the protocol randomness only,
    # keeping the threshold honest (hardware sensitivity does not resample
    # itself per boot).
    cs_means: List[float] = []
    simple_means: List[float] = []
    from repro.sim.seeding import generator_from

    for n in config.sizes:
        budget = 40 * high_probability_budget(n)
        positions = uniform_disk(n, generator_from((config.seed, n)))
        channel = SINRChannel(positions, params=params)
        stats_geom = deployment_stats(positions)
        cs_stats = run_trials(
            channel_factory=lambda rng, channel=channel: channel,
            protocol=CarrierSenseTournamentProtocol(carrier_sense_threshold(channel)),
            trials=config.trials,
            seed=(config.seed, n, False),
            max_rounds=budget,
        )
        simple_stats = run_fast_trials(
            lambda rng, channel=channel: channel,
            0.1,
            config.trials,
            seed=(config.seed, n, True),
            max_rounds=budget,
        )
        cs_means.append(cs_stats.mean_rounds)
        simple_means.append(simple_stats.mean_rounds)
        for label, stats in (("carrier-sense", cs_stats), ("simple", simple_stats)):
            result.rows.append(
                [
                    "uniform",
                    label,
                    n,
                    stats_geom.log_link_ratio,
                    stats.mean_rounds,
                    stats.percentile(95),
                    stats.solve_rate,
                ]
            )

    # Part 2: R sweep on chains at fixed n.
    chain_means: List[float] = []
    for classes in config.chain_classes:
        per_class = config.chain_total // classes
        if per_class % 2 == 1:
            per_class += 1
        positions = exponential_chain(classes, nodes_per_class=max(2, per_class))
        channel = SINRChannel(positions, params=params)
        stats_geom = deployment_stats(positions)
        threshold = carrier_sense_threshold(channel)
        stats = run_trials(
            channel_factory=lambda rng, channel=channel: channel,
            protocol=CarrierSenseTournamentProtocol(threshold),
            trials=config.trials,
            seed=(config.seed, 99, classes),
            max_rounds=40 * high_probability_budget(positions.shape[0]),
        )
        chain_means.append(stats.mean_rounds)
        result.rows.append(
            [
                "chain",
                "carrier-sense",
                positions.shape[0],
                stats_geom.log_link_ratio,
                stats.mean_rounds,
                stats.percentile(95),
                stats.solve_rate,
            ]
        )

    # Shape checks.
    import math

    n0, n1 = config.sizes[0], config.sizes[-1]
    growth = cs_means[-1] / cs_means[0]
    log_ratio = math.log2(n1) / math.log2(n0)
    result.checks["logarithmic_growth_in_n"] = growth < log_ratio**1.5
    result.checks["r_insensitive_on_chains"] = (
        max(chain_means) <= 2.5 * min(chain_means)
    )
    result.checks["competitive_with_simple"] = all(
        cs <= 4.0 * simple for cs, simple in zip(cs_means, simple_means)
    )
    result.notes.append(
        "carrier-sense mean rounds by n: "
        + ", ".join(f"{n}: {m:.1f}" for n, m in zip(config.sizes, cs_means))
    )
    result.notes.append(
        "chain means across log R: "
        + ", ".join(f"{m:.1f}" for m in chain_means)
    )
    return result
