"""E16 — extension: graceful degradation under external interference.

The model's interference term sums over protocol participants; a real band
also holds transmitters the protocol cannot control. This experiment drops
a jammer into the middle of the deployment and sweeps its power (relative
to the protocol power ``P``) and duty cycle.

Physics of the expected shape: external interference only *suppresses*
receptions, so the knockout dynamic slows smoothly — the algorithm is
never wedged into a wrong state (it has no state beyond active/inactive).
A weak jammer is invisible (nearby links have far stronger signals); past
the point where the jammer's arriving power rivals nearest-neighbor
signals, receptions die and the solve time climbs steeply toward the
no-knockout regime, where only a lucky global solo can end the game.

Claims under test: (1) weak jamming costs at most a small factor over the
clean channel; (2) degradation is monotone in jammer power (up to noise);
(3) an intermittent jammer (duty < 1) hurts no more than a continuous one
of the same power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.deploy.topologies import uniform_disk
from repro.experiments.common import ExperimentResult
from repro.sim.parallel import run_fast_trials
from repro.sinr.channel import SINRChannel
from repro.sinr.jamming import ExternalSource
from repro.sinr.parameters import SINRParameters

TITLE = "graceful degradation under a central jammer (external interference)"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    n: int = 64
    power_factors: List[float] = field(
        default_factory=lambda: [0.0, 10.0, 100.0, 1_000.0, 10_000.0]
    )
    duty_cycles: List[float] = field(default_factory=lambda: [0.5, 1.0])
    trials: int = 20
    p: float = 0.1
    alpha: float = 3.0
    seed: int = 1616
    max_rounds: int = 30_000

    @classmethod
    def quick(cls) -> "Config":
        return cls(
            n=48, power_factors=[0.0, 10.0, 1_000.0], duty_cycles=[1.0], trials=10
        )

    @classmethod
    def full(cls) -> "Config":
        # Strong-jammer trials burn their whole round budget (that is the
        # measurement), so the budget is the dominant cost knob here.
        return cls(n=128, trials=40, max_rounds=10_000)


def _jammed_channel(config: Config, factor: float, duty: float, params):
    """Channel factory: a fresh uniform disk with a central jammer, if any."""

    def build(rng: np.random.Generator) -> SINRChannel:
        positions = uniform_disk(config.n, rng)
        if factor == 0.0:
            return SINRChannel(positions, params=params)
        # Base channel first, to learn the auto-sized power the jammer
        # competes against; offset avoids node co-location.
        base = SINRChannel(positions, params=params)
        centroid = positions.mean(axis=0) + np.asarray([0.31, 0.17])
        jammer = ExternalSource(
            position=(float(centroid[0]), float(centroid[1])),
            power=factor * base.params.power,
            duty_cycle=duty,
        )
        return SINRChannel(positions, params=params, external_sources=[jammer])

    return build


def _trial_rounds(config: Config, factor: float, duty: float, params) -> tuple:
    """(mean rounds counting failures at budget, solve rate)."""
    stats = run_fast_trials(
        _jammed_channel(config, factor, duty, params),
        config.p,
        config.trials,
        # SeedSequence entropy must be integral; quantise the float knobs.
        seed=(config.seed, int(factor * 1000), int(duty * 1000)),
        max_rounds=config.max_rounds,
    )
    total = sum(stats.rounds) + stats.failures * config.max_rounds
    return total / config.trials, stats.solve_rate


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E16",
        title=TITLE,
        header=["power_factor", "duty", "n", "mean_rounds", "solve_rate"],
    )

    continuous: Dict[float, float] = {}
    by_duty: Dict[tuple, float] = {}
    for factor in config.power_factors:
        duties = [1.0] if factor == 0.0 else config.duty_cycles
        for duty in duties:
            mean_rounds, solve_rate = _trial_rounds(config, factor, duty, params)
            by_duty[(factor, duty)] = mean_rounds
            if duty == 1.0:
                continuous[factor] = mean_rounds
            result.rows.append([factor, duty, config.n, mean_rounds, solve_rate])

    factors = sorted(continuous)
    clean = continuous[factors[0]]
    weakest_jam = continuous[factors[1]] if len(factors) > 1 else clean
    result.checks["weak_jamming_is_cheap"] = weakest_jam <= 3.0 * clean + 3.0
    # Monotone degradation with 25% tolerance for trial noise.
    result.checks["degradation_monotone_in_power"] = all(
        continuous[b] >= 0.75 * continuous[a]
        for a, b in zip(factors, factors[1:])
    )
    intermittent_ok = True
    for factor in config.power_factors:
        if factor == 0.0:
            continue
        for duty in config.duty_cycles:
            if duty >= 1.0:
                continue
            if by_duty[(factor, duty)] > 1.5 * by_duty[(factor, 1.0)] + 3.0:
                intermittent_ok = False
    result.checks["intermittent_no_worse_than_continuous"] = intermittent_ok
    result.notes.append(
        "mean rounds by continuous jammer power factor: "
        + ", ".join(f"{f:g}x: {continuous[f]:.1f}" for f in factors)
    )
    return result
