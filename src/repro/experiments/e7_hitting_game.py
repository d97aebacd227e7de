"""E7 — Lemma 13: the restricted k-hitting game costs ``Theta(log k)``.

Three measurements pin the bound from both sides:

* **Adaptive floor.** Against the lazy adaptive referee, *no* player can
  win in fewer than ``ceil(log2 k)`` rounds (a proposal at most doubles
  the number of consistent groups). We verify the bit-splitting player
  meets this floor exactly — upper and lower bound coincide.
* **Randomised player.** Against a *fixed* random target the uniform
  1/2-subset player wins each round with probability exactly 1/2, so its
  winning time is geometric and independent of ``k`` — we report it but
  the ``log k`` growth is not there. The growth lives where Lemma 13 puts
  it: in driving the *failure* probability down to ``1/k`` (the w.h.p.
  requirement), equivalently in beating the adaptive referee, who only
  concedes once all ``~k^2/2`` candidate pairs are split (``~2 log2 k``
  expected rounds for this player). We measure the adaptive game and fit
  its mean against ``log2 k``.
* **Anti-baseline.** The singleton player needs ``Theta(k)`` expected
  rounds — the exponential separation that makes Lemma 13 meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.fits import fit_models
from repro.experiments.common import ExperimentResult
from repro.hitting.game import AdaptiveReferee, FixedTargetReferee, play_hitting_game
from repro.hitting.players import (
    BitSplittingPlayer,
    SingletonPlayer,
    UniformSubsetPlayer,
)
from repro.sim.seeding import spawn_generators

TITLE = "restricted k-hitting game: Theta(log k) from both sides (Lemma 13)"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    ks: List[int] = field(default_factory=lambda: [4, 16, 64, 256, 1024])
    trials: int = 40
    seed: int = 707

    @classmethod
    def quick(cls) -> "Config":
        return cls(ks=[4, 16, 64, 256], trials=15)

    @classmethod
    def full(cls) -> "Config":
        return cls(ks=[4, 16, 64, 256, 1024, 4096], trials=100)


def run(config: Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E7",
        title=TITLE,
        header=["player", "referee", "k", "ceil_log2_k", "mean_rounds", "p95"],
    )

    bit_exact = True
    uniform_adaptive_means: List[float] = []
    singleton_means: List[float] = []

    generators = spawn_generators(config.seed, 3 * len(config.ks) * config.trials)
    gen_index = 0
    for k in config.ks:
        floor = max(1, math.ceil(math.log2(k)))

        # Bit-splitting vs the adaptive referee: deterministic, one play.
        rng = generators[gen_index]
        bit_result = play_hitting_game(
            BitSplittingPlayer(k), AdaptiveReferee(k), rng, max_rounds=4 * k
        )
        if bit_result.rounds_to_win != floor:
            bit_exact = False
        result.rows.append(
            ["bit-splitting", "adaptive", k, floor, float(bit_result.rounds_to_win), float(bit_result.rounds_to_win)]
        )

        uniform_fixed_rounds = []
        uniform_adaptive_rounds = []
        singleton_rounds = []
        for _ in range(config.trials):
            rng_u = generators[gen_index]
            rng_a = generators[gen_index + 1]
            rng_s = generators[gen_index + 2]
            gen_index += 3
            referee = FixedTargetReferee.random(k, rng_u)
            outcome = play_hitting_game(
                UniformSubsetPlayer(k), referee, rng_u, max_rounds=64 * floor + 64
            )
            uniform_fixed_rounds.append(
                outcome.rounds_to_win if outcome.won else outcome.proposals_made
            )
            outcome_a = play_hitting_game(
                UniformSubsetPlayer(k),
                AdaptiveReferee(k),
                rng_a,
                max_rounds=64 * floor + 64,
            )
            uniform_adaptive_rounds.append(
                outcome_a.rounds_to_win if outcome_a.won else outcome_a.proposals_made
            )
            referee_s = FixedTargetReferee.random(k, rng_s)
            outcome_s = play_hitting_game(
                SingletonPlayer(k), referee_s, rng_s, max_rounds=4 * k
            )
            singleton_rounds.append(
                outcome_s.rounds_to_win if outcome_s.won else outcome_s.proposals_made
            )
        uniform_fixed_rounds = np.asarray(uniform_fixed_rounds, dtype=np.float64)
        uniform_adaptive_rounds = np.asarray(uniform_adaptive_rounds, dtype=np.float64)
        singleton_rounds = np.asarray(singleton_rounds, dtype=np.float64)
        uniform_adaptive_means.append(float(uniform_adaptive_rounds.mean()))
        singleton_means.append(float(singleton_rounds.mean()))
        result.rows.append(
            [
                "uniform-1/2",
                "fixed-random",
                k,
                floor,
                float(uniform_fixed_rounds.mean()),
                float(np.percentile(uniform_fixed_rounds, 95)),
            ]
        )
        result.rows.append(
            [
                "uniform-1/2",
                "adaptive",
                k,
                floor,
                float(uniform_adaptive_rounds.mean()),
                float(np.percentile(uniform_adaptive_rounds, 95)),
            ]
        )
        result.rows.append(
            [
                "singleton",
                "fixed-random",
                k,
                floor,
                float(singleton_rounds.mean()),
                float(np.percentile(singleton_rounds, 95)),
            ]
        )

    result.checks["bit_player_meets_adaptive_floor_exactly"] = bit_exact

    fits = fit_models(config.ks, uniform_adaptive_means, laws=("log", "linear"))
    result.checks["uniform_adaptive_is_logarithmic"] = (
        fits["log"].aic <= fits["linear"].aic
    )
    result.notes.append(
        f"uniform vs adaptive mean fit {fits['log']} (theory: ~2 log2 k)"
    )

    fits_single = fit_models(config.ks, singleton_means, laws=("log", "linear"))
    result.checks["singleton_player_is_linear"] = (
        fits_single["linear"].aic <= fits_single["log"].aic
    )
    result.notes.append(f"singleton mean fit {fits_single['linear']}")
    return result
