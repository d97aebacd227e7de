"""E8 — Lemma 14: two-player contention resolution and the reduction.

Two measurements:

* **Two-player failure decay.** With two symmetric players, the best any
  algorithm can do is break symmetry with probability 1/2 per round
  (transmit/listen anti-correlation), so the failure probability within a
  budget ``B`` is at least ``2^-B``; reaching failure probability ``1/k``
  therefore needs ``Omega(log k)`` rounds. We measure the empirical failure
  probability of each protocol as the budget grows and check the geometric
  decay — no protocol beats the ``2^-B`` envelope.
* **The reduction, executed.** :class:`ContentionResolutionPlayer` wraps
  the paper's algorithm (and decay) as a hitting-game player per Lemma 14
  and plays the *adaptive* referee. Every protocol must pay at least
  ``ceil(log2 k)`` proposals — the measured floor that transfers Lemma 13's
  bound to contention resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.hitting.game import AdaptiveReferee, play_hitting_game
from repro.hitting.reduction import ContentionResolutionPlayer
from repro.hitting.two_player import failure_probability_within, two_player_trials
from repro.protocols.decay import DecayProtocol
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.seeding import spawn_generators

TITLE = "two-player CR failure decay and the Lemma 14 reduction"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    budgets: List[int] = field(default_factory=lambda: [1, 2, 4, 8, 16])
    trials: int = 400
    reduction_ks: List[int] = field(default_factory=lambda: [4, 16, 64, 256])
    reduction_trials: int = 10
    seed: int = 808

    @classmethod
    def quick(cls) -> "Config":
        return cls(trials=200, reduction_ks=[4, 16, 64], reduction_trials=5)

    @classmethod
    def full(cls) -> "Config":
        return cls(
            budgets=[1, 2, 4, 8, 16, 32],
            trials=2_000,
            reduction_ks=[4, 16, 64, 256, 1024],
            reduction_trials=25,
        )


def run(config: Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E8",
        title=TITLE,
        header=["measurement", "protocol", "param", "value", "bound", "respects_bound"],
    )

    protocols = [
        ("simple(p=0.5)", FixedProbabilityProtocol(p=0.5)),
        ("simple(p=0.1)", FixedProbabilityProtocol(p=0.1)),
        ("decay", DecayProtocol(size_bound=2)),
    ]

    # Part 1: failure probability within growing budgets.
    envelope_ok = True
    for label, protocol in protocols:
        outcomes = two_player_trials(
            protocol, trials=config.trials, seed=(config.seed, label == "decay"),
            max_rounds=max(config.budgets) * 4 + 64,
        )
        for budget in config.budgets:
            failure = failure_probability_within(outcomes, budget)
            # The information-theoretic envelope: failure >= 2^-budget,
            # up to sampling noise (allow a one-sigma dip below).
            floor = 2.0**-budget
            sigma = math.sqrt(floor * (1 - floor) / config.trials)
            respects = failure >= floor - 3 * sigma - 1e-9
            if not respects:
                envelope_ok = False
            result.rows.append(
                ["failure@budget", label, budget, failure, floor, respects]
            )
    result.checks["no_protocol_beats_half_per_round"] = envelope_ok

    # Part 2: the Lemma 14 reduction against the adaptive referee.
    floor_ok = True
    generators = spawn_generators(
        (config.seed, 2), len(config.reduction_ks) * config.reduction_trials * 2
    )
    gen_index = 0
    for k in config.reduction_ks:
        floor = max(1, math.ceil(math.log2(k)))
        for proto_label, build in (
            ("simple(p=0.5)", lambda: FixedProbabilityProtocol(p=0.5)),
            ("decay", lambda k=k: DecayProtocol(size_bound=k)),
        ):
            rounds = []
            for _ in range(config.reduction_trials):
                rng = generators[gen_index % len(generators)]
                gen_index += 1
                player = ContentionResolutionPlayer(build(), k)
                outcome = play_hitting_game(
                    player, AdaptiveReferee(k), rng, max_rounds=500 * floor + 500
                )
                rounds.append(
                    outcome.rounds_to_win if outcome.won else outcome.proposals_made
                )
            rounds = np.asarray(rounds, dtype=np.float64)
            respects = bool(rounds.min() >= floor)
            if not respects:
                floor_ok = False
            result.rows.append(
                ["reduction-rounds", proto_label, k, float(rounds.mean()), floor, respects]
            )
    result.checks["reduction_respects_log_k_floor"] = floor_ok
    return result
