"""E15 — extension: staggered activation (the wake-up flavour, [7]).

The problem statement activates "an unknown subset of nodes" — classically
all at once. The wake-up literature the paper cites ([7]) staggers the
activations adversarially, and crucially denies nodes a global clock: each
node counts rounds from its own activation.

This exposes a structural difference between the contenders:

* the paper's algorithm is **memoryless** — its behaviour in a round does
  not depend on the round number at all, so staggering costs it nothing
  beyond waiting for enough contenders to exist;
* decay's probability sweep depends on phase alignment — with staggered
  local clocks, nodes probe different probabilities in the same round, and
  the "some round has total broadcast probability ~ 1" argument frays.

Workload: ``n`` nodes on a uniform disk; activation times drawn uniformly
from a window ``W`` swept from 0 (simultaneous) to several multiples of
``log n``. Measured: rounds from **round 0** to the solving round (the
solving solo may legitimately occur before the last activation — a lone
early riser transmitting alone among the awake counts, per the problem
definition).

Claims under test: (1) the paper's algorithm always solves, and its
overhead beyond the window (``solved - W``, when positive) stays within a
constant factor of its simultaneous solve time; (2) staggering never
*hurts* it — wide windows actually make the problem easier (an early riser
transmitting alone among the few awake solves it), and a memoryless
protocol collects that win automatically. Decay's rows are reported for
context: its sweep-alignment loss is masked at simulable sizes by the same
early-riser effect, so no decay check is asserted here (its log^2 anchor
lives in E11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.deploy.topologies import uniform_disk
from repro.experiments.common import ExperimentResult
from repro.protocols.decay import DecayProtocol
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.runner import high_probability_budget
from repro.sim.seeding import spawn_generators
from repro.sinr.channel import SINRChannel
from repro.sinr.parameters import SINRParameters

TITLE = "staggered wake-up: local clocks, windowed activation ([7])"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    n: int = 128
    window_multipliers: List[float] = field(default_factory=lambda: [0.0, 1.0, 4.0, 16.0])
    trials: int = 25
    p: float = 0.1
    alpha: float = 3.0
    seed: int = 1515

    @classmethod
    def quick(cls) -> "Config":
        return cls(n=64, window_multipliers=[0.0, 2.0, 8.0], trials=12)

    @classmethod
    def full(cls) -> "Config":
        return cls(n=256, trials=80)


def _run_batch(
    protocol_factory,
    positions_seed,
    config: Config,
    window: int,
    params: SINRParameters,
) -> List[int]:
    """Solve rounds (from round 0) over trials for one window size."""
    rounds: List[int] = []
    budget = window + 100 * high_probability_budget(config.n)
    generators = spawn_generators(positions_seed, 3 * config.trials)
    for trial in range(config.trials):
        deploy_rng = generators[3 * trial]
        schedule_rng = generators[3 * trial + 1]
        run_rng = generators[3 * trial + 2]
        positions = uniform_disk(config.n, deploy_rng)
        channel = SINRChannel(positions, params=params)
        if window == 0:
            schedule = None
        else:
            schedule = schedule_rng.integers(0, window + 1, size=config.n).tolist()
        trace = Simulation(
            channel,
            protocol_factory,
            rng=run_rng,
            max_rounds=budget,
            keep_records=False,
            activation_schedule=schedule,
        ).run()
        rounds.append(trace.rounds_to_solve if trace.solved else budget)
    return rounds


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    log_n = math.log2(config.n)
    result = ExperimentResult(
        experiment_id="E15",
        title=TITLE,
        header=[
            "protocol",
            "n",
            "window_W",
            "mean_rounds",
            "p95",
            "mean_overhead_past_W",
        ],
    )

    overhead_by_protocol: Dict[str, List[float]] = {}
    means: Dict[str, Dict[int, float]] = {}
    for proto_index, (label, factory) in enumerate(
        (
            ("simple", FixedProbabilityProtocol(p=config.p)),
            ("decay", DecayProtocol(size_bound=config.n, deactivate_on_receive=True)),
        )
    ):
        for multiplier in config.window_multipliers:
            window = int(round(multiplier * log_n))
            rounds = _run_batch(
                factory, (config.seed, proto_index, window), config, window, params
            )
            rounds_arr = np.asarray(rounds, dtype=np.float64)
            overhead = np.maximum(rounds_arr - window, 0.0)
            overhead_by_protocol.setdefault(label, []).append(float(overhead.mean()))
            means.setdefault(label, {})[window] = float(rounds_arr.mean())
            result.rows.append(
                [
                    label,
                    config.n,
                    window,
                    float(rounds_arr.mean()),
                    float(np.percentile(rounds_arr, 95)),
                    float(overhead.mean()),
                ]
            )

    simple_overheads = overhead_by_protocol["simple"]
    simultaneous = simple_overheads[0]
    result.checks["simple_overhead_stays_bounded"] = all(
        overhead <= 4.0 * simultaneous + 4.0 for overhead in simple_overheads
    )
    simultaneous_mean = means["simple"][0]
    result.checks["staggering_never_hurts_simple"] = all(
        mean <= 2.0 * simultaneous_mean + 2.0 for mean in means["simple"].values()
    )
    result.notes.append(
        "simple mean overhead past window: "
        + ", ".join(f"{o:.1f}" for o in simple_overheads)
    )
    return result
