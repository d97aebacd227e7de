"""E18 — the oblivious-schedule family: what knowledge and fading buy.

The paper's algorithm, decay, and sawtooth backoff are all *oblivious
probability schedules* — a node's transmit probability depends only on its
local round number. They differ in exactly two resources:

* **knowledge of ``n``**: decay needs an upper bound ``N``; sawtooth and
  the paper's algorithm do not;
* **the channel**: the paper's algorithm additionally exploits fading
  (knockouts); the other two are analysed on the collision channel.

Lining the three up isolates each resource's worth:

| schedule | knows n | channel | expected shape |
|---|---|---|---|
| sawtooth | no | radio | ``Θ(n)`` — doubling windows pay their length |
| decay | yes | radio | ``Θ(log n)`` mean |
| simple | no | SINR | ``Θ(log n)`` mean |

Claims under test: (1) sawtooth's growth is superlogarithmic — knowledge-
free schedules on a collision channel pay linear time; (2) decay buys the
exponential improvement with its size bound; (3) the paper's algorithm
matches decay's order *without* the size bound, paying with the channel
instead — the cleanest statement of what fading is worth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.common import ExperimentResult
from repro.protocols.decay import DecayProtocol
from repro.protocols.sawtooth import SawtoothBackoffProtocol
from repro.radio.channel import RadioChannel
from repro.sim.parallel import UniformDiskFactory, run_fast_trials
from repro.sim.runner import run_trials
from repro.sinr.parameters import SINRParameters

TITLE = "oblivious schedules: sawtooth vs decay vs the paper's algorithm"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    sizes: List[int] = field(default_factory=lambda: [8, 16, 32, 64, 128])
    trials: int = 30
    p: float = 0.1
    alpha: float = 3.0
    seed: int = 1818
    max_rounds: int = 200_000

    @classmethod
    def quick(cls) -> "Config":
        return cls(sizes=[8, 16, 32, 64], trials=15)

    @classmethod
    def full(cls) -> "Config":
        return cls(sizes=[8, 16, 32, 64, 128, 256], trials=60)


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E18",
        title=TITLE,
        header=["schedule", "knows_n", "channel", "n", "mean_rounds", "solve_rate"],
    )

    curves: Dict[str, List[float]] = {"sawtooth": [], "decay": [], "simple": []}
    for n in config.sizes:
        lineup = []
        for slot, (label, protocol) in enumerate(
            (("sawtooth", SawtoothBackoffProtocol()), ("decay", DecayProtocol()))
        ):
            stats = run_trials(
                channel_factory=lambda rng, n=n: RadioChannel(n),
                protocol=protocol,
                trials=config.trials,
                seed=(config.seed, n, slot),
                max_rounds=config.max_rounds,
            )
            lineup.append((label, protocol.knows_network_size, "radio", stats))
        # The paper's algorithm, which needs no bound on n, takes the fast path.
        stats = run_fast_trials(
            UniformDiskFactory(n, params),
            config.p,
            config.trials,
            seed=(config.seed, n, 2),
            max_rounds=config.max_rounds,
        )
        lineup.append(("simple", False, "sinr", stats))
        for label, knows_n, channel_kind, stats in lineup:
            curves[label].append(stats.mean_rounds)
            result.rows.append(
                [label, knows_n, channel_kind, n, stats.mean_rounds, stats.solve_rate]
            )

    # Law discrimination by fit: sawtooth's per-doubling increments grow
    # geometrically (linear law), the other two's stay flat (log law) —
    # end-to-end growth ratios are blunted at these sizes by sawtooth's
    # small constant (~n/4), so fits are the decisive statistic here.
    from repro.analysis.fits import best_fit

    saw_law = best_fit(config.sizes, curves["sawtooth"], laws=("log", "linear")).law
    decay_law = best_fit(config.sizes, curves["decay"], laws=("log", "linear")).law

    result.checks["sawtooth_pays_superlogarithmic_time"] = saw_law == "linear"
    result.checks["decay_buys_log_with_knowledge"] = decay_law == "log"
    # The simple curve is too flat over this (deliberately small) range to
    # classify by fit — its growth law is E1's and E17's business. What
    # this lineup can check is relative: the knowledge-free fading
    # algorithm grows no faster than decay and strictly slower than the
    # knowledge-free collision-channel alternative.
    saw_growth = curves["sawtooth"][-1] / curves["sawtooth"][0]
    decay_growth = curves["decay"][-1] / curves["decay"][0]
    simple_growth = curves["simple"][-1] / curves["simple"][0]
    result.checks["simple_matches_decay_order_without_knowledge"] = (
        simple_growth <= decay_growth * 1.25 + 0.25
    )
    result.checks["simple_beats_sawtooth_at_largest_n"] = (
        curves["simple"][-1] < curves["sawtooth"][-1]
    )
    result.notes.append(
        f"best-fit laws: sawtooth={saw_law}, decay={decay_law}; growth "
        f"ratios: sawtooth {saw_growth:.1f}x, decay {decay_growth:.1f}x, "
        f"simple {simple_growth:.1f}x"
    )
    result.notes.append(
        "mean rounds at largest n: sawtooth "
        f"{curves['sawtooth'][-1]:.1f}, decay {curves['decay'][-1]:.1f}, "
        f"simple {curves['simple'][-1]:.1f}"
    )
    return result
