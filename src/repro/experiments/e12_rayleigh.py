"""E12 — extension: the simple algorithm under Rayleigh fading.

The paper analyses the deterministic path-loss channel; real fading
channels add per-round multipath variation, standardly modelled as
Rayleigh fading (unit-mean exponential power gains, fresh every round).
The paper's algorithm uses no channel-state information at all, so it runs
unmodified — the question is whether its ``O(log n)`` behaviour survives
the gain randomness.

Both channels run on the vectorised fast path (``repro.sim.fast``), which
draws a faded round's multipliers inside the channel's one decode, in
the order the generic engine would; the deterministic rows are the
engine's to the bit.

Expected shape: solve times remain logarithmic in ``n`` and within a small
constant factor of the deterministic channel. (Intuition: fading hurts some
receptions and helps others; the knockout dynamic only needs *many*
listeners to decode *someone*, which fading randomises but does not
suppress.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.fits import fit_models
from repro.deploy.topologies import uniform_disk
from repro.experiments.common import ExperimentResult
from repro.sim.parallel import run_fast_trials
from repro.sim.runner import high_probability_budget
from repro.sinr.channel import SINRChannel
from repro.sinr.fading import RayleighFading
from repro.sinr.parameters import SINRParameters

TITLE = "robustness: Rayleigh fading vs deterministic path loss"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    sizes: List[int] = field(default_factory=lambda: [32, 64, 128, 256])
    trials: int = 30
    p: float = 0.1
    alpha: float = 3.0
    seed: int = 1212

    @classmethod
    def quick(cls) -> "Config":
        return cls(sizes=[32, 64, 128, 256], trials=15)

    @classmethod
    def full(cls) -> "Config":
        return cls(sizes=[32, 64, 128, 256, 512], trials=80)


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E12",
        title=TITLE,
        header=["channel", "n", "mean_rounds", "p95", "solve_rate"],
    )

    curves: Dict[str, List[float]] = {"deterministic": [], "rayleigh": []}
    for n in config.sizes:
        budget = 40 * high_probability_budget(n)
        for label, gain_model in (
            ("deterministic", None),
            ("rayleigh", RayleighFading()),
        ):
            stats = run_fast_trials(
                channel_factory=lambda rng, n=n, gm=gain_model: SINRChannel(
                    uniform_disk(n, rng), params=params, gain_model=gm
                ),
                p=config.p,
                trials=config.trials,
                seed=(config.seed, n, label == "rayleigh"),
                max_rounds=budget,
            )
            curves[label].append(stats.mean_rounds)
            result.rows.append(
                [label, n, stats.mean_rounds, stats.percentile(95), stats.solve_rate]
            )

    # The robustness claim: fading must not break the algorithm (every
    # trial solves) nor slow it beyond a small constant factor of the
    # deterministic channel. Growth-law discrimination belongs to E1; at
    # these means the two channels' curves are statistically identical, so
    # the fit is reported as a note only.
    result.checks["rayleigh_always_solves"] = all(
        row[4] == 1.0 for row in result.rows if row[0] == "rayleigh"
    )
    ratio = max(
        ray / max(det, 1.0)
        for ray, det in zip(curves["rayleigh"], curves["deterministic"])
    )
    result.checks["rayleigh_within_small_factor"] = ratio < 5.0
    result.notes.append(f"worst rayleigh/deterministic mean-round ratio: {ratio:.2f}")
    fits = fit_models(config.sizes, curves["rayleigh"], laws=("log", "log2"))
    result.notes.append(f"rayleigh fit {fits['log']}")
    return result
