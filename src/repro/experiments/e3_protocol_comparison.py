"""E3 — the headline comparison: the simple fading algorithm vs everything.

The paper's contribution table in prose form (Section 1):

* the paper's algorithm: ``O(log n + log R)`` on the fading channel, no
  knowledge of ``n``;
* Jurdziński–Stachowiak [6]: ``O(log^2 n / log log n)`` on the fading
  channel, needs ``N``;
* decay [2]: ``Theta(log^2 n)`` in the radio model, needs ``N``;
* slotted ALOHA with a genie ``n``: ``O(log n)`` w.h.p. — the floor;
* pessimistic BEB: no good bound — the cautionary baseline.

Each protocol runs in its natural habitat: SINR channel for the fading
algorithms, the collision channel for decay. Deployments are matched
(same seeds, same uniform disks) for the SINR protocols.

Claims under test: (1) the simple algorithm beats decay at every size;
(2) the *absolute* round gap to decay widens with ``n`` (the ratio
``Theta(log n)`` growth is asymptotic — at simulable sizes decay's
additive constant still dominates its ``log^2`` term, so the measured
ratio can dip before it grows; the widening absolute gap is the
observable footprint); (3) it beats the JS16-style schedule at the
largest size; (4) it stays within a constant factor of genie ALOHA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.common import ExperimentResult
from repro.protocols.aloha import SlottedAlohaProtocol
from repro.protocols.backoff import BinaryExponentialBackoffProtocol
from repro.protocols.decay import DecayProtocol
from repro.protocols.js16 import JurdzinskiStachowiakProtocol
from repro.protocols.simple import FixedProbabilityProtocol
from repro.radio.channel import RadioChannel
from repro.sim.parallel import UniformDiskFactory
from repro.sim.runner import high_probability_budget, run_trials
from repro.sinr.parameters import SINRParameters

TITLE = "protocol comparison across n (fading vs radio baselines)"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    sizes: List[int] = field(default_factory=lambda: [32, 64, 128, 256])
    trials: int = 30
    p: float = 0.1
    alpha: float = 3.0
    seed: int = 303
    include_beb: bool = True

    @classmethod
    def quick(cls) -> "Config":
        return cls(sizes=[32, 128, 512], trials=25)

    @classmethod
    def full(cls) -> "Config":
        return cls(sizes=[32, 64, 128, 256, 512, 1024], trials=60)


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    result = ExperimentResult(
        experiment_id="E3",
        title=TITLE,
        header=["protocol", "channel", "n", "mean_rounds", "p95", "solve_rate"],
    )

    # protocol label -> {n: mean rounds}
    curves: Dict[str, Dict[int, float]] = {}

    def record(label: str, channel_kind: str, n: int, stats) -> None:
        curves.setdefault(label, {})[n] = stats.mean_rounds
        result.rows.append(
            [
                label,
                channel_kind,
                n,
                stats.mean_rounds,
                stats.percentile(95),
                stats.solve_rate,
            ]
        )

    for n in config.sizes:
        budget = 40 * high_probability_budget(n)

        sinr_factory = UniformDiskFactory(n, params)

        def radio_factory(rng, n=n):
            return RadioChannel(n)

        lineup = [
            ("simple", "sinr", FixedProbabilityProtocol(p=config.p), sinr_factory),
            ("js16", "sinr", JurdzinskiStachowiakProtocol(), sinr_factory),
            ("decay", "radio", DecayProtocol(), radio_factory),
            ("decay-sinr", "sinr", DecayProtocol(deactivate_on_receive=True), sinr_factory),
            ("aloha", "radio", SlottedAlohaProtocol(), radio_factory),
        ]
        if config.include_beb:
            lineup.append(
                ("beb", "sinr", BinaryExponentialBackoffProtocol(), sinr_factory)
            )

        for slot, (label, kind, protocol, factory) in enumerate(lineup):
            # Seed by lineup slot, not hash(label): str hashes are salted
            # per process and would break run-to-run determinism.
            stats = run_trials(
                channel_factory=factory,
                protocol=protocol,
                trials=config.trials,
                seed=(config.seed, n, slot),
                max_rounds=budget,
            )
            record(label, kind, n, stats)

    largest = max(config.sizes)
    smallest = min(config.sizes)
    simple = curves["simple"]
    decay = curves["decay"]
    js16 = curves["js16"]
    aloha = curves["aloha"]

    result.checks["simple_beats_decay_everywhere"] = all(
        simple[n] < decay[n] for n in config.sizes
    )
    win_small = decay[smallest] / simple[smallest]
    win_large = decay[largest] / simple[largest]
    gap_small = decay[smallest] - simple[smallest]
    gap_large = decay[largest] - simple[largest]
    result.checks["absolute_gap_to_decay_widens"] = gap_large > gap_small
    result.checks["simple_beats_js16_at_largest_n"] = simple[largest] < js16[largest]
    result.checks["simple_within_constant_of_genie"] = (
        simple[largest] < 25.0 * max(aloha[largest], 1.0)
    )
    result.notes.append(
        f"win factor over decay: {win_small:.2f}x at n={smallest}, "
        f"{win_large:.2f}x at n={largest}; absolute gap "
        f"{gap_small:.1f} -> {gap_large:.1f} rounds"
    )
    result.notes.append(
        f"simple vs js16 at n={largest}: {simple[largest]:.1f} vs {js16[largest]:.1f} rounds"
    )
    return result
