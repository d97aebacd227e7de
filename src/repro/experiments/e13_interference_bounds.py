"""E13 — the Section 3.2 interference bounds, checked numerically.

The upper-bound proof never runs the algorithm; it bounds interference on
the well-separated good set ``S_i`` and lets Chernoff do the rest. This
experiment re-derives those bounds on concrete deployments:

* **Claim 1**: the collective interference on ``S_i`` — even if *every*
  other node transmits simultaneously — stays below
  ``c_max |S_i| P / 2^{i alpha}``.
* **Claim 2**: no single outside node generates more than
  ``c_max P / 2^{i alpha}`` across ``S_i``.
* **Lemma 4**: the separation/interference trade-off ``c = 96 g / s^eps``.
  The paper picks a tiny target ``c`` and derives an enormous separation
  ``s(c)``; numerically we go the other way — fix a practical separation
  ``s`` (so ``S_i`` is non-trivial on simulable deployments) and verify the
  in-set interference stays below the *implied* ``c(s) P / 2^{i alpha}``.
  Same inequality, same constants, solved for the measurable regime.

A pass here means the geometric machinery (annulus budgets, packing
constants, the ``epsilon = alpha/2 - 1`` gap) is implemented exactly
strongly enough for the probabilistic part of the proof to go through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.goodness import good_nodes, partner_of, well_separated_subset
from repro.analysis.interference import (
    claim1_bound,
    lemma4_bound,
    lemma4_constant,
    total_interference_on_set,
)
from repro.analysis.linkclasses import link_class_partition
from repro.deploy.topologies import clustered, grid, uniform_disk
from repro.experiments.common import ExperimentResult
from repro.sim.seeding import spawn_generators
from repro.sinr.channel import SINRChannel
from repro.sinr.geometry import pairwise_distances
from repro.sinr.parameters import SINRParameters

TITLE = "interference bounds on S_i (Claims 1-2, Lemma 4)"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    sizes: List[int] = field(default_factory=lambda: [64, 128, 256])
    deployments_per_size: int = 3
    alpha: float = 3.0
    #: practical separation constant s; the verified cap is c(s) = 96 g / s^eps
    separation_s: float = 4.0
    seed: int = 1313

    @classmethod
    def quick(cls) -> "Config":
        return cls(sizes=[64, 128], deployments_per_size=2)

    @classmethod
    def full(cls) -> "Config":
        return cls(sizes=[64, 128, 256, 512], deployments_per_size=8)


def _deployments(n: int, rng) -> List[tuple]:
    return [
        ("uniform", uniform_disk(n, rng)),
        ("grid", grid(n)),
        (
            "clustered",
            clustered(max(2, n // 32), min(32, n), rng),
        ),
    ]


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    separation = config.separation_s
    implied_c = lemma4_constant(config.alpha, separation)
    result = ExperimentResult(
        experiment_id="E13",
        title=TITLE,
        header=[
            "deployment",
            "n",
            "class_i",
            "|S_i|",
            "claim1_ratio",
            "claim2_ratio",
            "lemma4_ratio",
        ],
    )
    result.notes.append(
        f"lemma4 trade-off: s = {separation:g} implies c(s) = {implied_c:.1f}"
    )

    claim1_ok = claim2_ok = lemma4_ok = True
    tested = 0
    generators = spawn_generators(
        config.seed, len(config.sizes) * config.deployments_per_size
    )
    gen_index = 0
    for n in config.sizes:
        for _ in range(config.deployments_per_size):
            rng = generators[gen_index]
            gen_index += 1
            for label, positions in _deployments(n, rng):
                distances = pairwise_distances(positions)
                active = np.ones(positions.shape[0], dtype=bool)
                partition = link_class_partition(positions, active)
                channel = SINRChannel(positions, params=params)
                effective = channel.params  # power auto-sized
                gains = channel.base_gains
                unit = partition.unit
                everyone = np.arange(positions.shape[0])

                for class_index in partition.occupied:
                    good = good_nodes(
                        partition, class_index, distances, active, config.alpha
                    )
                    s_i = well_separated_subset(
                        good, class_index, distances, separation, unit=unit
                    )
                    if len(s_i) < 2:
                        continue
                    tested += 1
                    partners = [
                        partner_of(u, distances, active) for u in s_i
                    ]
                    s_and_t = sorted(set(s_i) | {p for p in partners if p is not None})
                    members = np.asarray(s_i, dtype=np.intp)

                    # Claim 1: worst-case collective interference on S_i.
                    measured_total = total_interference_on_set(gains, s_i, everyone)
                    bound_total = claim1_bound(
                        effective, class_index, len(s_i), unit=unit
                    )
                    ratio1 = measured_total / bound_total
                    claim1_ok &= measured_total <= bound_total

                    # Claim 2: the worst single outside generator.
                    outside = np.ones(positions.shape[0], dtype=bool)
                    outside[s_and_t] = False
                    outsiders = everyone[outside]
                    ratio2 = 0.0
                    if outsiders.size:
                        # Each outsider's row sum has the bits of
                        # interference_generated_by's sum over the members.
                        worst = float(
                            gains[np.ix_(outsiders, members)].sum(axis=1).max()
                        )
                        bound_single = claim1_bound(
                            effective, class_index, 1, unit=unit
                        )
                        ratio2 = worst / bound_single
                        claim2_ok &= worst <= bound_single

                    # Lemma 4: in-set interference at each member.
                    bound_in = lemma4_bound(
                        effective, class_index, implied_c, unit=unit
                    )
                    ratio4 = 0.0
                    for u, partner in zip(s_i, partners):
                        sources = [
                            w for w in s_and_t if w not in (u, partner)
                        ]
                        measured_in = sum(gains[w, u] for w in sources)
                        ratio4 = max(ratio4, measured_in / bound_in)
                        lemma4_ok &= measured_in <= bound_in

                    result.rows.append(
                        [label, n, class_index, len(s_i), ratio1, ratio2, ratio4]
                    )

    result.checks["claim1_collective_bound_holds"] = claim1_ok and tested > 0
    result.checks["claim2_single_source_bound_holds"] = claim2_ok and tested > 0
    result.checks["lemma4_in_set_bound_holds"] = lemma4_ok and tested > 0
    result.notes.append(f"classes tested: {tested}")
    if tested == 0:
        result.notes.append("no class produced |S_i| >= 2 — widen workloads")
    return result
