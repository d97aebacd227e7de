"""E4 — Lemma 6: light smaller classes imply many good nodes.

Lemma 6: there is a constant ``delta`` in ``(0, 1)`` such that for every
link class ``d_i``, if ``n_{<i} <= delta * n_i`` then at least half the
nodes of ``V_i`` are good (Definition 1).

Workload: deployments in which one link class dominates — uniform disks at
constant density (whose minimum-distance classes hold most nodes) and
clustered deployments (dense clusters put almost everyone in the
within-cluster class). For each deployment we find every class satisfying
the lemma's hypothesis with ``delta = 1/2`` and measure the good fraction.

Claim under test: every class satisfying the hypothesis has good fraction
``>= 0.5``. (The paper's proof guarantees 1/2 for *some* small constant
``delta``; measuring at ``delta = 1/2`` is stricter than the lemma
requires, so a pass here is strong evidence.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.goodness import good_fraction
from repro.analysis.linkclasses import link_class_partition
from repro.deploy.topologies import clustered, grid, uniform_disk
from repro.experiments.common import ExperimentResult
from repro.sim.seeding import spawn_generators
from repro.sinr.geometry import pairwise_distances

TITLE = "good-node fraction in classes with light smaller classes (Lemma 6)"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    sizes: List[int] = field(default_factory=lambda: [64, 128, 256])
    deployments_per_size: int = 5
    alpha: float = 3.0
    delta: float = 0.5
    seed: int = 404

    @classmethod
    def quick(cls) -> "Config":
        return cls(sizes=[64, 128], deployments_per_size=3)

    @classmethod
    def full(cls) -> "Config":
        return cls(sizes=[64, 128, 256, 512], deployments_per_size=10)


def _deployments(config: Config, n: int, rng) -> List[tuple]:
    """(label, positions) pairs for one size."""
    return [
        ("uniform", uniform_disk(n, rng)),
        ("grid", grid(n)),
        (
            "clustered",
            clustered(
                num_clusters=max(2, n // 32),
                nodes_per_cluster=min(32, n),
                rng=rng,
            ),
        ),
    ]


def run(config: Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E4",
        title=TITLE,
        header=[
            "deployment",
            "n",
            "class_i",
            "n_i",
            "n_below",
            "good_fraction",
            "hypothesis_holds",
        ],
    )

    all_pass = True
    tested_any = False
    generators = spawn_generators(config.seed, len(config.sizes) * config.deployments_per_size)
    gen_index = 0
    for n in config.sizes:
        for _ in range(config.deployments_per_size):
            rng = generators[gen_index]
            gen_index += 1
            for label, positions in _deployments(config, n, rng):
                distances = pairwise_distances(positions)
                active = np.ones(positions.shape[0], dtype=bool)
                partition = link_class_partition(positions, active)
                for class_index in partition.occupied:
                    n_i = partition.size(class_index)
                    n_below = partition.size_below(class_index)
                    holds = n_below <= config.delta * n_i
                    if not holds or n_i < 4:
                        continue  # lemma's hypothesis not met / class trivial
                    tested_any = True
                    fraction = good_fraction(
                        partition, class_index, distances, active, config.alpha
                    )
                    if fraction < 0.5:
                        all_pass = False
                    result.rows.append(
                        [label, n, class_index, n_i, n_below, fraction, holds]
                    )

    result.checks["half_good_when_hypothesis_holds"] = all_pass and tested_any
    if not tested_any:
        result.notes.append("no class satisfied the hypothesis — broaden workloads")
    return result
