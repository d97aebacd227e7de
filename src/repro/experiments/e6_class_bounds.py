"""E6 — Section 3.3: executions obey the ``q_t`` class-bound schedule.

The round-complexity proof defines a schedule of class-size bound vectors
``q_0, q_1, ...`` decaying geometrically (with lag ``l`` between
consecutive classes) and shows every execution advances through the
schedule at a constant number of rounds per step, despite nodes migrating
to larger classes as their neighbors are knocked out.

Workload: executions of the paper's algorithm on multi-class deployments
(exponential chains and clustered fields), whose class sizes after each
round are replayed from the trace's records
(:func:`~repro.analysis.linkclasses.link_class_history`). At the end we
compute the largest schedule step the measured class sizes satisfy
(:meth:`ClassBoundSchedule.achieved_step`).

Claims under test: (1) the execution reaches the schedule's zero step
(all classes empty) within a constant factor of ``T = Theta(log n + log R)``
segments; (2) progress through the schedule is steady — the achieved step
grows by at least one per O(1)-round segment on average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.class_bounds import ClassBoundSchedule
from repro.analysis.linkclasses import link_class_history, link_class_partition
from repro.deploy.topologies import clustered, exponential_chain
from repro.experiments.common import ExperimentResult
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.seeding import spawn_generators
from repro.sinr.channel import SINRChannel
from repro.sinr.parameters import SINRParameters

TITLE = "link-class trajectories vs the q_t schedule (Section 3.3)"

__all__ = ["Config", "run", "TITLE"]


@dataclass
class Config:
    trials: int = 10
    p: float = 0.1
    alpha: float = 3.0
    gamma_slow: float = 0.9
    rho: float = 0.25
    seed: int = 606
    max_rounds: int = 20_000
    #: rounds per schedule step allowed before declaring a stall
    rounds_per_step_budget: float = 30.0

    @classmethod
    def quick(cls) -> "Config":
        return cls(trials=4)

    @classmethod
    def full(cls) -> "Config":
        return cls(trials=20)


def _workloads(rng) -> List[tuple]:
    return [
        ("chain-8x8", exponential_chain(8, nodes_per_class=8)),
        ("clustered", clustered(num_clusters=4, nodes_per_cluster=16, rng=rng)),
    ]


def run(config: Config) -> ExperimentResult:
    params = SINRParameters(alpha=config.alpha)
    protocol = FixedProbabilityProtocol(p=config.p)
    result = ExperimentResult(
        experiment_id="E6",
        title=TITLE,
        header=[
            "workload",
            "n",
            "classes",
            "schedule_T",
            "rounds_to_empty",
            "rounds_per_step",
            "final_step",
        ],
    )

    ratios: List[float] = []
    generators = spawn_generators(config.seed, 2 * config.trials)
    for trial in range(config.trials):
        deploy_rng = generators[2 * trial]
        run_rng = generators[2 * trial + 1]
        for label, positions in _workloads(deploy_rng):
            n = positions.shape[0]
            initial = link_class_partition(positions)
            num_classes = (initial.largest_occupied or 0) + 1
            schedule = ClassBoundSchedule(
                n=n,
                num_classes=num_classes,
                gamma_slow=config.gamma_slow,
                rho=config.rho,
            )
            channel = SINRChannel(positions, params=params)
            simulation = Simulation(
                channel,
                protocol,
                rng=run_rng,
                max_rounds=config.max_rounds,
                keep_records=True,
            )
            trace = simulation.run()

            matrix, occupied = link_class_history(positions, trace, initial.unit)
            # Map the tracked occupied classes back onto schedule positions.
            sizes_by_round = np.zeros((matrix.shape[0], num_classes))
            for col, class_index in enumerate(occupied):
                if 0 <= class_index < num_classes:
                    sizes_by_round[:, class_index] = matrix[:, col]
            final_step = (
                schedule.achieved_step(sizes_by_round[-1])
                if matrix.shape[0]
                else 0
            )
            rounds_to_empty = matrix.shape[0]
            t_star = schedule.zero_step()
            rounds_per_step = rounds_to_empty / max(t_star, 1)
            ratios.append(rounds_per_step)
            result.rows.append(
                [
                    label,
                    n,
                    num_classes,
                    t_star,
                    rounds_to_empty,
                    rounds_per_step,
                    final_step,
                ]
            )

    result.checks["empties_within_linear_schedule"] = all(
        ratio <= config.rounds_per_step_budget for ratio in ratios
    )
    result.notes.append(
        f"rounds-per-schedule-step: mean {np.mean(ratios):.2f}, max {np.max(ratios):.2f} "
        f"(budget {config.rounds_per_step_budget})"
    )
    return result
