"""Watch Section 3.3 happen: link-class sizes vs the q_t schedule.

The round-complexity proof tracks the execution through *class bound
vectors* ``q_t``: upper bounds on every link class's size that decay
geometrically, with larger classes lagging smaller ones by ``l`` steps.
This example runs the paper's algorithm on a deployment with several
occupied link classes, replays its trace to get the class sizes after
every round, and renders both the measured trajectories and the schedule step achieved.

Run: ``python examples/link_class_dynamics.py``
"""

import numpy as np

import repro


def _bar(value: int, scale: float) -> str:
    return "#" * max(0, round(value * scale))


def main() -> None:
    # Four occupied link classes, 32 nodes each; a higher broadcast
    # probability keeps contention (and the trace) interesting for longer.
    positions = repro.exponential_chain(num_classes=4, nodes_per_class=32)
    stats = repro.deployment_stats(positions)
    print(f"deployment: {stats}\n")

    channel = repro.SINRChannel(positions)
    protocol = repro.FixedProbabilityProtocol(p=0.25)
    rng = repro.generator_from(7)
    trace = repro.Simulation(
        channel, protocol, rng=rng, max_rounds=10_000, keep_records=True
    ).run()

    # Classes are binned in units of the deployment's shortest link, also
    # after the pair realising it is knocked out.
    matrix, occupied = repro.link_class_history(positions, trace, stats.shortest_link)
    schedule = repro.ClassBoundSchedule(
        n=stats.n, num_classes=max(occupied) + 1, gamma_slow=0.9, rho=0.25
    )

    print(f"{'round':>5}  " + "  ".join(f"d_{i} (n_i)".ljust(14) for i in occupied)
          + "  schedule step achieved")
    for round_index in range(matrix.shape[0]):
        sizes_by_class = np.zeros(schedule.num_classes)
        for col, class_index in enumerate(occupied):
            sizes_by_class[class_index] = matrix[round_index, col]
        step = schedule.achieved_step(sizes_by_class)
        cells = "  ".join(
            f"{matrix[round_index, col]:>3} {_bar(matrix[round_index, col], 1.0):<10}"
            for col in range(len(occupied))
        )
        print(f"{round_index:>5}  {cells}  t={step}/{schedule.zero_step()}")

    print(f"\nsolved in {trace.rounds_to_solve} rounds; "
          f"schedule zero step T = {schedule.zero_step()} "
          f"(Claim 8: T = Theta(log n + log R))")
    print("All classes drain concurrently — the spatial reuse that breaks the "
          "naive log n * log R schedule.")


if __name__ == "__main__":
    main()
