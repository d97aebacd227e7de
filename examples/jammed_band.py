"""Scenario: contention resolution on a band shared with a jammer.

A deployed fleet rarely owns its spectrum. This example drops an
uncontrolled transmitter (a co-channel legacy system, or an outright
jammer) into the middle of a deployment, sweeps its power, and watches how
the paper's algorithm degrades — using the library's terminal-chart
tooling.

The takeaway: degradation is *graceful*. The algorithm has no state to
corrupt (active/inactive is all there is), so external interference can
only slow the knockout cascade, never wedge it.

Run: ``python examples/jammed_band.py``
"""

import numpy as np

import repro


def run_batch(jam_factor: float, trials: int = 30, n: int = 48):
    """Solve rounds across trials for one jammer power factor."""
    rounds = []
    for rng in repro.spawn_generators((7, int(jam_factor)), trials):
        positions = repro.uniform_disk(n, rng)
        if jam_factor > 0.0:
            base = repro.SINRChannel(positions)
            centroid = positions.mean(axis=0) + np.asarray([0.31, 0.17])
            jammer = repro.ExternalSource(
                position=(float(centroid[0]), float(centroid[1])),
                power=jam_factor * base.params.power,
            )
            channel = repro.SINRChannel(positions, external_sources=[jammer])
        else:
            channel = repro.SINRChannel(positions)
        protocol = repro.FixedProbabilityProtocol(p=0.1)
        trace = repro.Simulation(channel, protocol, rng=rng, max_rounds=20_000).run()
        rounds.append(trace.rounds_to_solve)
    return rounds


def main() -> None:
    factors = [0.0, 10.0, 100.0, 1000.0]
    batches = {f: run_batch(f) for f in factors}

    print("mean solve rounds by jammer power (multiples of the protocol power P):\n")
    means = {f: float(np.mean(r)) for f, r in batches.items()}
    for factor in factors:
        bar = "#" * int(round(means[factor]))
        print(f"  {factor:>6g}x P  {means[factor]:6.1f} rounds  {bar}")

    # Survival curves: fraction of wake-ups still unresolved after t rounds.
    horizon = int(max(max(r) for r in batches.values()))
    ts = np.arange(horizon + 1)
    series = {}
    for factor in factors:
        # An unsolved trial (None) is still surviving at every t.
        solved = np.array([np.inf if r is None else r for r in batches[factor]])
        series[f"{factor:g}x"] = (solved[:, None] > ts).mean(axis=0).tolist()
    print()
    print(
        repro.ascii_plot(
            series,
            x=(ts + 1).tolist(),  # shift to keep log-x positive
            log_x=True,
            title="fraction of trials unsolved after t rounds (log t)",
            height=12,
        )
    )
    print(
        "\nWeak jammers are invisible (nearest-neighbor signals dominate);"
        "\nstrong ones stretch the tail but the curve keeps collapsing —"
        "\nno cliff, because there is no protocol state to corrupt."
    )


if __name__ == "__main__":
    main()
