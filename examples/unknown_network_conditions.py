"""Scenario: one firmware image, wildly different deployments.

The paper's algorithm needs neither the network size ``n`` nor the link
ratio ``R`` — the two quantities a field deployment can least predict.
This example ships the *same protocol object* into four environments a
real radio fleet might meet:

* a small lab bench (n = 8, one link class);
* a dense city block (n = 256, near-uniform);
* a sparse highway corridor (exponential chain, large R);
* a Rayleigh-fading factory floor (stochastic per-round gains).

Run: ``python examples/unknown_network_conditions.py``
"""

import repro


def environments():
    """(label, channel factory, n) for each deployment."""
    def lab(rng):
        return repro.SINRChannel(repro.grid(8, spacing=2.0))

    def city(rng):
        return repro.SINRChannel(repro.uniform_disk(256, rng))

    def highway(rng):
        return repro.SINRChannel(
            repro.exponential_chain(num_classes=10, nodes_per_class=4)
        )

    def factory(rng):
        return repro.SINRChannel(
            repro.uniform_disk(96, rng), gain_model=repro.RayleighFading()
        )

    return [
        ("lab bench (n=8)", lab),
        ("city block (n=256)", city),
        ("highway corridor (log2 R ~ 10)", highway),
        ("factory floor (Rayleigh fading)", factory),
    ]


def main() -> None:
    trials = 30
    # One configuration for every environment: this is the whole point.
    plain = repro.FixedProbabilityProtocol(p=0.1)

    print(f"{trials} trials per environment; identical firmware everywhere\n")
    header = f"{'environment':<33} {'plain mean':>10} {'plain p95':>10}"
    print(header)
    print("-" * len(header))
    for index, (label, factory) in enumerate(environments()):
        plain_stats = repro.run_trials(
            factory, plain, trials=trials, seed=(17, index), max_rounds=100_000
        )
        print(
            f"{label:<33} {plain_stats.mean_rounds:>10.1f} "
            f"{plain_stats.percentile(95):>10.1f}"
        )

    print(
        "\nNo per-site tuning: the constant-probability rule adapts through"
        "\nthe channel itself."
    )


if __name__ == "__main__":
    main()
