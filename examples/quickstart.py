"""Quickstart: run the paper's algorithm once and inspect the execution.

The whole algorithm is two rules (Section 1 of the paper):

1. every active node broadcasts with a fixed constant probability ``p``;
2. an active node that receives a message becomes inactive.

On a fading (SINR) channel this solves contention resolution in
``O(log n + log R)`` rounds w.h.p. — this script runs it once on a
128-node uniform deployment and prints what happened round by round.

Run: ``python examples/quickstart.py``

The second half repeats the execution over many independently seeded
trials — once serially, once sharded across two worker processes
(``workers=2``) — and prints both the wall times and the proof that the
per-trial results are bit-identical either way (the seed-sharding
contract, docs/parallelism.md).
"""

import time

import repro


def main() -> None:
    rng = repro.generator_from(seed=2016)  # PODC 2016

    # A deployment: 128 devices uniform in a disk, pairwise >= 1 apart.
    positions = repro.uniform_disk(n=128, rng=rng)
    stats = repro.deployment_stats(positions)
    print(f"deployment: {stats}")

    # The SINR channel sizes its power for the paper's single-hop
    # assumption automatically.
    channel = repro.SINRChannel(positions)
    print(f"channel: alpha={channel.params.alpha}, beta={channel.params.beta}")

    # The paper's algorithm — note it gets no information about n.
    protocol = repro.FixedProbabilityProtocol(p=0.1)
    trace = repro.Simulation(channel, protocol, rng=rng, max_rounds=10_000).run()

    print(f"\nsolved in {trace.rounds_to_solve} rounds "
          f"(log2 n = {stats.n.bit_length() - 1})")
    print(f"{'round':>6} {'active':>7} {'tx':>4} {'knocked out':>12}")
    for record in trace.records:
        marker = "  <- solo transmission, problem solved" if record.is_solo else ""
        print(
            f"{record.index:>6} {record.num_active_before:>7} "
            f"{len(record.transmitters):>4} {len(record.knocked_out):>12}{marker}"
        )

    # One execution proves nothing — the paper's bound is "with high
    # probability", so claims are measured over many independent trials.
    # run_trials shards them across worker processes on request, and the
    # seed-sharding contract guarantees the *same* per-trial results for
    # any worker count (docs/parallelism.md).
    trials = 100
    factory = repro.StaticDeploymentFactory(positions)
    started = time.perf_counter()
    serial = repro.run_trials(
        factory, protocol, trials=trials, seed=2016, workers=1
    )
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel = repro.run_trials(
        factory, protocol, trials=trials, seed=2016, workers=2
    )
    parallel_s = time.perf_counter() - started

    print(f"\n{trials} trials, serial:    {serial_s:6.2f}s  "
          f"mean={serial.mean_rounds:.1f} rounds")
    print(f"{trials} trials, 2 workers: {parallel_s:6.2f}s  "
          f"mean={parallel.mean_rounds:.1f} rounds")
    identical = serial.rounds == parallel.rounds
    print(f"per-trial results identical: {identical} "
          f"(speedup {serial_s / parallel_s:.2f}x on this machine)")


if __name__ == "__main__":
    main()
