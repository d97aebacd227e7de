"""A guided tour of the paper, one measurement per section.

Runs a compact version of each headline result in order, with the paper's
claim printed next to the measurement — the fastest way to see the whole
reproduction working. (The measurement-grade versions live in
``python -m repro.experiments all --full``.)

Run: ``python examples/paper_tour.py``   (a few seconds)
"""

import math

import numpy as np

import repro


def section_theorem_1() -> None:
    print("== Theorem 1: O(log n + log R) on a fading channel ==")
    print("   claim: the two-rule algorithm solves in O(log n) rounds whp\n")
    print(f"   {'n':>6} {'mean rounds':>12} {'log2 n':>8}")
    for n in (32, 128, 512):
        stats = repro.run_trials(
            lambda rng, n=n: repro.SINRChannel(repro.uniform_disk(n, rng)),
            repro.FixedProbabilityProtocol(p=0.1),
            trials=25,
            seed=(1, n),
        )
        print(f"   {n:>6} {stats.mean_rounds:>12.1f} {math.log2(n):>8.1f}")
    print("   -> rounds track log2 n with a small constant.\n")


def section_comparison() -> None:
    print("== Section 1: beating the radio-network speed limit ==")
    print("   claim: the fading channel beats Theta(log^2 n) decay\n")
    n = 256
    simple = repro.run_trials(
        lambda rng: repro.SINRChannel(repro.uniform_disk(n, rng)),
        repro.FixedProbabilityProtocol(p=0.1),
        trials=30,
        seed=2,
    )
    decay = repro.run_trials(
        lambda rng: repro.RadioChannel(n),
        repro.DecayProtocol(),
        trials=30,
        seed=3,
    )
    from repro.analysis.comparison import compare_round_counts

    verdict = compare_round_counts(simple.rounds, decay.rounds)
    print(f"   simple-on-SINR : {simple.mean_rounds:6.1f} mean rounds (knows nothing)")
    print(f"   decay-on-radio : {decay.mean_rounds:6.1f} mean rounds (knows N)")
    print(f"   statistics     : {verdict}\n")


def section_mechanism() -> None:
    print("== Section 3.2: the mechanism — knockouts via spatial reuse ==")
    print("   claim: one round deactivates a constant fraction of a class\n")
    rng = repro.generator_from(4)
    positions = repro.uniform_disk(128, rng)
    channel = repro.SINRChannel(positions)
    protocol = repro.FixedProbabilityProtocol(p=0.1)
    trace = repro.Simulation(channel, protocol, rng=rng, max_rounds=5_000).run()
    counts = " -> ".join(str(c) for c in trace.active_counts()[:6])
    print(f"   active nodes per round: {counts} "
          f"(Corollary 7: a constant fraction falls each round)")
    print(f"   solved in {trace.rounds_to_solve} rounds.\n")


def section_lower_bound() -> None:
    print("== Section 4: the Omega(log n) lower bound, executed ==")
    print("   claim: no algorithm beats ceil(log2 k) against the adaptive referee\n")
    rng = repro.generator_from(5)
    for k in (64, 1024):
        floor = math.ceil(math.log2(k))
        bit = repro.play_hitting_game(
            repro.BitSplittingPlayer(k), repro.AdaptiveReferee(k), rng
        )
        reduction = repro.play_hitting_game(
            repro.ContentionResolutionPlayer(repro.FixedProbabilityProtocol(p=0.5), k),
            repro.AdaptiveReferee(k),
            rng,
            max_rounds=100_000,
        )
        print(f"   k={k:<5} floor={floor:<3} optimal player: {bit.rounds_to_win:<4}"
              f" paper's algorithm via Lemma 14: {reduction.rounds_to_win}")
    print("   -> the paper's upper bound pays its own lower bound.\n")


def section_robustness() -> None:
    print("== Beyond the paper: robustness ==")
    rng = repro.generator_from(6)
    positions = repro.uniform_disk(96, rng)
    rayleigh = repro.SINRChannel(positions, gain_model=repro.RayleighFading())
    protocol = repro.FixedProbabilityProtocol(p=0.1)
    trace = repro.Simulation(rayleigh, protocol, rng=rng, max_rounds=10_000).run()
    print(f"   Rayleigh fading   : solved in {trace.rounds_to_solve} rounds (unmodified)")

    base = repro.SINRChannel(positions)
    jammer = repro.ExternalSource(
        position=(float(positions[:, 0].mean()) + 0.3, float(positions[:, 1].mean())),
        power=100.0 * base.params.power,
    )
    jammed = repro.SINRChannel(positions, external_sources=[jammer])
    trace = repro.Simulation(
        jammed, protocol, rng=repro.generator_from(7), max_rounds=50_000
    ).run()
    print(f"   100x-power jammer : solved in {trace.rounds_to_solve} rounds (graceful)")


def main() -> None:
    print("Contention Resolution on a Fading Channel (PODC 2016) — the tour\n")
    section_theorem_1()
    section_comparison()
    section_mechanism()
    section_lower_bound()
    section_robustness()
    print("\nFull reproduction: python -m repro.experiments all --full")


if __name__ == "__main__":
    main()
