"""``python -m repro`` — package inventory and quick self-check.

Prints the library version, the subsystem inventory, and the experiment
registry, then (with ``--selfcheck``) runs one tiny end-to-end execution of
the paper's algorithm to confirm the installation works.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Contention Resolution on a Fading Channel' (PODC 2016).",
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run one tiny simulation to confirm the installation works",
    )
    args = parser.parse_args(argv)

    import repro
    from repro.experiments import REGISTRY

    print(f"repro {repro.__version__} — Contention Resolution on a Fading Channel (PODC 2016)")
    print()
    print("subsystems: sinr, radio, deploy, protocols, sim, analysis, hitting,")
    print("            experiments, reporting")
    print()
    print("experiments (run with `python -m repro.experiments <id> [--full]`):")
    for experiment_id in sorted(REGISTRY, key=lambda e: int(e[1:])):
        print(f"  {experiment_id:<4} {REGISTRY[experiment_id].TITLE}")

    if args.selfcheck:
        print()
        rng = repro.generator_from(0)
        positions = repro.uniform_disk(32, rng)
        channel = repro.SINRChannel(positions)
        protocol = repro.FixedProbabilityProtocol(p=0.1)
        trace = repro.Simulation(channel, protocol, rng=rng, max_rounds=10_000).run()
        status = "ok" if trace.solved else "FAILED"
        print(
            f"selfcheck: {status} — 32 nodes solved in "
            f"{trace.rounds_to_solve} rounds"
        )
        return 0 if trace.solved else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
