#!/usr/bin/env python
"""One-command reproduction: tests, quick experiments, full experiments, report.

Runs the complete verification pipeline in order and stops at the first
failing stage:

1. ``python -m repro --selfcheck`` — the installation works at all;
2. ``pytest tests/`` — unit, integration, property tests;
3. ``python -m repro.experiments all`` — every experiment's quick preset
   with its shape checks;
4. ``python -m repro.experiments all --full --report results_full.md`` —
   the measurement-grade run behind EXPERIMENTS.md (slow: tens of
   minutes).

Usage::

    python tools/reproduce.py            # stages 1-3 (CI-sized)
    python tools/reproduce.py --full     # all four stages
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_stage(name: str, command: list) -> bool:
    print(f"\n=== {name} ===")
    print("$", " ".join(command))
    started = time.time()
    completed = subprocess.run(command, cwd=REPO_ROOT)
    elapsed = time.time() - started
    status = "ok" if completed.returncode == 0 else f"FAILED (exit {completed.returncode})"
    print(f"=== {name}: {status} ({elapsed:.0f}s) ===")
    return completed.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full",
        action="store_true",
        help="also run the full-preset experiment suite (slow)",
    )
    args = parser.parse_args(argv)

    python = sys.executable
    stages = [
        ("selfcheck", [python, "-m", "repro", "--selfcheck"]),
        ("test suite", [python, "-m", "pytest", "tests/"]),
        ("quick presets + shape checks", [python, "-m", "repro.experiments", "all"]),
    ]
    if args.full:
        stages.append(
            (
                "full experiments + report",
                [
                    python,
                    "-m",
                    "repro.experiments",
                    "all",
                    "--full",
                    "--report",
                    "results_full.md",
                ],
            )
        )

    for name, command in stages:
        if not _run_stage(name, command):
            return 1
    print("\nreproduction pipeline complete.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
