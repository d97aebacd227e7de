"""Synchronous round-based simulation engine.

The engine couples a set of protocol state machines (:mod:`repro.protocols`)
to a channel (:class:`repro.sinr.SINRChannel` or
:class:`repro.radio.RadioChannel`) and runs rounds until the contention
resolution problem is solved — the first round in which exactly one
participating node transmits (Section 2 of the paper) — or a round budget
is exhausted.

``trace`` holds the immutable per-round records an execution produces;
``runner`` repeats executions over independently seeded trials and
aggregates statistics; ``seeding`` centralises deterministic RNG spawning.
"""

from repro.sim.engine import Simulation
from repro.sim.fast import FastRunResult, fast_fixed_probability_run
from repro.sim.runner import TrialStats, high_probability_budget, run_trials
from repro.sim.parallel import (
    StaticDeploymentFactory,
    UniformDiskFactory,
    default_workers,
    partition_trials,
    run_fast_trials,
)
from repro.sim.seeding import generator_from, spawn_generators, spawn_seed_sequences
from repro.sim.trace import ExecutionTrace, RoundRecord

__all__ = [
    "ExecutionTrace",
    "FastRunResult",
    "RoundRecord",
    "Simulation",
    "StaticDeploymentFactory",
    "TrialStats",
    "UniformDiskFactory",
    "default_workers",
    "fast_fixed_probability_run",
    "generator_from",
    "high_probability_budget",
    "partition_trials",
    "run_fast_trials",
    "run_trials",
    "spawn_generators",
    "spawn_seed_sequences",
]
