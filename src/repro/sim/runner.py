"""Multi-trial experiment runner.

Every quantitative claim in the paper is "with high probability", so a
single execution proves nothing — experiments repeat executions over
independently seeded trials and summarise the distribution of solving
rounds. :func:`run_trials` runs them on the generic engine; the paper's
algorithm, when only round counts are wanted, runs through its fast-path
sibling :func:`repro.sim.parallel.run_fast_trials` (docs/simulation.md
lists which experiment takes which).

Both runners take the same dispatch
(:func:`repro.sim.parallel.run_batch`), and every trial, serial or
sharded, engine or fast path, runs through one loop (:func:`run_entries`)
that calls a per-trial kernel and reports to one :class:`TrialRecorder`;
:mod:`repro.sim.parallel` runs the same loop in its workers and the same
recorder in the parent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.events import get_sink
from repro.obs.probe import ProbeBus, get_probe_bus
from repro.obs.registry import get_registry
from repro.protocols.base import ProtocolFactory
from repro.sim.engine import Simulation
from repro.sim.seeding import SeedLike, spawn_seed_sequences

__all__ = [
    "DETERMINISTIC_ATTR",
    "EngineTrial",
    "TrialRecorder",
    "TrialStats",
    "run_entries",
    "run_trials",
    "trial_entries",
    "high_probability_budget",
]

#: Builds a fresh channel for one trial. Receives the trial's generator so
#: stochastic deployments are resampled per trial; deterministic workloads
#: may ignore it and return a shared channel.
ChannelFactory = Callable[[np.random.Generator], object]

#: Name of the opt-in attribute a channel factory sets (``True``) to
#: declare the deterministic-deployment contract: the factory ignores its
#: ``rng`` argument and the returned channel is reusable across trials
#: (deterministic gain model, no per-trial internal state). Runners then
#: construct the channel once per shard and share it read-only.
DETERMINISTIC_ATTR = "deterministic"

#: Seconds between ``trials_progress`` heartbeat events.
_HEARTBEAT_SECONDS = 1.0

#: ``(trial_index, deploy_seed, protocol_seed)``; picklable, so shards
#: ship these to worker processes.
TrialEntry = Tuple[int, np.random.SeedSequence, np.random.SeedSequence]

#: Runs one trial from its deployment and protocol generators; returns an
#: :class:`~repro.sim.trace.ExecutionTrace` or a
#: :class:`~repro.sim.fast.FastRunResult`.
TrialKernel = Callable[[np.random.Generator, np.random.Generator], object]


@dataclass
class TrialStats:
    """Distribution summary of solving rounds over a batch of trials.

    ``rounds`` holds the per-trial solving round counts (1-based) for the
    trials that solved; ``failures`` counts trials that exhausted the round
    budget. Summary statistics are over the solved trials only and are
    ``nan`` when nothing solved.
    """

    protocol_name: str
    trials: int
    rounds: List[int]
    failures: int
    #: Wall-clock seconds spent executing all trials (simulation only —
    #: channel construction inside the factory is included deliberately,
    #: since stochastic deployments resample per trial).
    total_wall_time: float = 0.0
    #: Rounds executed across every trial, solved or not — the
    #: denominator-independent measure of channel work performed.
    total_rounds_executed: int = 0

    @property
    def solve_rate(self) -> float:
        """Fraction of trials that solved within the budget."""
        if self.trials == 0:
            return float("nan")
        return len(self.rounds) / self.trials

    @property
    def mean_rounds(self) -> float:
        return float(np.mean(self.rounds)) if self.rounds else float("nan")

    @property
    def median_rounds(self) -> float:
        return float(np.median(self.rounds)) if self.rounds else float("nan")

    @property
    def max_rounds(self) -> float:
        return float(np.max(self.rounds)) if self.rounds else float("nan")

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of solving rounds (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100] (got {q})")
        return float(np.percentile(self.rounds, q)) if self.rounds else float("nan")

    @property
    def rounds_per_second(self) -> float:
        """Simulated rounds per wall-clock second over the whole batch.

        ``nan`` whenever the ratio is undefined — a zero, negative or
        ``nan`` wall time (empty or instantly-failing batches can clock
        below timer resolution) never propagates a division error or an
        ``inf`` into reports.
        """
        if math.isnan(self.total_wall_time) or self.total_wall_time <= 0.0:
            return float("nan")
        return self.total_rounds_executed / self.total_wall_time


def shared_channel(channel_factory: ChannelFactory) -> Optional[object]:
    """The one channel a :data:`deterministic <DETERMINISTIC_ATTR>` factory
    lets every trial reuse, or ``None`` when each trial builds its own."""
    if getattr(channel_factory, DETERMINISTIC_ATTR, False):
        return channel_factory(None)
    return None


@dataclass(frozen=True)
class EngineTrial:
    """How to run one generic-engine trial; picklable, so shards ship it."""

    channel_factory: ChannelFactory
    protocol: ProtocolFactory
    max_rounds: int

    mode = "engine"

    @property
    def name(self) -> str:
        return self.protocol.name

    def kernel(self) -> TrialKernel:
        """One :class:`~repro.sim.engine.Simulation` run per trial, on the
        shared channel if there is one. Serial runs and
        :mod:`repro.sim.parallel` workers both call it, so serial and
        sharded trials agree by construction."""
        channel = shared_channel(self.channel_factory)

        def kernel(deploy_rng, protocol_rng):
            trial_channel = channel if channel is not None else self.channel_factory(deploy_rng)
            simulation = Simulation(
                trial_channel,
                self.protocol,
                rng=protocol_rng,
                max_rounds=self.max_rounds,
                keep_records=False,
                protocol_name=self.protocol.name,
            )
            return simulation.run()

        return kernel


def trial_entries(seed: SeedLike, trials: int) -> List[TrialEntry]:
    """Every trial's entry in the seed tree rooted at ``seed``.

    Trial ``t`` draws its deployment from child ``2t`` and its protocol's
    coin flips from child ``2t + 1``, so a trial's entropy is a pure
    function of ``(seed, t)``: adding trials never perturbs earlier ones,
    and a shard reproduces exactly the trials the serial run would.
    """
    sequences = spawn_seed_sequences(seed, 2 * trials)
    return [(trial, sequences[2 * trial], sequences[2 * trial + 1]) for trial in range(trials)]


def run_entries(
    entries: List[TrialEntry],
    kernel: TrialKernel,
    report: Callable[[int, object, float], None],
    probe_bus: Optional[ProbeBus] = None,
) -> None:
    """The one trial loop: run each entry through ``kernel`` and report
    ``(trial, outcome, elapsed_seconds)``, channel construction included.

    Serial runs report to their :class:`TrialRecorder`, shard workers
    through their result queue to the parent's. ``probe_bus`` tags each
    trial's probe rows with its global trial index.
    """
    for trial, deploy_seed, protocol_seed in entries:
        deploy_rng = np.random.default_rng(deploy_seed)
        protocol_rng = np.random.default_rng(protocol_seed)
        if probe_bus is not None:
            probe_bus.set_trial(trial)
        started = time.perf_counter()
        outcome = kernel(deploy_rng, protocol_rng)
        report(trial, outcome, time.perf_counter() - started)


class TrialRecorder:
    """The one outcome recorder, for serial and sharded runs alike.

    With telemetry enabled it feeds the ``runner.*`` metrics and emits a
    ~1 Hz ``trials_progress`` heartbeat carrying the worker count (1 when
    serial). Outcomes may arrive in any order; a trial already held is
    ignored, since a retried shard re-sends what its dead predecessor
    delivered. Its clock starts at construction and gives the run's
    ``total_wall_time``.
    """

    def __init__(self, protocol_name: str, trials: int, workers: int = 1) -> None:
        self.protocol_name = protocol_name
        self.trials = trials
        self.workers = workers
        self._outcomes: Dict[int, object] = {}
        self._solved = 0
        self._obs = get_registry()
        self._sink = get_sink() if self._obs.enabled else None
        self._started = self._last_heartbeat = time.perf_counter()

    def record(self, trial: int, outcome, elapsed: float) -> None:
        """Take one trial's outcome (the kernel's return value)."""
        if trial in self._outcomes:
            return
        self._outcomes[trial] = outcome
        self._solved += outcome.solved
        if self._sink is None:
            return
        self._obs.counter("runner.trials").inc()
        self._obs.counter("runner.solved" if outcome.solved else "runner.failures").inc()
        self._obs.histogram("runner.trial_seconds").observe(elapsed)
        now = time.perf_counter()
        # The last trial's heartbeat comes from finish().
        due = now - self._last_heartbeat >= _HEARTBEAT_SECONDS
        if due and len(self._outcomes) < self.trials:
            self._last_heartbeat = now
            self._progress(now - self._started)

    def _progress(self, elapsed: float) -> None:
        self._sink.emit(
            "trials_progress",
            protocol=self.protocol_name,
            done=len(self._outcomes),
            total=self.trials,
            solved=self._solved,
            failures=len(self._outcomes) - self._solved,
            elapsed_s=elapsed,
            workers=self.workers,
        )

    def finish(self) -> TrialStats:
        if len(self._outcomes) != self.trials:
            raise RuntimeError(
                f"run lost trials: expected {self.trials}, got {len(self._outcomes)}"
            )
        total_wall_time = time.perf_counter() - self._started
        if self._sink is not None:
            self._progress(total_wall_time)
        ordered = [self._outcomes[trial] for trial in range(self.trials)]
        return TrialStats(
            protocol_name=self.protocol_name,
            trials=self.trials,
            rounds=[outcome.rounds_to_solve for outcome in ordered if outcome.solved],
            failures=self.trials - self._solved,
            total_wall_time=total_wall_time,
            total_rounds_executed=sum(outcome.rounds_executed for outcome in ordered),
        )


def run_serial(work, trials: int, seed: SeedLike) -> TrialStats:
    """Run every trial of an :class:`EngineTrial` or
    :class:`~repro.sim.parallel.FastTrial` in this process."""
    kernel = work.kernel()
    probe_bus = get_probe_bus()
    recorder = TrialRecorder(work.name, trials)
    run_entries(
        trial_entries(seed, trials),
        kernel,
        recorder.record,
        probe_bus if probe_bus.enabled else None,
    )
    return recorder.finish()


def run_trials(
    channel_factory: ChannelFactory,
    protocol: ProtocolFactory,
    trials: int,
    seed: SeedLike = 0,
    max_rounds: int = 100_000,
    workers: Optional[int] = None,
) -> TrialStats:
    """Run ``trials`` independent executions and summarise them.

    Each trial spawns two independent generators from ``(seed, trial)`` —
    one for the channel factory (deployment sampling, fading) and one for
    the protocol's coin flips — so deployment randomness and protocol
    randomness can be varied independently in ablations.

    ``workers`` is the number of processes the trials run in
    (:func:`repro.sim.parallel.run_batch`, which
    :func:`~repro.sim.parallel.run_fast_trials` shares): ``1`` is the
    plain serial loop, and any larger count returns the same ``rounds`` /
    ``failures`` as serial execution. ``None`` takes the default scoped
    by :func:`repro.sim.parallel.default_workers` (the ``--workers`` CLI
    flag), which is 1 outside it.

    Every trial is individually timed; the resulting
    :attr:`TrialStats.total_wall_time` and
    :attr:`TrialStats.rounds_per_second` make cost reportable alongside
    solving rounds. With telemetry enabled (see :mod:`repro.obs`) the
    runner additionally feeds ``runner.*`` counters and emits a ~1 Hz
    progress heartbeat to the global event sink (:class:`TrialRecorder`).
    """
    from repro.sim.parallel import run_batch  # parallel imports this module

    return run_batch(EngineTrial(channel_factory, protocol, max_rounds), trials, seed, workers)


def high_probability_budget(n: int, slack: float = 50.0) -> int:
    """A generous round budget for w.h.p. experiments on ``n`` nodes.

    ``slack * log2(n)^2`` comfortably covers every protocol in the library
    (the slowest well-behaved baseline is ``Theta(log^2 n)``), while still
    failing fast when a protocol genuinely stalls.
    """
    if n < 1:
        raise ValueError(f"n must be positive (got {n})")
    return max(64, int(slack * max(1.0, math.log2(max(n, 2))) ** 2))
