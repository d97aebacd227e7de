"""Parallel trial execution with bit-exact seed sharding.

Every quantitative claim in the paper is statistical, so wall time per
claim is dominated by how fast independent trials can be executed.
:func:`~repro.sim.runner.run_trials` and :func:`run_fast_trials` share
one dispatch, :func:`run_batch`. It checks ``trials`` and ``workers``,
then runs the batch in this process or shards it across a
``multiprocessing`` worker pool while preserving **bit-exact
reproducibility**: for any worker count ``k``,

    ``run_trials(seed=s, workers=k)``

returns the same per-trial ``rounds`` / ``failures`` as the serial
``run_trials(seed=s, workers=1)``, and likewise for
``run_fast_trials``. The test suite pins this parity.

The seed-sharding contract
--------------------------

The serial runner derives trial ``t``'s two generators (deployment and
protocol) from children ``2t`` and ``2t + 1`` of one
:class:`~numpy.random.SeedSequence` tree rooted at ``seed``. The parallel
runner spawns the *same* tree in the parent
(:func:`repro.sim.runner.trial_entries`), partitions the trial
indices into contiguous shards (shard ``i`` of ``k`` owns trials
``[i * q + min(i, r), ...)`` where ``q, r = divmod(trials, k)``), and
ships each worker its trials' child ``SeedSequence`` objects — tiny,
picklable, and independent of every other child. A worker rebuilds
``default_rng(child)`` locally, so the entropy a trial consumes is a pure
function of ``(seed, trial_index)`` and never of the worker count, the
shard layout or the scheduling order. Results are reassembled in trial
order.

Workers run the serial runner's own loop
(:func:`repro.sim.runner.run_entries`) with the same per-trial kernel
(:class:`~repro.sim.runner.EngineTrial` or :class:`FastTrial`), and the
parent feeds what they report into the same
:class:`~repro.sim.runner.TrialRecorder` the serial runner uses, so
behavioural parity holds by construction.

Spawn safety
------------

Task specs are plain picklable dataclasses and the worker entry point is
a module-level function, so every start method works — including
``spawn``, which pickles everything. Runs use the platform's start
method (:data:`_START_METHOD` is ``None``; ``fork`` on Linux), under
which closure-based channel factories also work; under ``spawn`` (the
default on macOS and Windows), use picklable factories such as
:class:`StaticDeploymentFactory` / :class:`UniformDiskFactory` or any
module-level callable.

Telemetry across the process boundary
-------------------------------------

When the parent's registry is enabled, each worker installs a local
enabled :class:`~repro.obs.registry.MetricsRegistry` and a
:class:`~repro.obs.events.QueueEventSink` that forwards every event it
emits — tagged with a ``worker_id`` field — through the result queue into
the parent's global sink. Per-trial outcomes stream back the same way
into the parent's :class:`~repro.sim.runner.TrialRecorder`, which feeds
the ``runner.*`` counters and emits the ~1 Hz ``trials_progress``
heartbeats (with a ``workers`` field). When each shard finishes, the
parent merges the worker's metrics snapshot into its own registry
(:meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`) so
``metrics.json`` totals match a serial run.

Failure model
-------------

A worker death — nonzero exit code, an exception shipped back, or a
clean exit that never reported its shard — re-executes **only that
shard** in a fresh process, up to :data:`DEFAULT_SHARD_ATTEMPTS` total
attempts with exponential backoff, keeping every other shard's completed
trials. Because trial entropy is a pure function of ``(seed,
trial_index)``, the retry reproduces the dead worker's trials
bit-exactly, so retries are invisible in the results. A parent-side
exception (e.g. ``KeyboardInterrupt``) terminates workers promptly
instead of waiting for their shards. See docs/parallelism.md.

Deterministic deployments
-------------------------

A channel factory may declare ``deterministic = True`` (see
:data:`DETERMINISTIC_ATTR`) to promise it ignores its ``rng`` argument
and returns an equivalent, reusable channel every call. Both runners then
build the channel **once per shard** instead of once per trial.
:class:`StaticDeploymentFactory` also builds that channel's gain matrix
(``base_gains``) up front. Engine trials and probed fast-path trials
decode exactly and gather their gains from it. Unprobed fast-path trials
screen from the channel's cached coordinates (``_screen_coords``) and
gather from the matrix only for the exact decodes: declined blocks and
the rare listener too close to the threshold. Per-trial factories leave
the matrix unbuilt: a fresh deployment's trial computes only the gains
its rounds touch.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import queue as queue_module
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.obs.events import QueueEventSink, get_sink, set_sink
from repro.obs.probe import ProbeBus, ProbeRecorder, get_probe_bus, set_probe_bus
from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.runner import (
    DETERMINISTIC_ATTR,
    ChannelFactory,
    TrialEntry,
    TrialKernel,
    TrialRecorder,
    TrialStats,
    run_entries,
    run_serial,
    shared_channel,
    trial_entries,
)
from repro.sim.seeding import SeedLike

__all__ = [
    "DEFAULT_SHARD_ATTEMPTS",
    "DETERMINISTIC_ATTR",
    "StaticDeploymentFactory",
    "UniformDiskFactory",
    "default_workers",
    "FastTrial",
    "partition_trials",
    "run_batch",
    "run_fast_trials",
]

#: Seconds the parent waits on the result queue before re-checking worker
#: liveness.
_POLL_SECONDS = 0.2

#: Number of attempts a shard gets before the whole run fails (first
#: execution + retries). See the failure model in docs/parallelism.md.
DEFAULT_SHARD_ATTEMPTS = 3

#: The ``multiprocessing`` start method of worker pools; ``None`` is the
#: platform's default.
_START_METHOD: Optional[str] = None

#: Base delay before re-spawning a failed shard; doubles per retry
#: (0.1 s, 0.2 s, 0.4 s, ...).
_RETRY_BACKOFF_SECONDS = 0.1

#: Consecutive empty queue polls after which a worker that exited with
#: code 0 *without* reporting ``done`` is declared lost (its results are
#: not coming — e.g. the queue feeder died with it) and its shard is
#: retried. With ``_POLL_SECONDS = 0.2`` this is ~1 s of silence.
_LOST_WORKER_EMPTY_POLLS = 5

#: Seconds a failed worker gets to exit on its own before being
#: terminated. A worker that shipped an ``error`` message is already
#: unwinding; SIGTERM-ing it mid-exit can kill its queue feeder thread
#: while it holds the queue's shared write lock, poisoning the lock for
#: every subsequently retried worker (they block forever in ``put`` and
#: the run deadlocks). Reaping by graceful join avoids the window.
_REAP_GRACE_SECONDS = 5.0


# ---------------------------------------------------------------------------
# Worker-count default (the `--workers` CLI plumbing)

_default_worker_count = 1


@contextlib.contextmanager
def default_workers(workers: int):
    """Scope the worker count of runs that pass ``workers=None``.

    ``python -m repro.experiments <id> --workers N`` wraps the experiment
    run in this context, so every ``run_trials`` / ``run_fast_trials``
    call inside — none of which knows about worker counts — dispatches to
    the pool. :func:`run_batch` checks the count when a run takes it.
    """
    global _default_worker_count
    previous, _default_worker_count = _default_worker_count, workers
    try:
        yield
    finally:
        _default_worker_count = previous


# ---------------------------------------------------------------------------
# Picklable channel factories

@dataclass(frozen=True)
class StaticDeploymentFactory:
    """Channel factory for one fixed deployment — spawn-safe and shared.

    Carries the node ``positions`` (and optional
    :class:`~repro.sinr.parameters.SINRParameters`) instead of a built
    channel, so pickling a task spec ships coordinates, not an ``n x n``
    gain matrix; each shard reconstructs the channel exactly once, builds
    its ``base_gains`` (a fresh channel leaves the matrix unbuilt) and
    reuses both for every trial.
    """

    positions: np.ndarray
    params: Optional[object] = None

    deterministic = True

    def __call__(self, rng: Optional[np.random.Generator]) -> object:
        from repro.sinr.channel import SINRChannel

        positions = np.asarray(self.positions, dtype=float)
        if self.params is None:
            channel = SINRChannel(positions)
        else:
            channel = SINRChannel(positions, params=self.params)
        # Build the gain matrix now: every trial of the shard reuses this
        # channel. The engine and probed fast-path rounds gather their
        # exact gains from it, at about half the cost of computing them;
        # unprobed fast-path rounds screen in float32 from cached
        # coordinates instead (~2 ns a pair against ~4.5 for the gather)
        # and touch it only to refill the rare unsure listener.
        channel.base_gains
        return channel


@dataclass(frozen=True)
class UniformDiskFactory:
    """Channel factory resampling a uniform-disk deployment per trial.

    Picklable, so its tasks cross a ``spawn`` process boundary; every
    experiment that resamples a uniform disk per trial uses it.
    """

    n: int
    params: Optional[object] = None

    def __call__(self, rng: np.random.Generator) -> object:
        from repro.deploy.topologies import uniform_disk
        from repro.sinr.channel import SINRChannel

        positions = uniform_disk(self.n, rng)
        if self.params is None:
            return SINRChannel(positions)
        return SINRChannel(positions, params=self.params)


# ---------------------------------------------------------------------------
# Sharding

def partition_trials(trials: int, shards: int) -> List[List[int]]:
    """Partition trial indices ``0..trials-1`` into contiguous shards.

    Shard sizes differ by at most one (the first ``trials % shards``
    shards get the extra trial); empty shards are never produced — the
    effective shard count is ``min(trials, shards)``. The layout is part
    of the documented seed-sharding contract (docs/parallelism.md), but
    results never depend on it: trials carry their index and are
    reassembled in order.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive (got {trials})")
    if shards < 1:
        raise ValueError(f"shards must be positive (got {shards})")
    shards = min(shards, trials)
    quotient, remainder = divmod(trials, shards)
    partition: List[List[int]] = []
    start = 0
    for index in range(shards):
        size = quotient + (1 if index < remainder else 0)
        partition.append(list(range(start, start + size)))
        start += size
    return partition


@dataclass(frozen=True)
class FastTrial:
    """How to run one fast-path trial; picklable, so shards ship it."""

    channel_factory: ChannelFactory
    p: float
    max_rounds: int

    mode = "fast"

    @property
    def name(self) -> str:
        return f"fast-simple(p={self.p:g})"

    def kernel(self) -> TrialKernel:
        """:func:`fast_fixed_probability_run`, on the shared channel if
        there is one. The function is looked up in this module's globals
        on every trial, so a wrapper installed there sees every trial."""
        channel = shared_channel(self.channel_factory)

        def kernel(deploy_rng, protocol_rng):
            trial_channel = channel if channel is not None else self.channel_factory(deploy_rng)
            return fast_fixed_probability_run(
                trial_channel, self.p, protocol_rng, max_rounds=self.max_rounds
            )

        return kernel


@dataclass
class _ShardSpec:
    """Everything one worker needs — deliberately pickle-friendly."""

    worker_id: int
    work: object  # EngineTrial | FastTrial
    recording: bool
    probing: bool
    entries: List[TrialEntry]


def _shard_worker(spec: _ShardSpec, results) -> None:
    """Worker entry point: run one shard, stream results through ``results``.

    Module-level (hence picklable) so it works under every start method.
    Exceptions are shipped back as ``("error", ...)`` messages instead of
    dying silently.
    """
    try:
        registry = None
        if spec.recording:
            registry = MetricsRegistry(enabled=True)
            set_registry(registry)
            sink = QueueEventSink(results, spec.worker_id)
            set_sink(sink)
            sink.emit("worker_start", trials=len(spec.entries), mode=spec.work.mode)
        probe_bus = None
        recorder = None
        if spec.probing:
            # Local flight recorder: probes accumulate in-process and the
            # whole columnar snapshot ships back once at shard end (probe
            # volume would swamp the queue trial-by-trial). Monitors run
            # here too — their warnings ride the worker's event sink, so
            # they arrive worker-tagged like every other event.
            from repro.obs.monitors import default_monitors

            probe_bus = ProbeBus(enabled=True)
            recorder = ProbeRecorder()
            probe_bus.subscribe(recorder)
            for monitor in default_monitors():
                probe_bus.subscribe(monitor)
            set_probe_bus(probe_bus)

        run_entries(
            spec.entries,
            spec.work.kernel(),
            lambda *reported: results.put(("trial", spec.worker_id, reported)),
            probe_bus,
        )

        if spec.probing:
            probe_bus.finish()
            results.put(("probes", spec.worker_id, recorder.snapshot()))
        if spec.recording:
            results.put(("metrics", spec.worker_id, registry.snapshot()))
        results.put(("done", spec.worker_id))
    except BaseException:
        results.put(("error", spec.worker_id, traceback.format_exc()))


def _execute_sharded(work, trials: int, seed: SeedLike, workers: int) -> TrialStats:
    """Shard the trials of ``work`` (an
    :class:`~repro.sim.runner.EngineTrial` or a :class:`FastTrial`)
    across worker processes.

    Failure model (docs/parallelism.md): a shard whose worker dies — a
    nonzero exit code, an exception shipped back as an ``error``
    message, or a clean exit that never reported ``done`` (lost queue) —
    is re-executed in a fresh process, up to
    :data:`DEFAULT_SHARD_ATTEMPTS` total attempts with exponential
    backoff, while every other shard's completed trials are kept. Seed
    sharding makes the retry bit-exact: a re-executed shard reproduces
    exactly the trials the dead worker owed, so retries are invisible in
    the results. Only when a shard
    exhausts its attempts does the run raise ``RuntimeError``. Any
    exception in the parent (including ``KeyboardInterrupt``) terminates
    the workers promptly instead of waiting for their shards to finish.
    """
    obs = get_registry()
    recording = obs.enabled
    sink = get_sink() if recording else None
    probe_bus = get_probe_bus()
    probing = probe_bus.enabled

    entries = trial_entries(seed, trials)
    shards = partition_trials(trials, workers)
    context = multiprocessing.get_context(_START_METHOD)
    results = context.Queue()
    specs = [
        _ShardSpec(
            worker_id=worker_id,
            work=work,
            recording=recording,
            probing=probing,
            entries=[entries[trial] for trial in shard],
        )
        for worker_id, shard in enumerate(shards)
    ]

    recorder = TrialRecorder(work.name, trials, workers=len(shards))
    processes: Dict[int, object] = {}
    attempts: Dict[int, int] = {}

    def _spawn(worker_id: int) -> None:
        attempts[worker_id] = attempts.get(worker_id, 0) + 1
        process = context.Process(
            target=_shard_worker, args=(specs[worker_id], results), daemon=True
        )
        process.start()
        processes[worker_id] = process

    pending = set(range(len(specs)))
    for worker_id in range(len(specs)):
        _spawn(worker_id)

    probe_snapshots: Dict[int, Dict[str, np.ndarray]] = {}
    clean_exit = False

    def _retry_or_fail(worker_id: int, reason: str) -> None:
        """Reap a failed shard and re-spawn it, or raise once exhausted.

        Only this shard is re-executed; every other shard's completed
        trials stay in the recorder. Trials the dead attempt already
        delivered come again from the retry, bit-identical by the
        seed-sharding contract, and the recorder keeps the first copy.
        """
        process = processes[worker_id]
        # Reap by graceful join: an errored worker is already exiting by
        # itself, and terminating it mid-exit can kill its queue feeder
        # thread while it holds the queue's shared write lock — which
        # would deadlock every retried worker's ``put`` forever. Only a
        # worker that refuses to die gets terminated.
        process.join(timeout=_REAP_GRACE_SECONDS)
        if process.is_alive():
            process.terminate()
            process.join()
        if attempts[worker_id] >= DEFAULT_SHARD_ATTEMPTS:
            raise RuntimeError(
                f"parallel trial worker failed "
                f"(shard {worker_id}, {attempts[worker_id]} attempt(s)):\n{reason}"
            )
        delay = _RETRY_BACKOFF_SECONDS * (2 ** (attempts[worker_id] - 1))
        if sink is not None:
            sink.emit(
                "shard_retry",
                worker_id=worker_id,
                attempt=attempts[worker_id] + 1,
                max_attempts=DEFAULT_SHARD_ATTEMPTS,
                backoff_s=delay,
                reason=reason.strip().splitlines()[-1] if reason.strip() else reason,
            )
        if recording:
            obs.counter("runner.shard_retries").inc()
        time.sleep(delay)
        _spawn(worker_id)
        # The fresh worker deserves a full lost-queue grace window; a
        # stale count could declare it lost the instant it exits.
        nonlocal empty_polls
        empty_polls = 0

    try:
        empty_polls = 0
        while pending:
            try:
                message = results.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                empty_polls += 1
                for worker_id in sorted(pending):
                    exitcode = processes[worker_id].exitcode
                    if exitcode not in (None, 0):
                        _retry_or_fail(
                            worker_id,
                            f"worker process exited with code {exitcode} "
                            "before reporting results",
                        )
                    elif exitcode == 0 and empty_polls >= _LOST_WORKER_EMPTY_POLLS:
                        _retry_or_fail(
                            worker_id,
                            "worker process exited cleanly without reporting "
                            "results (lost queue)",
                        )
                continue
            empty_polls = 0
            kind = message[0]
            if kind == "trial":
                recorder.record(*message[2])
            elif kind == "event":
                if sink is not None:
                    sink.emit(message[2], **message[3])
            elif kind == "metrics":
                if recording:
                    obs.merge_snapshot(message[2])
            elif kind == "probes":
                probe_snapshots[message[1]] = message[2]
            elif kind == "done":
                pending.discard(message[1])
            elif kind == "error":
                _retry_or_fail(message[1], message[2])
        clean_exit = True
    finally:
        # On *any* non-clean exit — a shard out of attempts, lost trials,
        # or an in-flight exception such as KeyboardInterrupt landing in
        # ``results.get`` — terminate live workers before joining; a bare
        # join would block until every shard ran to completion.
        if not clean_exit:
            for process in processes.values():
                if process.is_alive():
                    process.terminate()
        for process in processes.values():
            process.join()
        results.close()

    if probing:
        # Shards own contiguous ascending trial ranges, so absorbing in
        # worker order reproduces the serial recorder's row order exactly
        # (docs/parallelism.md) — no global sort, no reindexing.
        for worker_id in sorted(probe_snapshots):
            probe_bus.absorb(probe_snapshots[worker_id])
    return recorder.finish()


def run_batch(work, trials: int, seed: SeedLike, workers: Optional[int]) -> TrialStats:
    """The one dispatch of :func:`~repro.sim.runner.run_trials` and
    :func:`run_fast_trials`.

    Checks ``trials`` and ``workers`` (``None`` takes the count scoped
    by :func:`default_workers`), then runs the trials of ``work`` (an
    :class:`~repro.sim.runner.EngineTrial` or a :class:`FastTrial`) in
    this process when ``workers`` is 1 or there is one trial, and shards
    them across ``workers`` processes otherwise.
    """
    if workers is None:
        workers = _default_worker_count
    for name, value in (("trials", trials), ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be positive (got {value})")
    if workers == 1 or trials == 1:
        return run_serial(work, trials, seed)
    return _execute_sharded(work, trials, seed, workers)


def run_fast_trials(
    channel_factory: ChannelFactory,
    p: float,
    trials: int,
    seed: SeedLike = 0,
    max_rounds: int = 100_000,
    workers: Optional[int] = None,
) -> TrialStats:
    """Repeat :func:`~repro.sim.fast.fast_fixed_probability_run` over trials.

    The fast-path sibling of :func:`~repro.sim.runner.run_trials`: the
    same dispatch (:func:`run_batch`), seed tree
    (:func:`~repro.sim.runner.trial_entries`), trial loop and
    :class:`~repro.sim.runner.TrialRecorder`, so the same ``workers``
    semantics, ``runner.*`` telemetry, heartbeats and
    :class:`~repro.sim.runner.TrialStats` — but each trial is one
    vectorised execution of the paper's algorithm instead of a
    generic-engine run. Large-``n`` scaling studies (E1/E17, the parallel
    benchmarks) live here. With a :data:`deterministic
    <DETERMINISTIC_ATTR>` factory the channel is built once per shard and
    shared read-only.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"broadcast probability must be in (0, 1] (got {p})")
    return run_batch(FastTrial(channel_factory, p, max_rounds), trials, seed, workers)
