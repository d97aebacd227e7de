"""Parallel trial execution with bit-exact seed sharding.

Every quantitative claim in the paper is statistical, so wall time per
claim is dominated by how fast independent trials can be executed.
:func:`run_trials_parallel` shards a trial batch across a
``multiprocessing`` worker pool while preserving **bit-exact
reproducibility**: for any worker count ``k``,

    ``run_trials_parallel(seed=s, workers=k)``

returns the same per-trial ``rounds`` / ``failures`` as the serial
``run_trials(seed=s)``. The test suite pins this parity.

The seed-sharding contract
--------------------------

The serial runner derives trial ``t``'s two generators (deployment and
protocol) from children ``2t`` and ``2t + 1`` of one
:class:`~numpy.random.SeedSequence` tree rooted at ``seed``. The parallel
runner spawns the *same* tree in the parent
(:func:`repro.sim.seeding.spawn_seed_sequences`), partitions the trial
indices into contiguous shards (shard ``i`` of ``k`` owns trials
``[i * q + min(i, r), ...)`` where ``q, r = divmod(trials, k)``), and
ships each worker its trials' child ``SeedSequence`` objects — tiny,
picklable, and independent of every other child. A worker rebuilds
``default_rng(child)`` locally, so the entropy a trial consumes is a pure
function of ``(seed, trial_index)`` and never of the worker count, the
shard layout or the scheduling order. Results are reassembled in trial
order.

Workers execute :func:`repro.sim.runner.execute_trial` — the *same*
function the serial loop runs — so behavioural parity holds by
construction.

Spawn safety
------------

Task specs are plain picklable dataclasses and the worker entry point is
a module-level function, so every start method works — including
``spawn``, which pickles everything. The default start method is the
platform's (``fork`` on Linux), under which closure-based channel
factories also work; for ``spawn``, use picklable factories such as
:class:`StaticDeploymentFactory` / :class:`UniformDiskFactory` or any
module-level callable.

Telemetry across the process boundary
-------------------------------------

When the parent's registry is enabled, each worker installs a local
enabled :class:`~repro.obs.registry.MetricsRegistry` and a
:class:`~repro.obs.events.QueueEventSink` that forwards every event it
emits — tagged with a ``worker_id`` field — through the result queue into
the parent's global sink. Per-trial timings stream back the same way; the
parent feeds the ``runner.*`` counters, emits the ~1 Hz
``trials_progress`` heartbeats (with a ``workers`` field) and, when each
shard finishes, merges the worker's metrics snapshot into its own
registry (:meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`) so
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
:class:`StaticDeploymentFactory` builds that channel's gain matrix
(``base_gains``) up front, so every trial in the shard gathers its gains
from one read-only matrix instead of computing them from positions.
Per-trial factories leave the matrix unbuilt: a fresh deployment's
trial computes only the gains its rounds touch.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.events import QueueEventSink, get_sink, set_sink
from repro.obs.probe import ProbeBus, ProbeRecorder, get_probe_bus, set_probe_bus
from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.protocols.base import ProtocolFactory
from repro.sim.batched import fast_fixed_probability_batch
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.runner import ChannelFactory, TrialStats, execute_trial
from repro.sim.seeding import SeedLike, spawn_seed_sequences

__all__ = [
    "DEFAULT_SHARD_ATTEMPTS",
    "DETERMINISTIC_ATTR",
    "StaticDeploymentFactory",
    "UniformDiskFactory",
    "default_workers",
    "get_default_workers",
    "set_default_workers",
    "default_batch",
    "get_default_batch",
    "set_default_batch",
    "partition_trials",
    "run_trials_parallel",
    "run_fast_trials",
]

#: Name of the opt-in attribute a channel factory sets (``True``) to
#: declare the deterministic-deployment contract: the factory ignores its
#: ``rng`` argument and the returned channel is reusable across trials
#: (deterministic gain model, no per-trial internal state). Runners then
#: construct the channel once per shard and share it read-only.
DETERMINISTIC_ATTR = "deterministic"

#: Seconds between ``trials_progress`` heartbeat events (matches the
#: serial runner's cadence).
_HEARTBEAT_SECONDS = 1.0

#: Seconds the parent waits on the result queue before re-checking worker
#: liveness.
_POLL_SECONDS = 0.2

#: Default number of attempts a shard gets before the whole run fails
#: (first execution + retries). See the failure model in
#: docs/parallelism.md.
DEFAULT_SHARD_ATTEMPTS = 3

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


def get_default_workers() -> int:
    """The process-wide default worker count ``run_trials`` falls back to."""
    return _default_worker_count


def set_default_workers(workers: int) -> int:
    """Install a new default worker count; returns the previous one."""
    global _default_worker_count
    if workers < 1:
        raise ValueError(f"workers must be positive (got {workers})")
    previous = _default_worker_count
    _default_worker_count = workers
    return previous


@contextlib.contextmanager
def default_workers(workers: int):
    """Scope a default worker count to a ``with`` block.

    ``python -m repro.experiments <id> --workers N`` wraps the experiment
    run in this context, so every ``run_trials`` call inside — none of
    which knows about worker counts — dispatches to the pool.
    """
    previous = set_default_workers(workers)
    try:
        yield
    finally:
        set_default_workers(previous)


# ---------------------------------------------------------------------------
# Batch-size default (the `--batch` CLI plumbing)

_default_batch_size = 1


def get_default_batch() -> int:
    """The process-wide batch size ``run_fast_trials`` falls back to."""
    return _default_batch_size


def set_default_batch(batch: int) -> int:
    """Install a new default batch size; returns the previous one."""
    global _default_batch_size
    if batch < 1:
        raise ValueError(f"batch must be positive (got {batch})")
    previous = _default_batch_size
    _default_batch_size = batch
    return previous


@contextlib.contextmanager
def default_batch(batch: int):
    """Scope a default batch size to a ``with`` block.

    ``python -m repro.experiments <id> --batch B`` wraps the experiment
    run in this context, so every ``run_fast_trials`` call inside — none
    of which knows about batch sizes — executes its trials through the
    batched kernel (:mod:`repro.sim.batched`). Like ``default_workers``
    this is a pure performance knob: per-trial bit-exactness makes the
    batch size invisible in every result.
    """
    previous = set_default_batch(batch)
    try:
        yield
    finally:
        set_default_batch(previous)


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
        # channel, and a trial that gathers its rounds' gains from the
        # matrix takes about half as long as one computing them.
        channel.base_gains
        return channel


@dataclass(frozen=True)
class UniformDiskFactory:
    """Channel factory resampling a uniform-disk deployment per trial.

    The picklable equivalent of the ``lambda rng: SINRChannel(
    uniform_disk(n, rng), ...)`` closures the experiments use — needed
    whenever tasks must cross a ``spawn`` process boundary.
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


@dataclass
class _ShardSpec:
    """Everything one worker needs — deliberately pickle-friendly."""

    worker_id: int
    mode: str  # "engine" | "fast"
    channel_factory: ChannelFactory
    max_rounds: int
    keep_traces: bool
    recording: bool
    probing: bool = False
    #: ``(trial_index, deploy_seed, protocol_seed)`` triples.
    entries: List[Tuple[int, np.random.SeedSequence, np.random.SeedSequence]] = field(
        default_factory=list
    )
    protocol: Optional[ProtocolFactory] = None  # engine mode
    p: float = 0.0  # fast mode
    #: Batched-kernel group size for fast mode (1 = per-trial execution).
    batch: int = 1


def _iter_fast_groups(
    channel_factory: ChannelFactory,
    p: float,
    entries: List[Tuple[int, np.random.SeedSequence, np.random.SeedSequence]],
    max_rounds: int,
    batch: int,
    shared_channel,
):
    """Run fast-path entries through the batched kernel, group by group.

    Yields ``(group, outcomes, elapsed)`` where ``group`` is the slice of
    ``entries`` executed together and ``outcomes[i]`` is the
    :class:`~repro.sim.fast.FastRunResult` for ``group[i]`` — bit-exact
    per trial regardless of the grouping (the batched kernel's headline
    guarantee), so both the serial runner and the shard workers share
    this code path and ``workers=K, batch=B`` composes with serial.

    Only a deterministic factory's trials are actually grouped (``batch``
    at a time on the shared channel). A stochastic factory resamples the
    deployment per trial, which leaves the batched kernel nothing to
    fuse — every trial owns a different gain matrix — while holding a
    group of ``(n, n)`` matrices alive measurably slows deployment
    construction; those trials therefore run one at a time. Either way
    the kernel's per-trial bit-exactness makes the grouping invisible in
    the results.
    """
    group_size = batch if shared_channel is not None else 1
    index = 0
    while index < len(entries):
        group = entries[index : index + group_size]
        if shared_channel is not None:
            channels_arg = shared_channel
        else:
            channels_arg = [
                channel_factory(np.random.default_rng(deploy_seed))
                for _, deploy_seed, _ in group
            ]
        rngs = [np.random.default_rng(protocol_seed) for _, _, protocol_seed in group]
        started = time.perf_counter()
        outcomes = fast_fixed_probability_batch(
            channels_arg, p, rngs, max_rounds=max_rounds
        )
        yield group, outcomes, time.perf_counter() - started
        index += len(group)


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
            sink.emit("worker_start", trials=len(spec.entries), mode=spec.mode)
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

        shared_channel = None
        if getattr(spec.channel_factory, DETERMINISTIC_ATTR, False):
            shared_channel = spec.channel_factory(None)

        if (
            spec.mode == "fast"
            and spec.batch > 1
            and len(spec.entries) > 1
            and not spec.probing
        ):
            # Batch within the shard: same seed children, same outcomes
            # (the kernel is bit-exact per trial), so workers x batch
            # composes with serial. Probing shards stay on the per-trial
            # loop below so probe rows keep their global trial indices.
            for group, outcomes, elapsed in _iter_fast_groups(
                spec.channel_factory,
                spec.p,
                spec.entries,
                spec.max_rounds,
                spec.batch,
                shared_channel,
            ):
                per_trial = elapsed / len(group)
                for (trial_index, _, _), outcome in zip(group, outcomes):
                    results.put(
                        (
                            "trial",
                            spec.worker_id,
                            {
                                "trial": trial_index,
                                "solved": outcome.solved,
                                "rounds_to_solve": outcome.rounds_to_solve,
                                "rounds_executed": outcome.rounds_executed,
                                "elapsed": per_trial,
                                "trace": None,
                            },
                        )
                    )
            if spec.recording:
                results.put(("metrics", spec.worker_id, registry.snapshot()))
            results.put(("done", spec.worker_id))
            return

        for trial_index, deploy_seed, protocol_seed in spec.entries:
            deploy_rng = np.random.default_rng(deploy_seed)
            protocol_rng = np.random.default_rng(protocol_seed)
            if probe_bus is not None:
                probe_bus.set_trial(trial_index)
            started = time.perf_counter()
            if spec.mode == "engine":
                trace = execute_trial(
                    spec.channel_factory,
                    spec.protocol,
                    deploy_rng,
                    protocol_rng,
                    spec.max_rounds,
                    spec.keep_traces,
                    channel=shared_channel,
                )
                payload = {
                    "trial": trial_index,
                    "solved": trace.solved,
                    "rounds_to_solve": trace.rounds_to_solve,
                    "rounds_executed": trace.rounds_executed,
                    "elapsed": time.perf_counter() - started,
                    "trace": trace if spec.keep_traces else None,
                }
            else:
                channel = (
                    shared_channel
                    if shared_channel is not None
                    else spec.channel_factory(deploy_rng)
                )
                outcome = fast_fixed_probability_run(
                    channel, spec.p, protocol_rng, max_rounds=spec.max_rounds
                )
                payload = {
                    "trial": trial_index,
                    "solved": outcome.solved,
                    "rounds_to_solve": outcome.rounds_to_solve,
                    "rounds_executed": outcome.rounds_executed,
                    "elapsed": time.perf_counter() - started,
                    "trace": None,
                }
            results.put(("trial", spec.worker_id, payload))

        if spec.probing:
            probe_bus.finish()
            results.put(("probes", spec.worker_id, recorder.snapshot()))
        if spec.recording:
            results.put(("metrics", spec.worker_id, registry.snapshot()))
        results.put(("done", spec.worker_id))
    except BaseException:
        results.put(("error", spec.worker_id, traceback.format_exc()))


def _execute_sharded(
    mode: str,
    channel_factory: ChannelFactory,
    trials: int,
    seed: SeedLike,
    max_rounds: int,
    keep_traces: bool,
    workers: int,
    start_method: Optional[str],
    protocol: Optional[ProtocolFactory],
    p: float,
    protocol_name: str,
    batch: int = 1,
    shard_attempts: int = DEFAULT_SHARD_ATTEMPTS,
) -> TrialStats:
    """Shared parent-side machinery for both execution modes.

    Failure model (docs/parallelism.md): a shard whose worker dies — a
    nonzero exit code, an exception shipped back as an ``error``
    message, or a clean exit that never reported ``done`` (lost queue) —
    is re-executed in a fresh process, up to ``shard_attempts`` total
    attempts with exponential backoff, while every other shard's
    completed trials are kept. Seed sharding makes the retry bit-exact:
    a re-executed shard reproduces exactly the trials the dead worker
    owed, so retries are invisible in the results. Only when a shard
    exhausts its attempts does the run raise ``RuntimeError``. Any
    exception in the parent (including ``KeyboardInterrupt``) terminates
    the workers promptly instead of waiting for their shards to finish.
    """
    if shard_attempts < 1:
        raise ValueError(f"shard_attempts must be positive (got {shard_attempts})")
    obs = get_registry()
    recording = obs.enabled
    sink = get_sink() if recording else None
    probe_bus = get_probe_bus()
    probing = probe_bus.enabled

    sequences = spawn_seed_sequences(seed, 2 * trials)
    shards = partition_trials(trials, workers)
    context = multiprocessing.get_context(start_method)
    results = context.Queue()
    specs = [
        _ShardSpec(
            worker_id=worker_id,
            mode=mode,
            channel_factory=channel_factory,
            max_rounds=max_rounds,
            keep_traces=keep_traces,
            recording=recording,
            probing=probing,
            entries=[
                (trial, sequences[2 * trial], sequences[2 * trial + 1])
                for trial in shard
            ],
            protocol=protocol,
            p=p,
            batch=batch,
        )
        for worker_id, shard in enumerate(shards)
    ]

    batch_started = time.perf_counter()
    specs_by_id = {spec.worker_id: spec for spec in specs}
    processes: Dict[int, object] = {}
    attempts: Dict[int, int] = {}

    def _spawn(worker_id: int) -> None:
        attempts[worker_id] = attempts.get(worker_id, 0) + 1
        process = context.Process(
            target=_shard_worker, args=(specs_by_id[worker_id], results), daemon=True
        )
        process.start()
        processes[worker_id] = process

    for spec in specs:
        _spawn(spec.worker_id)

    outcomes: Dict[int, Dict[str, object]] = {}
    probe_snapshots: Dict[int, Dict[str, np.ndarray]] = {}
    pending = {spec.worker_id for spec in specs}
    last_heartbeat = batch_started
    clean_exit = False

    def _retry_or_fail(worker_id: int, reason: str) -> None:
        """Reap a failed shard and re-spawn it, or raise once exhausted.

        Only this shard is re-executed; every other shard's completed
        trials stay in ``outcomes``. Duplicate trial payloads from the
        dead attempt are bit-identical by the seed-sharding contract, so
        overwriting them on retry is harmless.
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
        if attempts[worker_id] >= shard_attempts:
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
                max_attempts=shard_attempts,
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
                payload = message[2]
                # A retried shard re-sends trials its dead predecessor
                # already delivered; count each trial's telemetry once.
                first_delivery = payload["trial"] not in outcomes
                outcomes[payload["trial"]] = payload
                if recording and first_delivery:
                    obs.counter("runner.trials").inc()
                    obs.counter(
                        "runner.solved" if payload["solved"] else "runner.failures"
                    ).inc()
                    obs.histogram("runner.trial_seconds").observe(payload["elapsed"])
                    now = time.perf_counter()
                    if now - last_heartbeat >= _HEARTBEAT_SECONDS:
                        last_heartbeat = now
                        _emit_progress(
                            sink, protocol_name, outcomes, trials, len(shards),
                            now - batch_started,
                        )
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

    if len(outcomes) != trials:
        raise RuntimeError(
            f"parallel run lost trials: expected {trials}, got {len(outcomes)}"
        )
    if probing:
        # Shards own contiguous ascending trial ranges, so absorbing in
        # worker order reproduces the serial recorder's row order exactly
        # (docs/parallelism.md) — no global sort, no reindexing.
        for worker_id in sorted(probe_snapshots):
            probe_bus.absorb(probe_snapshots[worker_id])

    total_wall_time = time.perf_counter() - batch_started
    rounds: List[int] = []
    failures = 0
    traces = [] if keep_traces else None
    total_rounds_executed = 0
    for trial in range(trials):
        payload = outcomes[trial]
        total_rounds_executed += payload["rounds_executed"]
        if payload["solved"]:
            rounds.append(payload["rounds_to_solve"])
        else:
            failures += 1
        if keep_traces:
            traces.append(payload["trace"])

    if recording:
        _emit_progress(
            sink, protocol_name, outcomes, trials, len(shards), total_wall_time
        )

    return TrialStats(
        protocol_name=protocol_name,
        trials=trials,
        rounds=rounds,
        failures=failures,
        traces=traces,
        total_wall_time=total_wall_time,
        total_rounds_executed=total_rounds_executed,
    )


def _emit_progress(sink, protocol_name, outcomes, trials, workers, elapsed) -> None:
    solved = sum(1 for payload in outcomes.values() if payload["solved"])
    sink.emit(
        "trials_progress",
        protocol=protocol_name,
        done=len(outcomes),
        total=trials,
        solved=solved,
        failures=len(outcomes) - solved,
        elapsed_s=elapsed,
        workers=workers,
    )


def run_trials_parallel(
    channel_factory: ChannelFactory,
    protocol: ProtocolFactory,
    trials: int,
    seed: SeedLike = 0,
    max_rounds: int = 100_000,
    keep_traces: bool = False,
    workers: int = 2,
    start_method: Optional[str] = None,
    shard_attempts: int = DEFAULT_SHARD_ATTEMPTS,
) -> TrialStats:
    """Shard ``trials`` across ``workers`` processes; bit-identical results.

    Drop-in parallel equivalent of :func:`repro.sim.runner.run_trials`:
    same arguments, same :class:`~repro.sim.runner.TrialStats` (only the
    wall-time fields reflect the parallel schedule). ``start_method``
    picks the ``multiprocessing`` start method (``None`` = platform
    default; ``"spawn"`` requires picklable ``channel_factory`` and
    ``protocol`` — see the module docstring). A shard whose worker dies
    is re-executed bit-exactly, up to ``shard_attempts`` total attempts
    with exponential backoff, without discarding other shards' completed
    trials (the failure model in docs/parallelism.md).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive (got {trials})")
    if workers < 1:
        raise ValueError(f"workers must be positive (got {workers})")
    if workers == 1 or trials == 1:
        from repro.sim.runner import run_trials

        return run_trials(
            channel_factory,
            protocol,
            trials,
            seed=seed,
            max_rounds=max_rounds,
            keep_traces=keep_traces,
            workers=1,
        )
    return _execute_sharded(
        "engine",
        channel_factory,
        trials,
        seed,
        max_rounds,
        keep_traces,
        workers,
        start_method,
        protocol,
        0.0,
        protocol.name,
        shard_attempts=shard_attempts,
    )


def run_fast_trials(
    channel_factory: ChannelFactory,
    p: float,
    trials: int,
    seed: SeedLike = 0,
    max_rounds: int = 100_000,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    batch: Optional[int] = None,
    shard_attempts: int = DEFAULT_SHARD_ATTEMPTS,
) -> TrialStats:
    """Repeat :func:`~repro.sim.fast.fast_fixed_probability_run` over trials.

    The fast-path sibling of :func:`~repro.sim.runner.run_trials`: the
    same ``(seed, trial)`` generator tree (children ``2t`` / ``2t + 1``
    for deployment and coin flips), the same ``runner.*`` telemetry and
    heartbeats, the same :class:`~repro.sim.runner.TrialStats` — but each
    trial is one vectorised execution of the paper's algorithm instead of
    a generic-engine run. Large-``n`` scaling studies (E1/E17, the
    parallel benchmarks) live here.

    ``workers > 1`` shards trials exactly like ``run_trials_parallel``;
    with a :data:`deterministic <DETERMINISTIC_ATTR>` factory the channel
    is built once per shard and shared read-only.

    ``batch > 1`` executes consecutive trials through the batched kernel
    (:func:`repro.sim.batched.fast_fixed_probability_batch`) — inside
    each shard when combined with ``workers``. Trials keep their own
    generators from the same seed tree and the kernel is bit-exact per
    trial, so like ``workers`` this is a pure performance knob:
    ``workers=K, batch=B`` equals serial for every ``K`` and ``B``
    (pinned by tests). Grouping applies to deterministic factories (the
    shared-deployment reductions are what the kernel fuses); stochastic
    factories resample the deployment per trial and run one at a time
    regardless of ``batch`` — see docs/parallelism.md for the measured
    trade-offs. When the probe bus is enabled, trials run the per-trial
    path regardless of ``batch`` so probe rows keep their trial
    attribution. ``None`` falls back to :func:`get_default_batch` (the
    CLI's ``--batch``).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"broadcast probability must be in (0, 1] (got {p})")
    if trials < 1:
        raise ValueError(f"trials must be positive (got {trials})")
    if workers is None:
        workers = get_default_workers()
    if workers < 1:
        raise ValueError(f"workers must be positive (got {workers})")
    if batch is None:
        batch = get_default_batch()
    if batch < 1:
        raise ValueError(f"batch must be positive (got {batch})")
    name = f"fast-simple(p={p:g})"
    if workers > 1 and trials > 1:
        return _execute_sharded(
            "fast",
            channel_factory,
            trials,
            seed,
            max_rounds,
            False,
            workers,
            start_method,
            None,
            p,
            name,
            batch=batch,
            shard_attempts=shard_attempts,
        )

    obs = get_registry()
    recording = obs.enabled
    sink = get_sink() if recording else None
    last_heartbeat = time.perf_counter()
    probe_bus = get_probe_bus()
    probing = probe_bus.enabled

    shared_channel = None
    if getattr(channel_factory, DETERMINISTIC_ATTR, False):
        shared_channel = channel_factory(None)
    sequences = spawn_seed_sequences(seed, 2 * trials)
    rounds: List[int] = []
    failures = 0
    total_rounds_executed = 0
    batch_started = time.perf_counter()

    def record_outcome(trial: int, outcome, trial_elapsed: float) -> None:
        nonlocal total_rounds_executed, failures, last_heartbeat
        total_rounds_executed += outcome.rounds_executed
        if outcome.solved:
            rounds.append(outcome.rounds_to_solve)
        else:
            failures += 1
        if recording:
            obs.counter("runner.trials").inc()
            obs.counter("runner.solved" if outcome.solved else "runner.failures").inc()
            obs.histogram("runner.trial_seconds").observe(trial_elapsed)
            now = time.perf_counter()
            if now - last_heartbeat >= _HEARTBEAT_SECONDS or trial == trials - 1:
                last_heartbeat = now
                sink.emit(
                    "trials_progress",
                    protocol=name,
                    done=trial + 1,
                    total=trials,
                    solved=len(rounds),
                    failures=failures,
                    elapsed_s=now - batch_started,
                )

    if batch > 1 and trials > 1 and not probing:
        entries = [
            (trial, sequences[2 * trial], sequences[2 * trial + 1])
            for trial in range(trials)
        ]
        for group, outcomes, elapsed in _iter_fast_groups(
            channel_factory, p, entries, max_rounds, batch, shared_channel
        ):
            per_trial = elapsed / len(group)
            for (trial, _, _), outcome in zip(group, outcomes):
                record_outcome(trial, outcome, per_trial)
        return TrialStats(
            protocol_name=name,
            trials=trials,
            rounds=rounds,
            failures=failures,
            traces=None,
            total_wall_time=time.perf_counter() - batch_started,
            total_rounds_executed=total_rounds_executed,
        )

    for trial in range(trials):
        deploy_rng = np.random.default_rng(sequences[2 * trial])
        run_rng = np.random.default_rng(sequences[2 * trial + 1])
        if probing:
            probe_bus.set_trial(trial)
        trial_started = time.perf_counter()
        channel = shared_channel if shared_channel is not None else channel_factory(deploy_rng)
        outcome = fast_fixed_probability_run(channel, p, run_rng, max_rounds=max_rounds)
        record_outcome(trial, outcome, time.perf_counter() - trial_started)

    return TrialStats(
        protocol_name=name,
        trials=trials,
        rounds=rounds,
        failures=failures,
        traces=None,
        total_wall_time=time.perf_counter() - batch_started,
        total_rounds_executed=total_rounds_executed,
    )
