"""Parallel trial execution: seed-sharding parity, telemetry, contracts.

The load-bearing tests here are the parity ones: for a fixed seed, the
sharded runner must return **bit-identical** per-trial results to the
serial runner for any worker count, for both a deterministic and a
stochastic (resampled-per-trial) channel factory. Everything else —
event forwarding, metrics merging, partition shapes — supports that
guarantee.
"""

import math
import multiprocessing
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.obs.events import JsonlEventSink, read_events, set_sink
from repro.obs.probe import ProbeBus, ProbeRecorder, set_probe_bus
from repro.obs.registry import MetricsRegistry, set_registry
from repro.protocols.simple import FixedProbabilityProtocol
import repro.sim.parallel as parallel_module
from repro.sim.parallel import (
    DEFAULT_SHARD_ATTEMPTS,
    StaticDeploymentFactory,
    UniformDiskFactory,
    default_workers,
    partition_trials,
    run_fast_trials,
)
from repro.deploy.topologies import uniform_disk
from repro.sim.runner import run_serial, run_trials
from repro.sim.seeding import generator_from

N = 32
TRIALS = 8
SEED = 424242
MAX_ROUNDS = 4_000

#: One deterministic factory (fixed deployment, channel reused per shard)
#: and one stochastic factory (deployment resampled from each trial's
#: deploy generator) — the two regimes of the seed-sharding contract.
FACTORIES = {
    "deterministic": StaticDeploymentFactory(uniform_disk(N, generator_from(9))),
    "stochastic": UniformDiskFactory(N),
}


def _protocol():
    return FixedProbabilityProtocol(p=0.1)


def _spy_sharded(monkeypatch):
    """Record ``(mode, workers)`` of every batch the dispatch shards.

    The batch still runs, serially (results equal by the seed-sharding
    contract); the returned list grows by one entry per sharded batch.
    """
    sharded = []

    def spy(work, trials, seed, workers):
        sharded.append((work.mode, workers))
        return run_serial(work, trials, seed)

    monkeypatch.setattr(parallel_module, "_execute_sharded", spy)
    return sharded


class TestEngineParity:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("kind", sorted(FACTORIES))
    def test_parallel_matches_serial(self, kind, workers):
        factory = FACTORIES[kind]
        serial = run_trials(
            factory, _protocol(), trials=TRIALS, seed=SEED, max_rounds=MAX_ROUNDS
        )
        parallel = run_trials(
            factory,
            _protocol(),
            trials=TRIALS,
            seed=SEED,
            max_rounds=MAX_ROUNDS,
            workers=workers,
        )
        assert parallel.rounds == serial.rounds
        assert parallel.failures == serial.failures
        assert parallel.total_rounds_executed == serial.total_rounds_executed
        assert parallel.trials == serial.trials
        assert parallel.protocol_name == serial.protocol_name

    def test_workers_kwarg_on_run_trials_dispatches(self, monkeypatch):
        # Parity alone cannot tell a sharded run from a serial one: both
        # runners must really hand workers > 1 to the sharded executor.
        sharded = _spy_sharded(monkeypatch)
        factory = FACTORIES["stochastic"]
        run_trials(
            factory, _protocol(), trials=TRIALS, seed=SEED, max_rounds=MAX_ROUNDS, workers=2
        )
        run_fast_trials(
            factory, 0.1, trials=TRIALS, seed=SEED, max_rounds=MAX_ROUNDS, workers=3
        )
        assert sharded == [("engine", 2), ("fast", 3)]

    def test_spawn_start_method_with_picklable_spec(self, monkeypatch):
        # The spec must survive full pickling — this is the spawn-safety
        # contract; 4 trials keep the two fresh interpreters cheap.
        monkeypatch.setattr(parallel_module, "_START_METHOD", "spawn")
        factory = FACTORIES["deterministic"]
        serial = run_trials(
            factory, _protocol(), trials=4, seed=SEED, max_rounds=MAX_ROUNDS
        )
        parallel = run_trials(
            factory,
            _protocol(),
            trials=4,
            seed=SEED,
            max_rounds=MAX_ROUNDS,
            workers=2,
        )
        assert parallel.rounds == serial.rounds

    def test_more_workers_than_trials(self):
        factory = FACTORIES["stochastic"]
        serial = run_trials(
            factory, _protocol(), trials=3, seed=SEED, max_rounds=MAX_ROUNDS
        )
        parallel = run_trials(
            factory,
            _protocol(),
            trials=3,
            seed=SEED,
            max_rounds=MAX_ROUNDS,
            workers=8,
        )
        assert parallel.rounds == serial.rounds

    def test_worker_failure_propagates(self):
        def exploding_factory(rng):
            raise RuntimeError("boom in worker")

        with pytest.raises(RuntimeError, match="parallel trial worker failed"):
            run_trials(
                exploding_factory,
                _protocol(),
                trials=4,
                seed=SEED,
                workers=2,
            )

    def test_workers_validation(self):
        # Both runners reject a non-positive worker count or trial count
        # through their shared dispatch, instead of running serially.
        factory = FACTORIES["stochastic"]
        runners = {
            "engine": lambda **kwargs: run_trials(factory, _protocol(), **kwargs),
            "fast": lambda **kwargs: run_fast_trials(factory, 0.1, **kwargs),
        }
        for name, runner in runners.items():
            for workers in (0, -3):
                message = rf"workers must be positive \(got {workers}\)"
                with pytest.raises(ValueError, match=message):
                    runner(trials=2, seed=0, workers=workers)
            for workers in (1, 2):
                with pytest.raises(ValueError, match=r"trials must be positive \(got 0\)"):
                    runner(trials=0, seed=0, workers=workers)


class TestFastParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial(self, workers):
        factory = FACTORIES["deterministic"]
        serial = run_fast_trials(
            factory, 0.1, trials=TRIALS, seed=SEED, max_rounds=MAX_ROUNDS, workers=1
        )
        parallel = run_fast_trials(
            factory,
            0.1,
            trials=TRIALS,
            seed=SEED,
            max_rounds=MAX_ROUNDS,
            workers=workers,
        )
        assert parallel.rounds == serial.rounds
        assert parallel.failures == serial.failures
        assert parallel.total_rounds_executed == serial.total_rounds_executed

    def test_matches_manual_fast_loop(self):
        # run_fast_trials must consume the same (seed, trial) tree the
        # experiments' historical inline loops used.
        from repro.sim.fast import fast_fixed_probability_run
        from repro.sim.seeding import spawn_generators

        factory = UniformDiskFactory(N)
        stats = run_fast_trials(factory, 0.1, trials=5, seed=(7, N), workers=1)
        generators = spawn_generators((7, N), 10)
        expected = []
        for trial in range(5):
            channel = factory(generators[2 * trial])
            outcome = fast_fixed_probability_run(
                channel, 0.1, generators[2 * trial + 1], max_rounds=100_000
            )
            if outcome.solved:
                expected.append(outcome.rounds_to_solve)
        assert stats.rounds == expected

    def test_p_validation(self):
        with pytest.raises(ValueError, match="probability"):
            run_fast_trials(FACTORIES["deterministic"], 1.5, trials=2)


class TestTelemetryParity:
    def _run(self, tmp_path, label, workers, fast=False):
        registry = MetricsRegistry(enabled=True)
        sink = JsonlEventSink(tmp_path / f"{label}.jsonl")
        previous_registry = set_registry(registry)
        previous_sink = set_sink(sink)
        try:
            if fast:
                stats = run_fast_trials(
                    FACTORIES["stochastic"],
                    0.1,
                    trials=TRIALS,
                    seed=SEED,
                    max_rounds=MAX_ROUNDS,
                    workers=workers,
                )
            else:
                stats = run_trials(
                    FACTORIES["stochastic"],
                    _protocol(),
                    trials=TRIALS,
                    seed=SEED,
                    max_rounds=MAX_ROUNDS,
                    workers=workers,
                )
        finally:
            set_registry(previous_registry)
            set_sink(previous_sink)
            sink.close()
        return stats, registry.snapshot(), read_events(tmp_path / f"{label}.jsonl")

    @staticmethod
    def _final_progress(events):
        return [e for e in events if e["event"] == "trials_progress"][-1]

    @staticmethod
    def _non_timing(metrics):
        return {
            name: value for name, value in metrics.items() if not name.endswith("_seconds")
        }

    @pytest.mark.parametrize("workers", [2, 4])
    def test_counters_and_progress_events_match_serial(self, tmp_path, workers):
        serial_stats, serial_metrics, serial_events = self._run(
            tmp_path, "serial", 1
        )
        parallel_stats, parallel_metrics, parallel_events = self._run(
            tmp_path, f"w{workers}", workers
        )
        assert parallel_stats.rounds == serial_stats.rounds

        # The same work must be accounted: trial counts exactly, and the
        # engine-side counters the workers recorded merge to serial totals.
        for name in ("runner.trials", "runner.solved", "sim.rounds", "sim.executions"):
            assert parallel_metrics[name]["value"] == serial_metrics[name]["value"], name
        assert (
            parallel_metrics["runner.trial_seconds"]["count"]
            == serial_metrics["runner.trial_seconds"]["count"]
        )

        # Both runs finish with a progress event covering every trial.
        final_serial = [e for e in serial_events if e["event"] == "trials_progress"][-1]
        final_parallel = [
            e for e in parallel_events if e["event"] == "trials_progress"
        ][-1]
        for key in ("done", "total", "solved", "failures", "protocol"):
            assert final_parallel[key] == final_serial[key], key
        assert final_parallel["workers"] == workers

    def test_fast_counters_match_serial(self, tmp_path):
        # The fast path records through the same recorder: every metric
        # except the timings, in the same creation order, and the final
        # heartbeat equal serial's for any worker count.
        fast_serial_stats, fast_serial_metrics, fast_serial_events = self._run(
            tmp_path, "fast_serial", 1, fast=True
        )
        final_fast_serial = self._final_progress(fast_serial_events)
        assert final_fast_serial["workers"] == 1
        assert fast_serial_metrics["fast.executions"]["value"] == TRIALS
        for workers in (2, 4):
            fast_stats, fast_metrics, fast_events = self._run(
                tmp_path, f"fast_w{workers}", workers, fast=True
            )
            assert fast_stats.rounds == fast_serial_stats.rounds
            assert fast_metrics["runner.trials"]["value"] == TRIALS
            assert self._non_timing(fast_metrics) == self._non_timing(
                fast_serial_metrics
            )
            assert list(self._non_timing(fast_metrics)) == list(
                self._non_timing(fast_serial_metrics)
            )
            assert (
                fast_metrics["runner.trial_seconds"]["count"]
                == fast_serial_metrics["runner.trial_seconds"]["count"]
            )
            final_fast = self._final_progress(fast_events)
            for key in ("done", "total", "solved", "failures", "protocol"):
                assert final_fast[key] == final_fast_serial[key], key
            assert final_fast["workers"] == workers

    def test_worker_events_carry_worker_id(self, tmp_path):
        _, _, events = self._run(tmp_path, "tagged", 2)
        worker_starts = [e for e in events if e["event"] == "worker_start"]
        assert len(worker_starts) == 2
        assert sorted(e["worker_id"] for e in worker_starts) == [0, 1]


class TestProbeParity:
    """Workers merge probe streams back into exactly the serial artifact.

    Workers own contiguous ascending trial ranges and the parent absorbs
    their snapshots in worker-id order, so every probe column — not just
    aggregate stats — must be bit-identical to a serial run's.
    """

    def _probe_run(self, runner, workers):
        bus = ProbeBus(enabled=True)
        recorder = ProbeRecorder()
        bus.subscribe(recorder)
        previous = set_probe_bus(bus)
        try:
            stats = runner(workers)
        finally:
            set_probe_bus(previous)
        return stats, recorder.snapshot()

    def _assert_snapshots_equal(self, serial, parallel):
        assert set(parallel) == set(serial)
        for column in serial:
            assert np.array_equal(parallel[column], serial[column]), column

    @pytest.mark.parametrize("workers", [2, 3])
    def test_engine_probe_artifacts_match_serial(self, workers):
        def runner(w):
            return run_trials(
                FACTORIES["deterministic"],
                _protocol(),
                trials=6,
                seed=SEED,
                max_rounds=MAX_ROUNDS,
                workers=w,
            )

        serial_stats, serial_snap = self._probe_run(runner, 1)
        parallel_stats, parallel_snap = self._probe_run(runner, workers)
        assert parallel_stats.rounds == serial_stats.rounds
        assert serial_snap["exec_trial"].size == 6
        assert serial_snap["rounds_trial"].size > 0
        assert serial_snap["sinr_trial"].size > 0
        self._assert_snapshots_equal(serial_snap, parallel_snap)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_fast_probe_artifacts_match_serial(self, workers):
        def runner(w):
            return run_fast_trials(
                FACTORIES["deterministic"],
                0.1,
                trials=6,
                seed=SEED,
                max_rounds=MAX_ROUNDS,
                workers=w,
            )

        serial_stats, serial_snap = self._probe_run(runner, 1)
        parallel_stats, parallel_snap = self._probe_run(runner, workers)
        assert parallel_stats.rounds == serial_stats.rounds
        assert serial_snap["exec_trial"].size == 6
        self._assert_snapshots_equal(serial_snap, parallel_snap)

    def test_probes_do_not_perturb_results(self):
        def runner(w):
            return run_fast_trials(
                FACTORIES["deterministic"],
                0.1,
                trials=4,
                seed=SEED,
                max_rounds=MAX_ROUNDS,
                workers=w,
            )

        bare = runner(1)
        probed, _ = self._probe_run(runner, 1)
        assert probed.rounds == bare.rounds


class TestPartition:
    def test_contiguous_and_balanced(self):
        partition = partition_trials(10, 4)
        assert partition == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]

    def test_covers_every_trial_exactly_once(self):
        for trials in (1, 5, 16, 31):
            for shards in (1, 2, 3, 8, 64):
                flat = [t for shard in partition_trials(trials, shards) for t in shard]
                assert flat == list(range(trials))

    def test_never_produces_empty_shards(self):
        assert partition_trials(3, 8) == [[0], [1], [2]]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_trials(0, 2)
        with pytest.raises(ValueError):
            partition_trials(4, 0)


class TestDefaultWorkers:
    """``default_workers`` scopes the count runs with ``workers=None`` take."""

    @staticmethod
    def _dispatched(monkeypatch):
        """The worker count a two-trial ``run_trials`` with no ``workers``
        shards across, or 1 when it runs serially."""
        sharded = _spy_sharded(monkeypatch)
        run_trials(FACTORIES["stochastic"], _protocol(), trials=2, seed=0, max_rounds=64)
        return sharded[-1][1] if sharded else 1

    def test_default_is_serial(self, monkeypatch):
        assert self._dispatched(monkeypatch) == 1

    def test_context_scopes_and_restores(self, monkeypatch):
        with default_workers(3):
            assert self._dispatched(monkeypatch) == 3
            with default_workers(2):
                assert self._dispatched(monkeypatch) == 2
            assert self._dispatched(monkeypatch) == 3
        assert self._dispatched(monkeypatch) == 1

    def test_restores_on_exception(self, monkeypatch):
        with pytest.raises(RuntimeError):
            with default_workers(5):
                raise RuntimeError("x")
        assert self._dispatched(monkeypatch) == 1

    def test_validation(self):
        # The scoped default is checked where a run takes it, by the same
        # dispatch that checks an explicit count.
        with default_workers(0):
            with pytest.raises(ValueError, match=r"workers must be positive \(got 0\)"):
                run_trials(FACTORIES["stochastic"], _protocol(), trials=2, seed=0)
            with pytest.raises(ValueError, match=r"workers must be positive \(got 0\)"):
                run_fast_trials(FACTORIES["stochastic"], 0.1, trials=2, seed=0)

    def test_run_trials_consults_default(self, monkeypatch):
        sharded = _spy_sharded(monkeypatch)
        with default_workers(2):
            run_trials(
                FACTORIES["stochastic"], _protocol(), trials=2, seed=0, max_rounds=64
            )
            run_fast_trials(FACTORIES["stochastic"], 0.1, trials=2, seed=0, max_rounds=64)
        assert sharded == [("engine", 2), ("fast", 2)]


#: Per-process count of successful CrashingFactory constructions; worker
#: processes fork with 0 (the parent never calls the factory).
_FACTORY_CALLS = 0


@dataclass(frozen=True)
class CrashingFactory:
    """Stochastic factory that kills its worker exactly once, then behaves.

    After ``crash_after`` successful constructions in a process, the next
    call races to create ``marker`` (``O_CREAT | O_EXCL`` — a cross-process
    crash-once latch) and the winner dies in the requested ``crash_mode``:

    - ``"raise"``: an exception the worker ships back as an ``error``
      message before unwinding cleanly;
    - ``"exit"``: ``os._exit(17)`` — a hard death with a nonzero exit
      code and no message, like an OOM kill;
    - ``"silent"``: ``os._exit(0)`` — a clean-looking exit that never
      reports its shard (the lost-queue failure mode).

    Every successful construction appends one line to ``call_log``, so a
    test can prove that a retry re-ran *only* the crashed shard: the line
    count must be ``trials`` plus the ``crash_after`` constructions the
    dead attempt got through, never a full re-run's worth.
    """

    n: int
    marker: str
    call_log: str
    crash_after: int = 0
    crash_mode: str = "raise"

    def __call__(self, rng):
        global _FACTORY_CALLS
        if _FACTORY_CALLS >= self.crash_after:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                if self.crash_mode == "exit":
                    os._exit(17)
                elif self.crash_mode == "silent":
                    os._exit(0)
                raise RuntimeError("injected worker crash")
        _FACTORY_CALLS += 1
        with open(self.call_log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        from repro.deploy.topologies import uniform_disk
        from repro.sinr.channel import SINRChannel

        return SINRChannel(uniform_disk(self.n, rng))


class _InterruptingContext:
    """Wrap a multiprocessing context so queue gets raise KeyboardInterrupt.

    Models Ctrl-C landing in the parent's ``results.get`` — the spot the
    parent spends nearly all its time in — after ``after_gets`` calls.
    """

    def __init__(self, context, after_gets):
        self._context = context
        self._after = after_gets
        self._calls = 0

    def Process(self, *args, **kwargs):
        return self._context.Process(*args, **kwargs)

    def Queue(self, *args, **kwargs):
        queue = self._context.Queue(*args, **kwargs)
        original_get = queue.get
        outer = self

        def interrupting_get(*get_args, **get_kwargs):
            outer._calls += 1
            if outer._calls > outer._after:
                raise KeyboardInterrupt()
            return original_get(*get_args, **get_kwargs)

        queue.get = interrupting_get
        return queue


class TestShardRetry:
    """The failure model: crashed shards retry; completed shards don't."""

    def _factory(self, tmp_path, **kwargs):
        return CrashingFactory(
            n=N,
            marker=str(tmp_path / "crashed.marker"),
            call_log=str(tmp_path / "factory.log"),
            **kwargs,
        )

    def _log_lines(self, factory):
        with open(factory.call_log) as handle:
            return handle.readlines()

    def _serial_reference(self, trials):
        return run_trials(
            UniformDiskFactory(N),
            _protocol(),
            trials=trials,
            seed=SEED,
            max_rounds=MAX_ROUNDS,
        )

    @pytest.mark.parametrize("crash_mode", ["raise", "exit"])
    def test_crashed_shard_retries_bit_exactly(self, tmp_path, crash_mode):
        factory = self._factory(tmp_path, crash_after=0, crash_mode=crash_mode)
        serial = self._serial_reference(4)
        parallel = run_trials(
            factory,
            _protocol(),
            trials=4,
            seed=SEED,
            max_rounds=MAX_ROUNDS,
            workers=2,
        )
        assert parallel.rounds == serial.rounds
        assert parallel.failures == serial.failures
        assert parallel.total_rounds_executed == serial.total_rounds_executed
        assert os.path.exists(factory.marker)
        # Exactly one construction per trial: the crashed attempt died
        # before building anything, and the other shard was NOT re-run.
        assert len(self._log_lines(factory)) == 4

    def test_silent_death_detected_and_retried(self, tmp_path):
        # A worker that exits 0 without reporting its shard must be
        # declared lost (after ~1s of queue silence) and re-executed.
        factory = self._factory(tmp_path, crash_after=0, crash_mode="silent")
        serial = self._serial_reference(4)
        parallel = run_trials(
            factory,
            _protocol(),
            trials=4,
            seed=SEED,
            max_rounds=MAX_ROUNDS,
            workers=2,
        )
        assert parallel.rounds == serial.rounds
        assert len(self._log_lines(factory)) == 4

    def test_partial_shard_redelivery_is_deduplicated(self, tmp_path):
        # Crash after one delivered trial: the retry re-sends that trial's
        # payload; results stay bit-exact and telemetry counts it once.
        factory = self._factory(tmp_path, crash_after=1, crash_mode="raise")
        serial = self._serial_reference(4)
        registry = MetricsRegistry(enabled=True)
        sink = JsonlEventSink(tmp_path / "events.jsonl")
        previous_registry = set_registry(registry)
        previous_sink = set_sink(sink)
        try:
            parallel = run_trials(
                factory,
                _protocol(),
                trials=4,
                seed=SEED,
                max_rounds=MAX_ROUNDS,
                workers=2,
            )
        finally:
            set_registry(previous_registry)
            set_sink(previous_sink)
            sink.close()
        assert parallel.rounds == serial.rounds
        metrics = registry.snapshot()
        assert metrics["runner.trials"]["value"] == 4
        assert metrics["runner.shard_retries"]["value"] == 1
        retries = [
            e
            for e in read_events(tmp_path / "events.jsonl")
            if e["event"] == "shard_retry"
        ]
        assert len(retries) == 1
        assert retries[0]["attempt"] == 2
        assert retries[0]["max_attempts"] == DEFAULT_SHARD_ATTEMPTS
        # trials + the one construction the dead attempt completed.
        assert len(self._log_lines(factory)) == 5

    def test_retries_exhausted_raises(self, monkeypatch):
        def exploding_factory(rng):
            raise RuntimeError("boom in worker")

        monkeypatch.setattr(parallel_module, "DEFAULT_SHARD_ATTEMPTS", 2)
        with pytest.raises(RuntimeError, match=r"2 attempt\(s\)"):
            run_trials(
                exploding_factory,
                _protocol(),
                trials=4,
                seed=SEED,
                workers=2,
            )


class TestParentInterrupt:
    def test_keyboard_interrupt_terminates_workers_promptly(self, monkeypatch):
        # Regression: the parent's cleanup used to join workers without
        # terminating them unless a worker had *already* failed, so a
        # Ctrl-C mid-``results.get`` blocked until every shard finished
        # its trials. Slow shards + an immediate interrupt would hang the
        # old code for ~minutes; the fix must return in ~milliseconds.
        def slow_factory(rng):
            time.sleep(60)
            raise AssertionError("factory should have been terminated")

        real_get_context = multiprocessing.get_context
        monkeypatch.setattr(
            parallel_module.multiprocessing,
            "get_context",
            lambda method=None: _InterruptingContext(
                real_get_context(method), after_gets=0
            ),
        )
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_trials(
                slow_factory,
                _protocol(),
                trials=4,
                seed=SEED,
                workers=2,
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"cleanup blocked for {elapsed:.1f}s"
        assert not any(
            process.is_alive() for process in multiprocessing.active_children()
        )


class TestDeterministicFactorySharing:
    def test_static_factory_marked_deterministic(self):
        assert FACTORIES["deterministic"].deterministic is True
        assert not getattr(FACTORIES["stochastic"], "deterministic", False)

    def test_static_factory_ignores_rng(self):
        factory = FACTORIES["deterministic"]
        a = factory(None)
        b = factory(generator_from(123))
        assert np.array_equal(a.base_gains, b.base_gains)
