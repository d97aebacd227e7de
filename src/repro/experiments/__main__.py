"""CLI for running experiments: ``python -m repro.experiments E1 [--full]``.

``python -m repro.experiments all`` runs the whole index and prints a
summary scoreboard at the end — the same rows EXPERIMENTS.md records.
A comma-separated list (``E1,E5,E17``) runs a subset in the given order.

SIGINT and SIGTERM unwind the run cleanly: parallel workers are
terminated, telemetry is flushed and ``manifest.json`` is finalised with
``status="interrupted"`` (exit code 130) instead of leaving truncated
artifacts. Results are pure functions of their configs, so an
interrupted sweep is simply rerun.

``--telemetry-dir DIR`` wraps the run in a
:class:`repro.obs.TelemetrySession`: DIR receives ``manifest.json``
(seeds, configs, git SHA, platform, timestamps), ``events.jsonl`` (the
structured run log, including per-experiment milestones and the runner's
progress heartbeats) and ``metrics.json`` (the final counters/histograms
snapshot from the instrumented hot paths). See docs/observability.md.

``--workers N`` shards every trial batch across ``N`` worker processes
(:mod:`repro.sim.parallel`). Seed sharding keeps results bit-identical
to a serial run, so the flag is purely a wall-time lever; telemetry
events from workers carry a ``worker_id`` field. See
docs/parallelism.md.

``--probes`` (requires ``--telemetry-dir``) additionally records the
round-level flight recorder (:mod:`repro.obs.probe`) into ``probes.npz``
and runs the live theory-invariant monitors; analyze afterwards with
``python -m repro.obs.analyze DIR``. ``--profile`` wraps the run in
cProfile and records per-phase timing plus the hottest functions into
the manifest (and stdout). See docs/observability.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import signal
import sys
import threading
import time
from typing import Iterator

from repro.experiments import REGISTRY


class SweepInterrupted(KeyboardInterrupt):
    """SIGINT/SIGTERM landed while a guarded sweep was running.

    A :class:`KeyboardInterrupt` subclass, so ``except Exception`` blocks
    in experiment code never swallow it, and any handler written for
    Ctrl-C handles a polite ``kill -TERM`` identically.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


@contextlib.contextmanager
def termination_signals_as_interrupts() -> Iterator[None]:
    """Raise :class:`SweepInterrupted` on SIGINT/SIGTERM inside the block.

    SIGTERM — what ``timeout``, process supervisors, and OOM-adjacent
    babysitters send — normally kills Python without unwinding, leaving
    live worker processes and truncated artifacts. Inside this context
    both signals raise through the sweep loop instead, so ``finally``
    blocks terminate workers and the telemetry session can finalise
    ``manifest.json`` with ``status="interrupted"``. Previous handlers
    are restored on exit. Off the main thread (where CPython forbids
    ``signal.signal``) the context is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise SweepInterrupted(signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            continue
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _run_one(experiment_id: str, config) -> "tuple":
    module = REGISTRY[experiment_id]
    started = time.time()
    result = module.run(config)
    elapsed = time.time() - started
    print(result.format())
    print(f"  ({elapsed:.1f}s)")
    print()
    return result, elapsed


def _config_for(experiment_id: str, full: bool):
    config_cls = REGISTRY[experiment_id].Config
    return config_cls.full() if full else config_cls.quick()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the reproduction experiments (see DESIGN.md index).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (E1..E18), a comma-separated list of ids, or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the full measurement preset instead of the quick preset",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="also write the results as a markdown report to PATH",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        help="enable telemetry and write manifest.json, metrics.json and "
        "events.jsonl into DIR (created if missing)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard trial batches across N worker processes; results are "
        "bit-identical to serial execution for any N (see "
        "docs/parallelism.md)",
    )
    parser.add_argument(
        "--probes",
        action="store_true",
        help="record the round-level flight recorder (probes.npz) and run "
        "the theory-invariant monitors; requires --telemetry-dir",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run with cProfile; prints per-phase timing and "
        "hot functions, and records them in manifest.json when "
        "--telemetry-dir is set",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be positive (got {args.workers})")
    if args.probes and not args.telemetry_dir:
        parser.error("--probes requires --telemetry-dir (probes.npz needs "
                     "a directory to land in)")

    if args.experiment.lower() == "all":
        ids = sorted(REGISTRY, key=lambda e: int(e[1:]))
    else:
        ids = []
        for token in args.experiment.split(","):
            token = token.strip()
            if not token:
                continue
            experiment_id = token.upper()
            if experiment_id not in REGISTRY:
                parser.error(
                    f"unknown experiment {token!r}; "
                    f"choose from {sorted(REGISTRY)} or 'all'"
                )
            if experiment_id not in ids:
                ids.append(experiment_id)
        if not ids:
            parser.error(
                f"no experiment ids in {args.experiment!r}; "
                f"choose from {sorted(REGISTRY)} or 'all'"
            )

    preset = "full" if args.full else "quick"
    configs = {experiment_id: _config_for(experiment_id, args.full) for experiment_id in ids}

    session = None
    if args.telemetry_dir:
        from repro.obs import TelemetrySession

        session = TelemetrySession(
            args.telemetry_dir,
            command="python -m repro.experiments " + " ".join(argv or sys.argv[1:]),
            seed={
                experiment_id: getattr(config, "seed", None)
                for experiment_id, config in configs.items()
            },
            config={
                "preset": preset,
                "workers": args.workers,
                "probes": args.probes,
                "experiments": {
                    experiment_id: dataclasses.asdict(config)
                    for experiment_id, config in configs.items()
                },
            },
            probes=args.probes,
        )
        session.start()

    from repro.sim.parallel import default_workers

    profiler = None
    profile_report = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    def _finalise_profile():
        """Stop the profiler and build its report exactly once."""
        nonlocal profiler, profile_report
        if profiler is None:
            return
        from repro.obs.profiling import build_profile_report

        profiler.disable()
        profile_report = build_profile_report(profiler)
        if session is not None:
            session.set_profile(profile_report)
        profiler = None

    scoreboard = []
    results = []
    try:
        with termination_signals_as_interrupts(), default_workers(args.workers):
            if profiler is not None:
                profiler.enable()
            for experiment_id in ids:
                if session is not None:
                    session.emit(
                        "experiment_start", experiment=experiment_id, preset=preset
                    )
                result, elapsed = _run_one(experiment_id, configs[experiment_id])
                if session is not None:
                    session.emit(
                        "experiment_end",
                        experiment=experiment_id,
                        passed=result.passed,
                        elapsed_s=elapsed,
                        checks={name: bool(ok) for name, ok in result.checks.items()},
                    )
                scoreboard.append((experiment_id, result.passed, elapsed))
                results.append(result)
    except KeyboardInterrupt as interrupt:
        _finalise_profile()
        if session is not None:
            session.emit(
                "sweep_interrupted",
                completed=len(scoreboard),
                total=len(ids),
                signum=getattr(interrupt, "signum", None),
            )
            session.finish(status="interrupted")
            session = None
        print(
            f"interrupted after {len(scoreboard)}/{len(ids)} experiment(s)",
            file=sys.stderr,
        )
        return 130
    except BaseException:
        _finalise_profile()
        if session is not None:
            session.finish(status="failed")
            session = None
        raise
    finally:
        _finalise_profile()
        if session is not None:
            session.finish(status="completed")

    if profile_report is not None:
        from repro.obs.profiling import format_profile_report

        print(format_profile_report(profile_report))
        print()

    if len(ids) > 1:
        print("== scoreboard ==")
        for experiment_id, passed, elapsed in scoreboard:
            print(
                f"  {experiment_id:<4} {'PASS' if passed else 'FAIL'}  ({elapsed:.1f}s)"
            )
    if args.telemetry_dir:
        print(f"telemetry written to {args.telemetry_dir}")
        if args.probes:
            print(
                "probes recorded — analyze with: "
                f"python -m repro.obs.analyze {args.telemetry_dir}"
            )
    if args.report:
        from repro.reporting.markdown import write_report

        write_report(
            results,
            args.report,
            title="Contention Resolution on a Fading Channel — measured results",
            preamble=f"Preset: `{preset}`. Generated by `python -m repro.experiments`.",
        )
        print(f"report written to {args.report}")
    return 0 if all(passed for _, passed, _ in scoreboard) else 1


if __name__ == "__main__":
    sys.exit(main())
