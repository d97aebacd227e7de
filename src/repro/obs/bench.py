"""Machine-readable core benchmarks: the source of ``BENCH_core.json``.

This harness times the library's hot paths and the quick presets of a
few experiments end to end, and writes one JSON record per run, so the
repo carries a perf trajectory that ``tools/bench_diff.py`` can regress
against::

    PYTHONPATH=src python -m repro.obs.bench --output BENCH_core.json

Record format (``repro-bench`` version 1)::

    {
        "format": "repro-bench",
        "version": 1,
        "created_at": "...",
        "environment": {...},            # platform + versions + git SHA
        "benchmarks": {
            "<name>": {
                "wall_time_s": 0.0123,   # best-of-repeats per call
                "mean_s": 0.0130,
                "repeats": 5,
                "rounds": 41,            # execution benchmarks only
                "rounds_per_sec": 3300.0,
                "peak_active": 256
            }
        }
    }

Timing policy: each benchmark is repeated ``--repeats`` times and the
**minimum** is reported (least-noise estimator for a deterministic
workload); the mean rides along for jitter visibility. The repeats are
interleaved: each pass runs every benchmark once, in order, so a slow
phase of a shared host falls on all entries alike instead of on the few
that happened to run through it. Benchmarks are seeded, so the work is
identical run to run and machine to machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.manifest import collect_environment, collect_git_sha

__all__ = [
    "BENCH_FORMAT",
    "BENCH_VERSION",
    "core_benchmarks",
    "experiment_benchmarks",
    "run_benchmarks",
    "write_bench_record",
    "load_bench_record",
    "main",
]

PathLike = Union[str, Path]

BENCH_FORMAT = "repro-bench"
BENCH_VERSION = 1

#: A benchmark body: runs the workload once and returns extra stats
#: (``rounds``, ``peak_active``) or an empty dict.
BenchFn = Callable[[], Dict[str, float]]


def _setup(n: int):
    """Deterministic shared fixtures (positions + channel) for one size."""
    from repro.deploy.topologies import uniform_disk
    from repro.sim.seeding import generator_from
    from repro.sinr.channel import SINRChannel

    positions = uniform_disk(n, generator_from(1001))
    channel = SINRChannel(positions)
    channel.base_gains  # built once here, gathered from by every run
    return positions, channel


def core_benchmarks(
    n: int = 512,
    fast_n: int = 2048,
    parallel_trials: int = 32,
    large_n: int = 16384,
) -> List[Tuple[str, BenchFn]]:
    """The named hot-path benchmarks.

    ``n`` sizes the generic-engine workloads; ``fast_n`` sizes the
    vectorised fast-path execution (kept larger because that is the
    scaling-study regime it exists for). On one channel and seed,
    ``full_execution_engine`` runs the paper's algorithm and
    ``full_execution_engine_beb`` runs BEB, both through the engine's
    vector steps, and ``full_execution_engine_per_node`` runs the
    carrier-sense tournament, whose feedback reads the measured energy,
    through its per-node step. ``fast_path_execution`` and
    ``fast_path_execution_matrix_free`` run the same unprobed execution,
    so both screen their rounds' gains from the channel's cached
    coordinates; the first channel has its ``(n, n)`` matrix built, as a
    reused deployment does, and gathers its exact refills from it, while
    the second, like a fresh deployment, computes them from positions.
    ``fast_path_execution_p075_n512`` runs the paper's algorithm at E9's
    largest ``p = 0.75`` on a matrix-free channel of ``n`` nodes,
    E9 full's size: ~1,600 mostly small rounds, so it tracks the
    per-round cost. ``fast_path_execution_n16384`` times one fresh trial at
    ``large_n`` nodes (deployment, channel and execution; the matrix is
    never built), the regime where each round decodes block by block.
    ``deployment_uniform_disk_n2048`` times the sampler alone, with
    ``deployment_uniform_disk_n64`` (16 small deployments) and
    ``deployment_clustered_4x16`` (16 rejection-heavy ones) beside it,
    and ``gain_matrix_construction`` a channel plus its gain matrix.
    ``parallel_trials`` sizes the
    ``parallel_trials_w{1,2,4}`` scaling benchmarks — the same large-``n``
    fast-path trial batch sharded over 1/2/4 worker processes
    (:mod:`repro.sim.parallel`), so the record tracks parallel speedup
    over time. Those entries carry ``workers`` and ``cpu_count``; the
    w4/w1 wall-time ratio is only meaningful relative to ``cpu_count``
    (a 1-core machine correctly reports ~1x), which is why
    ``tools/bench_diff.py`` reports but never gates it. Tests shrink all
    the knobs.
    """
    from repro.analysis.linkclasses import link_class_partition
    from repro.deploy.topologies import clustered, uniform_disk
    from repro.protocols.backoff import BinaryExponentialBackoffProtocol
    from repro.protocols.carrier_sense import (
        CarrierSenseTournamentProtocol,
        carrier_sense_threshold,
    )
    from repro.protocols.simple import FixedProbabilityProtocol
    from repro.sim.engine import Simulation
    from repro.sim.fast import fast_fixed_probability_run
    from repro.sim.seeding import generator_from
    from repro.sinr.channel import SINRChannel

    positions, channel = _setup(n)
    _, fast_channel = _setup(fast_n)
    resolve_rng = generator_from(1002)
    transmitters = sorted(
        resolve_rng.choice(n, size=max(1, n // 10), replace=False).tolist()
    )

    def gain_matrix_construction() -> Dict[str, float]:
        SINRChannel(positions).base_gains
        return {}

    def deployment_uniform_disk_n2048() -> Dict[str, float]:
        uniform_disk(2048, generator_from(1001))
        return {}

    def deployment_uniform_disk_n64() -> Dict[str, float]:
        # Small deployments are many short sampler rounds: per-round cost.
        for seed in range(16):
            uniform_disk(64, generator_from(seed))
        return {"calls": 16}

    def deployment_clustered_4x16() -> Dict[str, float]:
        # Dense clusters: most candidates are rejected, round after round.
        for seed in range(16):
            clustered(4, 16, generator_from(seed))
        return {"calls": 16}

    def single_round_resolve() -> Dict[str, float]:
        # One resolve is ~tens of microseconds at n=512; batch it so the
        # clock sees real work, then report per-call time via "calls".
        calls = 50
        for _ in range(calls):
            channel.resolve(transmitters)
        return {"calls": calls}

    def engine_execution(protocol) -> BenchFn:
        def bench() -> Dict[str, float]:
            trace = Simulation(
                channel,
                protocol,
                rng=generator_from(1003),
                max_rounds=50_000,
                keep_records=False,
            ).run()
            return {
                "rounds": trace.rounds_executed,
                "peak_active": channel.n,
                "solved": trace.solved,
            }

        return bench

    def fast_execution(channel, p: float = 0.1) -> Dict[str, float]:
        result = fast_fixed_probability_run(
            channel, p=p, rng=generator_from(1004), max_rounds=50_000
        )
        return {
            "rounds": result.rounds_executed,
            "peak_active": max(result.active_counts, default=0),
            "solved": result.solved,
        }

    def fast_path_execution() -> Dict[str, float]:
        return fast_execution(fast_channel)

    # The same deployment and seed on a channel whose gain matrix is never
    # built: every exact refill computes its gains from positions.
    free_channel = SINRChannel(fast_channel.positions)

    def fast_path_execution_matrix_free() -> Dict[str, float]:
        return fast_execution(free_channel)

    # E9's largest p on its full size: many rounds on a small, fresh
    # channel, most of which knock nobody out.
    e9_channel = SINRChannel(positions)

    def fast_path_execution_p075_n512() -> Dict[str, float]:
        return fast_execution(e9_channel, p=0.75)

    def fast_path_execution_n16384() -> Dict[str, float]:
        # Deployed inside the timing, like a fresh trial, and listed last:
        # its large temporaries cannot shift the heap state (and so the
        # timings) of the first pass's other entries, whose best time
        # the interleaved passes keep.
        return fast_execution(SINRChannel(uniform_disk(large_n, generator_from(1001))))

    def fast_path_execution_probes() -> Dict[str, float]:
        # The identical workload with the round-level flight recorder on
        # (recorder subscribed, no monitors) — committing both entries to
        # BENCH_core.json keeps the probes-enabled overhead an explicit,
        # tracked number and lets the gate watch the disabled path.
        from repro.obs.probe import ProbeBus, ProbeRecorder, set_probe_bus

        bus = ProbeBus(enabled=True)
        recorder = ProbeRecorder()
        bus.subscribe(recorder)
        previous = set_probe_bus(bus)
        try:
            entry = fast_execution(fast_channel)
        finally:
            set_probe_bus(previous)
        entry["probe_rounds"] = recorder.rounds_recorded
        return entry

    def link_class_partition_cost() -> Dict[str, float]:
        partition = link_class_partition(positions)
        return {"classes": len(partition.members)}

    import os

    from repro.sim.parallel import StaticDeploymentFactory, run_fast_trials

    fast_positions = positions if fast_n == n else _setup(fast_n)[0]
    parallel_factory = StaticDeploymentFactory(fast_positions)

    def parallel_trials_bench(workers: int) -> BenchFn:
        def bench() -> Dict[str, float]:
            stats = run_fast_trials(
                parallel_factory,
                p=0.1,
                trials=parallel_trials,
                seed=1005,
                max_rounds=50_000,
                workers=workers,
            )
            return {
                "rounds": stats.total_rounds_executed,
                "trials": stats.trials,
                "workers": workers,
                "cpu_count": os.cpu_count() or 1,
            }

        return bench

    return [
        ("deployment_uniform_disk_n2048", deployment_uniform_disk_n2048),
        ("deployment_uniform_disk_n64", deployment_uniform_disk_n64),
        ("deployment_clustered_4x16", deployment_clustered_4x16),
        ("gain_matrix_construction", gain_matrix_construction),
        ("single_round_resolve", single_round_resolve),
        ("full_execution_engine", engine_execution(FixedProbabilityProtocol(p=0.1))),
        ("full_execution_engine_beb", engine_execution(BinaryExponentialBackoffProtocol())),
        (
            "full_execution_engine_per_node",
            engine_execution(
                CarrierSenseTournamentProtocol(carrier_sense_threshold(channel))
            ),
        ),
        ("fast_path_execution", fast_path_execution),
        ("fast_path_execution_matrix_free", fast_path_execution_matrix_free),
        ("fast_path_execution_probes", fast_path_execution_probes),
        ("fast_path_execution_p075_n512", fast_path_execution_p075_n512),
        ("link_class_partition", link_class_partition_cost),
        ("parallel_trials_w1", parallel_trials_bench(1)),
        ("parallel_trials_w2", parallel_trials_bench(2)),
        ("parallel_trials_w4", parallel_trials_bench(4)),
        ("fast_path_execution_n16384", fast_path_execution_n16384),
    ]


def experiment_benchmarks() -> List[Tuple[str, BenchFn]]:
    """``e2e_<id>_quick``: the quick presets of E1, E3, E11 and E17, end to end.

    Each entry runs the experiment's ``run`` on its quick preset in this
    process and records whether its checks passed.
    """
    from repro.experiments import REGISTRY

    def quick(module) -> BenchFn:
        return lambda: {"passed": module.run(module.Config.quick()).passed}

    return [
        (f"e2e_{experiment_id}_quick", quick(REGISTRY[experiment_id]))
        for experiment_id in ("E1", "E3", "E11", "E17")
    ]


def run_benchmarks(
    benchmarks: List[Tuple[str, BenchFn]], repeats: int = 5
) -> Dict[str, Dict[str, object]]:
    """Time each benchmark ``repeats`` times, in interleaved passes; report best/mean per call."""
    if repeats < 1:
        raise ValueError(f"repeats must be positive (got {repeats})")
    timings: Dict[str, List[float]] = {name: [] for name, _ in benchmarks}
    extras: Dict[str, Dict[str, float]] = {}
    for _ in range(repeats):
        for name, fn in benchmarks:
            started = time.perf_counter()
            extras[name] = fn() or {}
            timings[name].append(time.perf_counter() - started)
    results: Dict[str, Dict[str, object]] = {}
    for name, _ in benchmarks:
        times, extra = timings[name], extras[name]
        calls = int(extra.pop("calls", 1))
        best = min(times) / calls
        mean = (sum(times) / len(times)) / calls
        entry: Dict[str, object] = {
            "wall_time_s": best,
            "mean_s": mean,
            "repeats": repeats,
        }
        rounds = extra.pop("rounds", None)
        if rounds is not None:
            entry["rounds"] = int(rounds)
            entry["rounds_per_sec"] = float(rounds) / best if best > 0 else None
        trials = extra.get("trials")
        if trials is not None:
            # Per-trial throughput for the trial-batch benchmarks
            # (the parallel_trials_w* entries).
            entry["trials_per_sec"] = float(trials) / best if best > 0 else None
        for key, value in extra.items():
            entry[key] = value
        results[name] = entry
    return results


def write_bench_record(
    benchmarks: Dict[str, Dict[str, object]], path: PathLike
) -> Dict[str, object]:
    """Write a ``repro-bench`` document wrapping per-benchmark results."""
    environment = collect_environment()
    environment["git_sha"] = collect_git_sha() or "unknown"
    document = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "environment": environment,
        "benchmarks": benchmarks,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, default=str)
        handle.write("\n")
    return document


def load_bench_record(path: PathLike) -> Dict[str, object]:
    """Load and validate a ``repro-bench`` document."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or document.get("format") != BENCH_FORMAT:
        raise ValueError(f"{path}: not a {BENCH_FORMAT} file")
    if document.get("version") != BENCH_VERSION:
        raise ValueError(
            f"{path}: unsupported bench version {document.get('version')!r}"
        )
    if not isinstance(document.get("benchmarks"), dict):
        raise ValueError(f"{path}: missing benchmarks mapping")
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Time the core hot paths and the e2e_<id>_quick experiment "
        "runs, and write a BENCH_core.json record.",
    )
    parser.add_argument(
        "--output", "-o", default="BENCH_core.json", help="output JSON path"
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats per benchmark"
    )
    parser.add_argument(
        "--n", type=int, default=512, help="node count for engine benchmarks"
    )
    parser.add_argument(
        "--fast-n", type=int, default=2048, help="node count for the fast path"
    )
    parser.add_argument(
        "--parallel-trials",
        type=int,
        default=32,
        help="trial count for the parallel_trials_w{1,2,4} scaling benchmarks",
    )
    args = parser.parse_args(argv)

    results = run_benchmarks(
        core_benchmarks(
            n=args.n,
            fast_n=args.fast_n,
            parallel_trials=args.parallel_trials,
        )
        + experiment_benchmarks(),
        repeats=args.repeats,
    )
    write_bench_record(results, args.output)
    width = max(len(name) for name in results)
    for name, entry in results.items():
        rps = entry.get("rounds_per_sec")
        suffix = f"  {rps:12.0f} rounds/s" if rps else ""
        print(f"{name:<{width}}  {entry['wall_time_s'] * 1e3:10.3f} ms{suffix}")
    print(f"record written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
