#!/usr/bin/env python
"""Compare two ``repro-bench`` JSON records and flag regressions.

Usage::

    PYTHONPATH=src python tools/bench_diff.py BASELINE.json CANDIDATE.json \
        [--threshold 0.25]

Prints per-benchmark wall-time and rounds/sec deltas and exits non-zero
when any benchmark present in both records regressed in wall time by more
than ``--threshold`` (default 25%). Benchmarks present in only one record
are reported explicitly as ``added`` / ``removed`` (verdict column plus a
summary line) but never fail the comparison — adding or retiring a
benchmark is not a regression.

The ``parallel_trials_w*`` scaling benchmarks are **report-only**: their
wall times depend on how many cores the runner happened to have, so the
tool prints the parallel-speedup ratio (w2/w4 vs w1, with the record's
``cpu_count``) instead of gating on them — noisy shared CI runners must
not flake the regression gate. The probes tax, the
``fast_path_execution_probes`` / ``fast_path_execution`` wall-time ratio,
is printed for both records the same way: reported, never gated.

This is the CI gate the perf trajectory in ``BENCH_core.json`` exists
for: regenerate the candidate with ``python -m repro.obs.bench`` and diff
it against the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional

#: Benchmarks whose wall time is a function of the runner's core count
#: — compared for visibility, excluded from the regression gate.
PARALLEL_PREFIX = "parallel_trials_"

#: The probed fast-path execution and the unprobed one it is a ratio of.
PROBED, UNPROBED = "fast_path_execution_probes", "fast_path_execution"


def _is_report_only(name: str) -> bool:
    return name.startswith(PARALLEL_PREFIX)


def _finite_rate(value) -> Optional[float]:
    """``value`` as a positive finite float, else ``None``.

    Guards the rounds/sec delta: ``TrialStats.rounds_per_second``
    legitimately reports NaN for zero/NaN wall times, and NaN is *truthy*
    — a bare ``if base and cand`` check would happily print a NaN delta.
    Zero is excluded too (it is no valid denominator for a ratio).
    """
    if value is None:
        return None
    rate = float(value)
    if not math.isfinite(rate) or rate <= 0.0:
        return None
    return rate


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value * 1e3:.3f} ms"


def _fmt_delta(delta: Optional[float]) -> str:
    if delta is None:
        return "-"
    return f"{delta * 100:+.1f}%"


def compare_records(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    threshold: float = 0.25,
) -> "tuple[List[List[str]], List[str]]":
    """Diff two loaded bench documents.

    Returns ``(rows, regressions)``: printable table rows for every
    benchmark name in either record, and the names whose wall time
    regressed beyond ``threshold``.
    """
    base = baseline["benchmarks"]
    cand = candidate["benchmarks"]
    rows: List[List[str]] = []
    regressions: List[str] = []
    for name in sorted(set(base) | set(cand)):
        base_entry = base.get(name)
        cand_entry = cand.get(name)
        if base_entry is None:
            # Present only in the candidate: a newly added benchmark.
            # Surfaced in the verdict column (and summarised by main())
            # so new entries can't slip past review — but report-only,
            # never a gate failure.
            rows.append(
                [name, "-", _fmt_seconds(cand_entry["wall_time_s"]), "", "", "added"]
            )
            continue
        if cand_entry is None:
            rows.append(
                [name, _fmt_seconds(base_entry["wall_time_s"]), "-", "", "", "removed"]
            )
            continue
        base_time = float(base_entry["wall_time_s"])
        cand_time = float(cand_entry["wall_time_s"])
        delta = (cand_time - base_time) / base_time if base_time > 0 else None
        verdict = "ok"
        if _is_report_only(name):
            verdict = "report-only"
        elif delta is not None and delta > threshold:
            verdict = "REGRESSION"
            regressions.append(name)
        rps_delta = None
        base_rps = _finite_rate(base_entry.get("rounds_per_sec"))
        cand_rps = _finite_rate(cand_entry.get("rounds_per_sec"))
        if base_rps is not None and cand_rps is not None:
            rps_delta = (cand_rps - base_rps) / base_rps
        rows.append(
            [
                name,
                _fmt_seconds(base_time),
                _fmt_seconds(cand_time),
                _fmt_delta(delta),
                _fmt_delta(rps_delta) if rps_delta is not None else "",
                verdict,
            ]
        )
    return rows, regressions


def parallel_speedups(record: Dict[str, object]) -> Dict[int, float]:
    """Wall-time speedup of each ``parallel_trials_wK`` entry vs ``w1``.

    Returns ``{K: speedup}`` for every worker count present alongside a
    ``w1`` baseline; empty when the record predates the entries. All
    entries run the same trial count, so the wall-time ratio is also the
    per-trial throughput ratio.
    """
    benchmarks = record["benchmarks"]
    base = benchmarks.get(f"{PARALLEL_PREFIX}w1")
    base_wall = float(base.get("wall_time_s") or 0.0) if base else 0.0
    if not math.isfinite(base_wall) or base_wall <= 0.0:
        return {}
    speedups: Dict[int, float] = {}
    for name, entry in benchmarks.items():
        if not name.startswith(PARALLEL_PREFIX) or name.endswith("_w1"):
            continue
        try:
            workers = int(name.rsplit("_w", 1)[1])
        except (IndexError, ValueError):
            continue
        wall = float(entry.get("wall_time_s") or 0.0)
        if math.isfinite(wall) and wall > 0.0:
            speedups[workers] = base_wall / wall
    return speedups


def _print_speedups(label: str, record: Dict[str, object]) -> None:
    speedups = parallel_speedups(record)
    if speedups:
        cpu_count = record["benchmarks"][f"{PARALLEL_PREFIX}w1"].get("cpu_count")
        ratios = ", ".join(
            f"w{workers}: {speedup:.2f}x"
            for workers, speedup in sorted(speedups.items())
        )
        cores = f" on {cpu_count} core(s)" if cpu_count else ""
        print(f"parallel speedup [{label}]{cores}: {ratios}  (reported, not gated)")


def probes_tax(record: Dict[str, object]) -> Optional[float]:
    """``fast_path_execution_probes`` wall time over ``fast_path_execution``'s.

    ``None`` when either entry is missing or has no positive finite time.
    """
    benchmarks = record["benchmarks"]
    walls = [
        _finite_rate((benchmarks.get(name) or {}).get("wall_time_s"))
        for name in (PROBED, UNPROBED)
    ]
    if None in walls:
        return None
    return walls[0] / walls[1]


def _print_probes_tax(label: str, record: Dict[str, object]) -> None:
    tax = probes_tax(record)
    if tax is not None:
        print(f"probes tax [{label}]: {tax:.2f}x ({PROBED} / {UNPROBED}; reported, not gated)")


def _print_table(rows: List[List[str]]) -> None:
    header = ["benchmark", "baseline", "candidate", "wall Δ", "rounds/s Δ", "verdict"]
    normalized = [row + [""] * (len(header) - len(row)) for row in rows]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in normalized)) if normalized else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    print("  ".join("-" * widths[i] for i in range(len(header))))
    for row in normalized:
        print("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench_diff.py",
        description="Diff two repro-bench JSON records; fail on wall-time regressions.",
    )
    parser.add_argument("baseline", help="baseline bench JSON (e.g. BENCH_core.json)")
    parser.add_argument("candidate", help="candidate bench JSON to compare")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional wall-time regression (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)

    from repro.obs.bench import load_bench_record

    try:
        baseline = load_bench_record(args.baseline)
        candidate = load_bench_record(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows, regressions = compare_records(baseline, candidate, threshold=args.threshold)
    _print_table(rows)
    print()
    added = [row[0] for row in rows if row[-1] == "added"]
    removed = [row[0] for row in rows if row[-1] == "removed"]
    if added:
        print(
            f"added benchmarks (report-only, never gated): {', '.join(added)}"
        )
    if removed:
        print(
            f"removed benchmarks (report-only, never gated): {', '.join(removed)}"
        )
    _print_speedups("baseline", baseline)
    _print_speedups("candidate", candidate)
    _print_probes_tax("baseline", baseline)
    _print_probes_tax("candidate", candidate)
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold * 100:.0f}%: {', '.join(regressions)}"
        )
        return 1
    print(f"\nOK: no wall-time regression beyond {args.threshold * 100:.0f}%")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "src")
    sys.exit(main())
