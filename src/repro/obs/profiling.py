"""Profiling hooks: cProfile reports shaped for ``manifest.json``.

``python -m repro.experiments <id> --profile`` wraps the experiment run
in :class:`cProfile.Profile` and condenses the raw stats into a small
JSON-safe report: the top-N hot functions (by exclusive time) plus a
**per-phase breakdown** that attributes exclusive time to the pipeline
stages every experiment shares — geometry sampling, gain-matrix
construction, the round loop, statistics — plus the lower-bound game
(``hitting``, E7 and E8), by classifying each profiled
function's source location. The report lands in the manifest's
``profile`` field (and on stdout), so a slow run's provenance includes
*where* the time went, not just how much there was.

Phase attribution uses **exclusive** (``tottime``) seconds, so the phase
totals are disjoint and sum (with ``other``) to the profile's total —
cumulative times would count the round loop inside the runner inside the
experiment three times over.
"""

from __future__ import annotations

import pstats
from typing import Any, Dict, List, Tuple

__all__ = [
    "PHASES",
    "build_profile_report",
    "classify_phase",
    "format_profile_report",
]

#: Phase name -> path fragments that place a function in it. Order
#: matters: the first phase with a matching fragment wins, so the more
#: specific entries sit first (``sinr/geometry`` before the round loop's
#: catch-all ``sinr/channel``).
PHASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("geometry", ("sinr/geometry", "deploy/")),
    ("gain_matrix", ("sinr/fading", "sinr/jamming", "sinr/parameters")),
    (
        "round_loop",
        (
            "sim/engine",
            "sim/fast",
            "sim/parallel",
            "sinr/channel",
            "radio/",
            "protocols/",
        ),
    ),
    ("hitting", ("hitting/",)),
    (
        "stats",
        ("sim/runner", "analysis/", "experiments/", "reporting/"),
    ),
)

#: ``sinr/channel`` functions that set a channel up rather than resolve rounds.
_CHANNEL_SETUP = ("__init__", "distances", "_gain_matrix", "_screen_coords")

#: Bucket for profiled functions outside every declared phase (numpy
#: internals, stdlib, the obs layer itself).
OTHER_PHASE = "other"


def classify_phase(filename: str, funcname: str) -> str:
    """Attribute one profiled function to a pipeline phase.

    The channel is set up in ``SINRChannel.__init__`` and its lazily
    built ``distances`` / ``_gain_matrix`` / ``_screen_coords``. Those
    live in the same file as the round loop's ``resolve``, ``decode`` and
    ``decide``, whose per-block gain fills (the closures ``_gain_filler``
    and ``_screen_filler`` return) also count as the round loop. So channel-file functions are split by function name before
    the path fragments apply.
    """
    path = filename.replace("\\", "/")
    if "sinr/channel" in path and funcname in _CHANNEL_SETUP:
        return "gain_matrix"
    for phase, fragments in PHASES:
        if any(fragment in path for fragment in fragments):
            return phase
    return OTHER_PHASE


def build_profile_report(profile, top_n: int = 15) -> Dict[str, Any]:
    """Condense a finished :class:`cProfile.Profile` into a JSON-safe dict.

    ``profile`` must already be stopped (``disable()`` called). The
    report carries total wall/call counts, the per-phase exclusive-time
    breakdown, and the ``top_n`` hottest functions by exclusive time.
    """
    stats = pstats.Stats(profile)
    entries = stats.stats  # {(file, line, func): (cc, nc, tt, ct, callers)}
    total_seconds = float(stats.total_tt)
    total_calls = int(stats.total_calls)

    phase_seconds: Dict[str, float] = {name: 0.0 for name, _ in PHASES}
    phase_seconds[OTHER_PHASE] = 0.0
    rows: List[Tuple[float, Dict[str, Any]]] = []
    for (filename, line, funcname), (cc, nc, tt, ct, _callers) in entries.items():
        phase_seconds[classify_phase(filename, funcname)] += tt
        rows.append(
            (
                tt,
                {
                    "function": f"{filename}:{line}({funcname})",
                    "calls": int(nc),
                    "tottime_s": round(float(tt), 6),
                    "cumtime_s": round(float(ct), 6),
                },
            )
        )
    rows.sort(key=lambda item: item[0], reverse=True)

    phases = {
        name: {
            "seconds": round(seconds, 6),
            "fraction": round(seconds / total_seconds, 4) if total_seconds else 0.0,
        }
        for name, seconds in phase_seconds.items()
    }
    return {
        "tool": "cProfile",
        "total_seconds": round(total_seconds, 6),
        "total_calls": total_calls,
        "phases": phases,
        "hot_functions": [row for _, row in rows[:top_n]],
    }


def format_profile_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`build_profile_report`'s output."""
    lines = [
        "profile ({}): {:.3f}s total over {} calls".format(
            report["tool"], report["total_seconds"], report["total_calls"]
        ),
        "",
        "per-phase exclusive time:",
    ]
    for name, entry in sorted(
        report["phases"].items(), key=lambda item: item[1]["seconds"], reverse=True
    ):
        lines.append(
            f"  {name:<12} {entry['seconds']:9.3f}s  {entry['fraction'] * 100:5.1f}%"
        )
    lines.append("")
    lines.append(f"top {len(report['hot_functions'])} functions (exclusive time):")
    for row in report["hot_functions"]:
        lines.append(
            f"  {row['tottime_s']:9.3f}s  {row['calls']:>8}x  "
            f"cum {row['cumtime_s']:8.3f}s  {row['function']}"
        )
    return "\n".join(lines)
