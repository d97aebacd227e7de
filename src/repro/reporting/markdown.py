"""Markdown rendering for experiment results.

``python -m repro.experiments all --full --report results.md`` uses these
to persist a batch of :class:`ExperimentResult` objects as a readable
report — the generated appendix of ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentResult

__all__ = ["COST_HEADER", "render_result_markdown", "strip_cost_tables", "write_report"]

#: Column names of the per-experiment cost table (see
#: :attr:`ExperimentResult.timings`): sweep-point label, wall-clock
#: seconds, and simulated rounds per second.
COST_HEADER = ("stage", "wall_time_s", "rounds_per_sec")


def _render_cell(cell) -> str:
    if isinstance(cell, np.generic):
        # Match the text renderer: numpy scalars render via their Python
        # equivalents, since a np.bool_ is not a bool and would print
        # "True" instead of "yes" without this.
        cell = cell.item()
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def _markdown_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_render_cell(cell) for cell in row) + " |")
    return "\n".join(lines)


def render_result_markdown(result: ExperimentResult, heading_level: int = 2) -> str:
    """One experiment as a markdown section (table, checks, notes)."""
    hashes = "#" * max(1, heading_level)
    lines = [f"{hashes} {result.experiment_id} — {result.title}", ""]
    lines.append(_markdown_table(result.header, result.rows))
    lines.append("")
    if result.checks:
        lines.append("**Shape checks**")
        lines.append("")
        for name, ok in sorted(result.checks.items()):
            lines.append(f"- `{name}`: {'PASS' if ok else '**FAIL**'}")
        lines.append("")
    if result.notes:
        lines.append("**Notes**")
        lines.append("")
        for note in result.notes:
            lines.append(f"- {note}")
        lines.append("")
    if result.timings:
        lines.append("**Cost**")
        lines.append("")
        lines.append(_markdown_table(COST_HEADER, result.timings))
        lines.append("")
    return "\n".join(lines)


def strip_cost_tables(text: str) -> str:
    """Drop every **Cost** section from a rendered report.

    Cost rows carry wall times and rounds/sec — the only
    machine-dependent content a report contains. Everything else (tables,
    checks, notes) is a pure function of the experiment seed, so two
    reports from the same seeds must agree exactly after this strip;
    ``tools/run_digests.py`` and the CI digest steps hash reports through
    it ("byte-identical modulo timings").
    """
    lines = text.split("\n")
    kept = []
    index = 0
    while index < len(lines):
        if lines[index].strip() == "**Cost**":
            index += 1
            while index < len(lines) and (
                not lines[index].strip() or lines[index].lstrip().startswith("|")
            ):
                index += 1
            continue
        kept.append(lines[index])
        index += 1
    return "\n".join(kept)


def write_report(
    results: Iterable[ExperimentResult],
    path: str,
    title: str = "Experiment report",
    preamble: Optional[str] = None,
) -> str:
    """Write a batch of results to ``path`` as one markdown document.

    Returns the rendered text (also useful for tests). A summary scoreboard
    precedes the per-experiment sections.
    """
    results = list(results)
    lines = [f"# {title}", ""]
    if preamble:
        lines.append(preamble)
        lines.append("")
    lines.append("| experiment | title | checks | verdict |")
    lines.append("|---|---|---|---|")
    for result in results:
        verdict = "PASS" if result.passed else "**FAIL**"
        lines.append(
            f"| {result.experiment_id} | {result.title} "
            f"| {len(result.checks)} | {verdict} |"
        )
    lines.append("")
    for result in results:
        lines.append(render_result_markdown(result))
        lines.append("")
    text = "\n".join(lines)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
