"""Shared experiment infrastructure: results, tables, verdicts.

An :class:`ExperimentResult` is a small, printable record: an id and title,
a column header, data rows, free-form notes, and a dictionary of
``checks`` — named boolean verdicts asserting the paper's claimed *shape*
(e.g. ``{"log_beats_log2": True}``). The test suite and EXPERIMENTS.md both
read the checks, so a reproduction regression flips a named flag rather
than silently drifting a number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.reporting.markdown import COST_HEADER

__all__ = [
    "ExperimentResult",
    "format_table",
    "COST_HEADER",
]


def format_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render rows as a fixed-width text table.

    Column widths adapt to content; floats are shown with 4 significant
    digits. This is deliberately plain text — ``python -m
    repro.experiments`` prints it straight to the terminal.
    """
    def render(cell) -> str:
        if isinstance(cell, np.generic):
            # Numpy scalars render via their Python equivalents: a
            # np.bool_ is not a bool, and would print "True" instead of
            # "yes" without this.
            cell = cell.item()
        if isinstance(cell, bool):
            return "yes" if cell else "no"
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(col) for col in header]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(name.ljust(widths[i]) for i, name in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes
    ----------
    experiment_id, title:
        The DESIGN.md index entry this result reproduces.
    header, rows:
        The table (rows are sequences aligned with ``header``).
    checks:
        Named shape verdicts; ``all(checks.values())`` is the
        reproduction's pass condition for this experiment.
    notes:
        Free-form findings (fitted laws, constants, caveats).
    timings:
        Optional cost rows ``(label, wall_time_s, rounds_per_sec)`` —
        typically one per sweep point, fed by
        :attr:`repro.sim.runner.TrialStats.total_wall_time` and
        :attr:`~repro.sim.runner.TrialStats.rounds_per_second` — so
        reports show what each reproduced number cost to measure.
    """

    experiment_id: str
    title: str
    header: List[str]
    rows: List[List] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    timings: List[Tuple[str, float, float]] = field(default_factory=list)

    def add_timing(self, label: str, wall_time_s: float, rounds_per_sec: float) -> None:
        """Append one cost row (see :attr:`timings`)."""
        self.timings.append((label, float(wall_time_s), float(rounds_per_sec)))

    @property
    def passed(self) -> bool:
        """Whether every shape check held."""
        return all(self.checks.values())

    def format(self) -> str:
        """Full printable report: title, table, checks, notes."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(format_table(self.header, self.rows))
        if self.checks:
            lines.append("")
            for name, ok in sorted(self.checks.items()):
                lines.append(f"  check {name}: {'PASS' if ok else 'FAIL'}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.timings:
            total = sum(wall for _, wall, _ in self.timings)
            lines.append(f"  cost: {total:.2f}s total")
            for label, wall, rps in self.timings:
                lines.append(f"    {label}: {wall:.2f}s, {rps:.0f} rounds/s")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()
