"""Execution traces: what happened, round by round.

A trace is the raw material for every analysis in the library — the E5/E6
experiments replay link-class sizes and knockouts directly from it, and the
debugging story for any surprising run starts with its trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["RoundRecord", "ExecutionTrace"]


@dataclass(frozen=True)
class RoundRecord:
    """Everything observable about one round.

    Attributes
    ----------
    index:
        0-based round number.
    transmitters:
        Sorted node ids that transmitted.
    receptions:
        ``listener -> sender`` for every decoded message.
    active_before:
        Node ids active at the start of the round (sorted tuple).
    knocked_out:
        Node ids that deactivated as a result of this round (sorted tuple).
    """

    index: int
    transmitters: Tuple[int, ...]
    receptions: Dict[int, int]
    active_before: Tuple[int, ...]
    knocked_out: Tuple[int, ...]

    @property
    def is_solo(self) -> bool:
        """Whether this round had exactly one transmitter (success)."""
        return len(self.transmitters) == 1

    @property
    def num_active_before(self) -> int:
        return len(self.active_before)


@dataclass
class ExecutionTrace:
    """The full record of one execution.

    Attributes
    ----------
    n:
        Number of participating nodes.
    protocol_name:
        Human-readable name of the protocol that ran.
    records:
        Per-round records in order. When the engine runs with
        ``keep_records=False`` this list stays empty and only the summary
        fields below are populated.
    solved_round:
        0-based index of the first solo round, or ``None`` if the round
        budget ran out first.
    rounds_executed:
        Total rounds the engine ran (equals ``solved_round + 1`` on
        success).
    """

    n: int
    protocol_name: str
    records: List[RoundRecord] = field(default_factory=list)
    solved_round: Optional[int] = None
    rounds_executed: int = 0

    @property
    def solved(self) -> bool:
        """Whether a solo transmission occurred within the round budget."""
        return self.solved_round is not None

    @property
    def rounds_to_solve(self) -> Optional[int]:
        """Rounds consumed to solve (1-based count), or ``None``."""
        if self.solved_round is None:
            return None
        return self.solved_round + 1

    def active_counts(self) -> List[int]:
        """Number of active nodes at the start of every recorded round."""
        return [record.num_active_before for record in self.records]

    def knockouts_per_round(self) -> List[int]:
        """Number of nodes deactivated by each recorded round."""
        return [len(record.knocked_out) for record in self.records]

    def __repr__(self) -> str:
        status = (
            f"solved@{self.solved_round}" if self.solved else "unsolved"
        )
        return (
            f"ExecutionTrace(n={self.n}, protocol={self.protocol_name!r}, "
            f"rounds={self.rounds_executed}, {status})"
        )
