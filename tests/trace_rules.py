"""Trace verification: audit an execution against the model's rules.

Simulations earn trust by being checkable. :func:`verify_trace` replays a
recorded :class:`~repro.sim.trace.ExecutionTrace` against its channel and
confirms every rule of Section 2 held:

* **R1 — knockout permanence**: a node never transmits, listens, or
  appears active after the round that knocked it out;
* **R2 — activity bookkeeping**: each round's ``active_before`` equals the
  previous round's minus its knockouts (within the recorded horizon);
* **R3 — reception validity**: every recorded reception is reproduced by
  the channel given that round's transmitter set (deterministic channels
  only — a fading channel's per-round gains are not recoverable from the
  trace);
* **R4 — termination**: if the trace claims a solving round, that round
  has exactly one transmitter, and no earlier recorded round does;
* **R5 — transmitter sanity**: transmitters are active, and never listed
  as receivers.

Violations are returned as structured records rather than raised, so test
harnesses can assert emptiness and debugging sessions can inspect
everything at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.trace import ExecutionTrace

__all__ = ["TraceViolation", "verify_trace"]


@dataclass(frozen=True)
class TraceViolation:
    """One broken rule: which rule, where, and what was observed."""

    rule: str
    round_index: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule} @ round {self.round_index}] {self.detail}"


def verify_trace(
    trace: ExecutionTrace, channel: Optional[object] = None
) -> List[TraceViolation]:
    """Audit ``trace`` against the model rules; return all violations.

    ``channel`` enables rule R3 (reception replay); pass the exact channel
    object the execution used. Stochastic channels (fading, intermittent
    jammers) skip R3 automatically.
    """
    violations: List[TraceViolation] = []
    if not trace.records:
        return violations

    dead: set = set()
    previous_active: Optional[set] = None
    solved_seen = False

    replayable = (
        channel is not None
        and getattr(channel, "gain_model", None) is None
        and all(
            s.duty_cycle >= 1.0 for s in getattr(channel, "external_sources", ())
        )
    )

    for record in trace.records:
        active = set(record.active_before)
        transmitters = set(record.transmitters)

        # R1: the dead stay dead.
        for node in dead & active:
            violations.append(
                TraceViolation(
                    "R1-knockout-permanence",
                    record.index,
                    f"node {node} active after being knocked out",
                )
            )
        for node in dead & transmitters:
            violations.append(
                TraceViolation(
                    "R1-knockout-permanence",
                    record.index,
                    f"node {node} transmitted after being knocked out",
                )
            )

        # R2: activity bookkeeping (only checkable from the second
        # recorded round; staggered activation may legitimately add nodes,
        # so only disappearances without knockouts are flagged).
        if previous_active is not None:
            vanished = previous_active - active - dead
            for node in vanished:
                violations.append(
                    TraceViolation(
                        "R2-activity-bookkeeping",
                        record.index,
                        f"node {node} vanished without a recorded knockout",
                    )
                )

        # R5: transmitter sanity.
        for node in transmitters - active:
            violations.append(
                TraceViolation(
                    "R5-transmitter-sanity",
                    record.index,
                    f"transmitter {node} was not active",
                )
            )
        for listener in record.receptions:
            if listener in transmitters:
                violations.append(
                    TraceViolation(
                        "R5-transmitter-sanity",
                        record.index,
                        f"transmitter {listener} recorded as a receiver",
                    )
                )

        # R3: reception replay on deterministic channels.
        if replayable and channel is not None:
            listeners = sorted(active - transmitters)
            report = channel.resolve(sorted(transmitters), listeners=listeners)
            expected = {
                k: v for k, v in report.received_from.items() if k in active
            }
            if expected != dict(record.receptions):
                violations.append(
                    TraceViolation(
                        "R3-reception-validity",
                        record.index,
                        f"recorded receptions {dict(record.receptions)} != "
                        f"channel replay {expected}",
                    )
                )

        # R4: termination.
        if record.is_solo:
            if trace.solved_round is not None and record.index < trace.solved_round:
                violations.append(
                    TraceViolation(
                        "R4-termination",
                        record.index,
                        "solo round precedes the recorded solved_round",
                    )
                )
            solved_seen = True

        dead.update(record.knocked_out)
        previous_active = active

    if trace.solved_round is not None:
        final = trace.records[-1]
        if final.index == trace.solved_round and not final.is_solo:
            violations.append(
                TraceViolation(
                    "R4-termination",
                    trace.solved_round,
                    f"solved_round has {len(final.transmitters)} transmitters",
                )
            )
        if not solved_seen:
            violations.append(
                TraceViolation(
                    "R4-termination",
                    trace.solved_round,
                    "trace claims solved but no recorded round is solo",
                )
            )
    return violations
