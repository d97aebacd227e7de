"""Vectorised fast path for the paper's algorithm on the SINR channel.

The generic engine treats every node as an opaque state machine — the
right abstraction for heterogeneous protocols, but O(n) Python work per
round. The paper's algorithm has no per-node state beyond active/inactive
and a constant probability, so a whole execution collapses into numpy:

* coin flips: one ``rng.random(n_active)`` per round;
* reception: the external sources' on-air coins, then the round's
  decisions, walking its listeners in fixed-size blocks of
  ``(transmitter, listener)`` gains, multiplied by fresh Rayleigh draws
  on a fading channel. A fresh deployment therefore never needs the
  channel's ``(n, n)`` matrix, and a trial's memory is O(n) whatever the
  round's ``|T| x |L|``. A knockout needs only who decoded, so an
  unprobed round takes the decisions-only
  :meth:`~repro.sinr.channel.SINRChannel.decide`: squared distances
  from one small float64 matrix product of the channel's cached
  coordinates, float32 gains from square roots and products instead of
  ``pow``, with the few listeners that land within a float32 rounding
  margin of the threshold decided again exactly, in float64. With the
  probe bus on, a round goes through the
  channel's resolve core, the one the engine calls, uninstrumented, and
  its exact :meth:`~repro.sinr.channel.SINRChannel.decode`, which
  computes the gains from positions, or gathers them once the matrix
  has been built, and publishes the SINR probe. Both make the same
  decisions from the same draws;
* knockout: a boolean mask update.

``fast_fixed_probability_run`` draws the coins, the jammers' duty-cycle
coins and the fading multipliers in the order
:class:`repro.sim.engine.Simulation` running ``FixedProbabilityProtocol``
does, so on the same generator both give the same execution (the test
suite checks it per trial, with and without fading and duty-cycled
jammers), just 1–2 orders of magnitude faster for large ``n``. Use it for
scaling studies on the SINR channel. Use the generic engine when you need
round-by-round traces, mixed protocols, activation schedules, or another
protocol.
The engine also flips a round's coins in one numpy call for the paper's
algorithm and the other oblivious-schedule protocols, on any channel; what
it keeps over this path is the per-round bookkeeping and
``channel.resolve``'s per-listener reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.obs.probe import get_probe_bus
from repro.obs.registry import get_registry
from repro.sinr.channel import SINRChannel

__all__ = ["FastRunResult", "FastRoundTelemetry", "fast_fixed_probability_run"]

#: Per-round telemetry callback:
#: ``(round_index, active_count, transmitter_count, knockouts)``. The
#: fast path keeps no RoundRecords; this callback is its lightweight
#: per-round view, invoked once per executed round — including the
#: solving round, whose knockout count is reported as 0 because the fast
#: path stops before resolving it.
FastRoundTelemetry = Callable[[int, int, int, int], None]


@dataclass(frozen=True)
class FastRunResult:
    """Outcome of one vectorised execution.

    ``solved_round`` is 0-based (``None`` if the budget ran out);
    ``active_counts[t]`` is the number of active nodes at the start of
    round ``t``.
    """

    n: int
    solved_round: Optional[int]
    rounds_executed: int
    active_counts: List[int]

    @property
    def solved(self) -> bool:
        return self.solved_round is not None

    @property
    def rounds_to_solve(self) -> Optional[int]:
        if self.solved_round is None:
            return None
        return self.solved_round + 1


def fast_fixed_probability_run(
    channel: SINRChannel,
    p: float,
    rng: np.random.Generator,
    max_rounds: int = 100_000,
    telemetry: Optional[FastRoundTelemetry] = None,
) -> FastRunResult:
    """Run the paper's algorithm to the first solo round, vectorised.

    Every node wakes in round 0. Each round that is not a solo is
    resolved by the channel's resolve core: ``rng`` draws, after the
    round's coins, the external sources' on-air coins (if any has
    ``duty_cycle < 1``) and then, under Rayleigh fading, the multipliers.

    ``telemetry`` receives ``(round_index, active_count, tx_count,
    knockouts)`` per executed round; when the global metrics registry is
    enabled the run also feeds the ``fast.*`` counters, so scaling
    studies show up in telemetry sessions alongside generic-engine runs.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"broadcast probability must be in (0, 1] (got {p})")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be positive (got {max_rounds})")

    n = channel.n

    obs = get_registry()
    recording = obs.enabled
    if recording:
        obs.counter("fast.executions").inc()
        c_rounds = obs.counter("fast.rounds")
        c_ko = obs.counter("fast.knockouts")
    bus = get_probe_bus()
    probing = bus.enabled
    if probing:
        from repro.analysis.linkclasses import link_class_round_sizes

        bus.begin_execution(n=n)
        # The link-class partition of the active set, kept from positions:
        # probing never builds the channel's (n, n) matrices. Trials on
        # one channel share its start state.
        nearest = channel.nearest_active()

    active = np.ones(n, dtype=bool)
    active_counts: List[int] = []

    for round_index in range(max_rounds):
        active_ids = np.flatnonzero(active)
        if active_ids.size == 0:
            if probing:
                bus.end_execution(round_index, None)
            return FastRunResult(
                n=n,
                solved_round=None,
                rounds_executed=round_index,
                active_counts=active_counts,
            )
        num_active = int(active_ids.size)
        active_counts.append(num_active)

        coins = rng.random(active_ids.size) < p
        tx = active_ids[coins]
        if recording:
            c_rounds.inc()
        if probing:
            bus.begin_round(round_index)
        if tx.size == 1:
            if telemetry is not None:
                telemetry(round_index, num_active, 1, 0)
            if recording:
                obs.counter("fast.solved_executions").inc()
            if probing:
                # The fast path stops before resolving the solo round, so
                # its knockout count is 0 here — same as the telemetry
                # callback's contract.
                bus.emit_round(
                    active_before=num_active,
                    tx_count=1,
                    knockouts=0,
                    class_stats=link_class_round_sizes(nearest.distance),
                )
                bus.end_execution(round_index + 1, round_index)
            return FastRunResult(
                n=n,
                solved_round=round_index,
                rounds_executed=round_index + 1,
                active_counts=active_counts,
            )
        # Both draw the duty-cycle coins and fading multipliers, if any, as
        # the engine's resolve does. Unprobed rounds need only who decoded
        # (the screened decisions); probed ones take the exact decode and
        # its SINR probe, which draws nothing, so probes never perturb the
        # run.
        if probing:
            report = channel._resolve_ids(tx, active_ids[~coins], rng)
            knocked_nodes = report.listener_ids[report.decoded >= 0]
        else:
            knocked_nodes = channel._receiver_ids(tx, active_ids[~coins], rng)
        knockouts = int(knocked_nodes.size)
        active[knocked_nodes] = False
        if telemetry is not None:
            telemetry(round_index, num_active, int(tx.size), knockouts)
        if recording and knockouts:
            c_ko.inc(knockouts)
        if probing:
            bus.emit_round(
                active_before=num_active,
                tx_count=int(tx.size),
                knockouts=knockouts,
                knocked_ids=knocked_nodes,
                class_stats=link_class_round_sizes(nearest.distance, knocked_nodes),
            )
            nearest.remove(knocked_nodes)

    if probing:
        bus.end_execution(max_rounds, None)
    return FastRunResult(
        n=n,
        solved_round=None,
        rounds_executed=max_rounds,
        active_counts=active_counts,
    )
