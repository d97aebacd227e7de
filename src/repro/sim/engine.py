"""The synchronous round loop.

One :class:`Simulation` couples protocol state machines to a channel and
executes Section 2's model faithfully:

* each round, every **awake, active** node independently decides to
  transmit or listen (inactive nodes do neither — once knocked out, a node
  is out; sleeping nodes have not been activated yet);
* the channel resolves receptions;
* feedback is delivered: transmitters learn nothing, listeners learn what
  (if anything) they decoded, plus the ternary observation on a
  collision-detection radio channel;
* the problem is **solved** at the first round whose transmitter set has
  size exactly one ("a participating node transmits alone among all
  participating nodes").

The engine stops at the solving round — the paper's completion condition is
about the round occurring, not about any node detecting it.

The channel resolves a round into arrays
(:class:`~repro.sinr.channel.ReceptionReport`,
:class:`~repro.radio.channel.RadioReport`): sorted transmitter ids, the
listener ids, the sender each listener decoded or -1, and energy per
listener (SINR) or one observation for the round (radio). Their
``received_from`` / ``energy`` / ``observations`` mappings are built only
when read, which the engine does only for round records.

A round's decide and feedback take one of two steps, chosen once per
run:

* the **vector step**, for a protocol factory whose
  :meth:`~repro.protocols.base.ProtocolFactory.template` node
  :func:`~repro.protocols.schedules.template_step` accepts: an
  :class:`~repro.protocols.base.ObliviousNode` type (the paper's
  algorithm, ALOHA, decay, JS16, sawtooth and the CD tournament) or a
  plain BEB node. Oblivious nodes flip all coins with one
  ``rng.random(k)`` over the awake active nodes in id order, which draws
  exactly the numbers ``k`` per-node ``rng.random()`` calls would; BEB
  keeps its windows and countdowns as arrays and draws the transmitters'
  new countdowns with one ``rng.integers(0, windows)``. The knockout
  rule is a mask over the report's arrays. Such a run builds no nodes:
  it starts from an all-active mask (and the template's BEB window and
  countdown);
* the **per-node step** for every node list and every other factory
  (carrier sense, whose nodes each run builds afresh): each node decides
  and receives its :class:`~repro.protocols.base.Feedback`, read from
  the report's arrays by listener position. A node list keeps its state,
  so it can be inspected after the run.

Both steps feed the same round loop, the channel's ``resolve_ids`` (the
round's sorted, disjoint ids need no re-validation) and bookkeeping,
and a factory run gives the trace and records of a run of its node list.

Staggered activation (the *wake-up* flavour of the problem, [7] in the
paper's related work) is supported via ``activation_schedule``: node ``i``
joins the execution at its scheduled round and — crucially — sees **local**
round numbers (rounds since its own activation). There is no global phase
reference: a protocol whose schedule depends on round alignment (decay's
probability sweep) loses that alignment under staggered wake-up, while the
paper's memoryless algorithm is oblivious to it. Experiment E15 measures
exactly this.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional, Union

import numpy as np

from repro.obs.probe import get_probe_bus
from repro.obs.registry import get_registry
from repro.protocols.base import Action, Feedback, NodeProtocol, ProtocolFactory
from repro.protocols.schedules import template_step
from repro.radio.channel import RadioChannel
from repro.sim.trace import ExecutionTrace, RoundRecord

__all__ = ["Simulation"]

#: Everything a transmitter learns; frozen, so one instance serves all.
_TRANSMITTED = Feedback(transmitted=True)


class Simulation:
    """Run one execution of a protocol on a channel.

    Parameters
    ----------
    channel:
        Any object exposing ``resolve_ids(tx, listener_ids, rng)`` and an
        ``n`` attribute — :class:`repro.sinr.SINRChannel` or
        :class:`repro.radio.RadioChannel` — whose reports carry their
        array fields (``listener_ids``, ``decoded``, ``observation``).
    nodes:
        The protocol factory, or per-node state machines, one per
        channel node, in id order (``factory.build(channel.n)``). A node
        list runs on the per-node step and can be inspected after the
        run; :attr:`nodes` is ``None`` for a factory run that builds none.
    rng:
        Generator driving every random choice of this execution.
    max_rounds:
        Round budget; the trace reports failure if no solo round occurs
        within it.
    keep_records:
        Retain per-round :class:`RoundRecord` objects on the trace. Disable
        for large sweeps where only the solving round matters. The
        link-class analyses replay an execution from its records
        (:func:`~repro.analysis.linkclasses.link_class_history`).
    activation_schedule:
        Optional per-node activation rounds (length ``n``). Node ``i``
        participates from round ``activation_schedule[i]`` onward and its
        ``decide`` / ``on_feedback`` receive *local* rounds (global round
        minus activation). Default: everyone activates at round 0.
    """

    def __init__(
        self,
        channel,
        nodes: Union[ProtocolFactory, List[NodeProtocol]],
        rng: np.random.Generator,
        max_rounds: int = 100_000,
        keep_records: bool = True,
        protocol_name: Optional[str] = None,
        activation_schedule: Optional[List[int]] = None,
    ) -> None:
        if isinstance(nodes, ProtocolFactory):
            self._factory: Optional[ProtocolFactory] = nodes
            self._template = nodes.template(channel.n)
            self.nodes: Optional[List[NodeProtocol]] = None
            kinds = {type(self._template)}
        else:
            if len(nodes) != channel.n:
                raise ValueError(
                    f"node count {len(nodes)} does not match channel size {channel.n}"
                )
            self._factory = None
            self._template = nodes[0]
            self.nodes = nodes
            kinds = set(map(type, nodes))
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be positive (got {max_rounds})")
        self._check_capabilities(channel, kinds)
        if activation_schedule is None:
            activation = np.zeros(channel.n, dtype=np.int64)
        else:
            activation = np.asarray(list(activation_schedule), dtype=np.int64)
            if activation.shape != (channel.n,):
                raise ValueError(
                    f"activation_schedule must have length {channel.n}, "
                    f"got {activation.shape}"
                )
            if activation.min() < 0:
                raise ValueError("activation rounds must be non-negative")
        self.channel = channel
        self.rng = rng
        self.max_rounds = max_rounds
        self.keep_records = keep_records
        self.protocol_name = protocol_name or type(self._template).__name__
        self.activation = activation

    @staticmethod
    def _check_capabilities(channel, kinds: set) -> None:
        """Refuse pairings with a channel that node classes' assumptions rule out."""
        needs_cd = any(
            getattr(kind, "requires_collision_detection", False) for kind in kinds
        )
        if needs_cd:
            if not (isinstance(channel, RadioChannel) and channel.collision_detection):
                raise ValueError(
                    "protocol requires a collision-detection radio channel"
                )
        needs_energy = any(
            getattr(kind, "requires_energy_sensing", False) for kind in kinds
        )
        if needs_energy and not getattr(channel, "provides_energy", False):
            raise ValueError(
                "protocol requires carrier sensing (per-round energy), which "
                "this channel does not provide"
            )

    def run(self) -> ExecutionTrace:
        """Execute rounds until solved or the budget is exhausted.

        Telemetry: when the global metrics registry is enabled the
        engine records per-round transmitter/reception/knockout counts
        and the active population under ``sim.*`` — see
        docs/observability.md for the metric schema. When the global
        probe bus is enabled the engine additionally publishes
        round-level flight-recorder probes (:mod:`repro.obs.probe`).
        """
        obs = get_registry()
        recording = obs.enabled
        bus = get_probe_bus()
        probing = bus.enabled
        if probing:
            from repro.analysis.linkclasses import link_class_round_sizes
            from repro.analysis.nearest_active import NearestActiveNeighbours

            bus.begin_execution(n=self.channel.n)
            # Link classes need geometry: SINR channels have positions,
            # radio channels none. Nodes join the tracker as they wake.
            positions = getattr(self.channel, "positions", None)
            nearest = (
                None
                if positions is None
                else NearestActiveNeighbours(
                    positions, active=np.zeros(self.channel.n, dtype=bool)
                )
            )
        if recording:
            obs.counter("sim.executions").inc()
            c_rounds = obs.counter("sim.rounds")
            c_tx = obs.counter("sim.transmissions")
            c_rx = obs.counter("sim.receptions")
            c_ko = obs.counter("sim.knockouts")
            h_tx = obs.histogram("sim.transmitters_per_round")
            g_active = obs.gauge("sim.active_population")
        trace = ExecutionTrace(n=self.channel.n, protocol_name=self.protocol_name)
        step, active = self._start()
        everyone_awake_from_start = bool(np.all(self.activation == 0))
        staggered = not everyone_awake_from_start

        for round_index in range(self.max_rounds):
            awake = self.activation <= round_index
            active_ids = (active & awake).nonzero()[0]
            if active_ids.size == 0 and (
                everyone_awake_from_start or round_index >= int(self.activation.max())
            ):
                # Defensive: a correct protocol never deactivates everyone
                # before a solo round, but a buggy one might; stop cleanly
                # (once no further activations are pending).
                break

            local_rounds = round_index - self.activation[active_ids]
            if step is None:
                transmit = self._decide_each(active_ids, local_rounds)
            else:
                transmit = step.decide(active_ids, local_rounds, self.rng, staggered)
            tx_ids = active_ids[transmit]
            listener_ids = active_ids[~transmit]
            if probing:
                bus.begin_round(round_index)
                if nearest is not None:
                    nearest.sync(active & awake)
            report = self.channel.resolve_ids(tx_ids, listener_ids, self.rng)

            if step is None:
                knocked_out = self._deliver_feedback(
                    active_ids, local_rounds, transmit, report
                )
            else:
                knocked_out = step.knock_out(report)
            active[knocked_out] = False
            if probing:
                bus.emit_round(
                    active_before=active_ids.size,
                    tx_count=tx_ids.size,
                    knockouts=knocked_out.size,
                    knocked_ids=knocked_out,
                    pending=int(np.count_nonzero(self.activation > round_index)),
                    class_stats=(
                        ()
                        if nearest is None
                        else link_class_round_sizes(nearest.distance, knocked_out)
                    ),
                )

            if self.keep_records:
                trace.records.append(
                    RoundRecord(
                        index=round_index,
                        transmitters=tuple(tx_ids.tolist()),
                        receptions=report.received_from,
                        active_before=tuple(active_ids.tolist()),
                        knocked_out=tuple(knocked_out.tolist()),
                    )
                )
            if recording:
                c_rounds.inc()
                c_tx.inc(tx_ids.size)
                c_rx.inc(int(np.count_nonzero(report.decoded >= 0)))
                c_ko.inc(knocked_out.size)
                h_tx.observe(tx_ids.size)
                g_active.set(int(np.count_nonzero(active)))

            trace.rounds_executed = round_index + 1
            if tx_ids.size == 1:
                trace.solved_round = round_index
                break
        if recording and trace.solved:
            obs.counter("sim.solved_executions").inc()
        if probing:
            bus.end_execution(trace.rounds_executed, trace.solved_round)
        return trace

    def _start(self):
        """The run's vector step (``None``: the per-node step) and active mask.

        A factory whose template takes the vector step builds no nodes and
        starts with every node active; any other factory builds a fresh
        node list on every run.
        """
        if self._factory is not None:
            step = template_step(self._template, self.channel.n)
            if step is not None:
                return step, np.ones(self.channel.n, dtype=bool)
            self.nodes = self._factory.build(self.channel.n)
        return None, np.array([node.active for node in self.nodes], dtype=bool)

    def _decide_each(self, active_ids: np.ndarray, local_rounds: np.ndarray) -> np.ndarray:
        """Ask each awake active node in id order; the transmit mask."""
        nodes, rng = self.nodes, self.rng
        return np.fromiter(
            (
                nodes[i].decide(local, rng) is Action.TRANSMIT
                for i, local in zip(active_ids.tolist(), local_rounds.tolist())
            ),
            dtype=bool,
            count=active_ids.size,
        )

    def _deliver_feedback(
        self,
        active_ids: np.ndarray,
        local_rounds: np.ndarray,
        transmit: np.ndarray,
        report,
    ) -> np.ndarray:
        """Hand each active node its round feedback; return new knockouts.

        The report's listeners are the round's listeners in id order, so
        the ``k``-th listener's reception and energy sit at position ``k``
        of the report's arrays.
        """
        energy_entries = getattr(report, "energy_entries", None)
        per_listener = zip(
            report.decoded.tolist(),
            energy_entries() if energy_entries else repeat(None),
        )
        observation = report.observation
        knocked_out: List[int] = []
        for i, local, transmitted in zip(
            active_ids.tolist(), local_rounds.tolist(), transmit.tolist()
        ):
            node = self.nodes[i]
            if transmitted:
                feedback = _TRANSMITTED
            else:
                sender, energy = next(per_listener)
                # Positional: (transmitted, received, observation, energy).
                feedback = Feedback(
                    False, None if sender < 0 else sender, observation, energy
                )
            node.on_feedback(local, feedback)
            if not node.active:
                knocked_out.append(i)
        return np.array(knocked_out, dtype=np.intp)
