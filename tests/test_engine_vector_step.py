"""The engine's vectorised decide/feedback step against its per-node step.

Given a protocol factory whose nodes are one :class:`ObliviousNode`
type, :class:`Simulation` flips all of a round's coins with one
``rng.random(k)`` and applies the knockout rule as a mask. Given a plain
BEB factory, it keeps the windows and countdowns as arrays and draws the
transmitters' new countdowns with one ``rng.integers(0, windows)``. Such
a run builds no nodes. The reference is the per-node step, which every
node list takes: each case runs the factory's node list and the factory
itself from one seed, and everything must agree exactly: round records,
the generator's state after the run, registry counters and probe arrays.
The list's nodes end in the active state the records replay to.
"""

import numpy as np
import pytest

from repro.deploy.topologies import uniform_disk
from repro.obs.probe import ProbeBus, ProbeRecorder, set_probe_bus
from repro.obs.registry import MetricsRegistry, set_registry
from repro.protocols import (
    BinaryExponentialBackoffProtocol,
    CarrierSenseTournamentProtocol,
    CollisionDetectionTournamentProtocol,
    DecayProtocol,
    FixedProbabilityProtocol,
    JurdzinskiStachowiakProtocol,
    SawtoothBackoffProtocol,
    SlottedAlohaProtocol,
    carrier_sense_threshold,
)
from repro.protocols.backoff import BackoffStep, BinaryExponentialBackoffNode
from repro.protocols.base import Knockout, NodeProtocol, ObliviousNode, ProtocolFactory
from repro.protocols.schedules import ObliviousStep
from repro.protocols.simple import FixedProbabilityNode
from repro.radio.channel import RadioChannel
from repro.sim.engine import Simulation
from repro.sim.runner import run_trials
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel
from repro.sinr.fading import RayleighFading
from repro.sinr.jamming import ExternalSource

N = 40
SEEDS = (3, 4, 5)

_POSITIONS = uniform_disk(N, generator_from(11))


def _jammed_channel():
    base = SINRChannel(_POSITIONS)
    centre = _POSITIONS.mean(axis=0) + np.asarray([0.31, 0.17])
    jammer = ExternalSource(
        position=(float(centre[0]), float(centre[1])),
        power=0.05 * base.params.power,
        duty_cycle=0.5,
    )
    return SINRChannel(_POSITIONS, external_sources=[jammer])


CHANNELS = {
    "sinr": lambda: SINRChannel(_POSITIONS),
    "rayleigh": lambda: SINRChannel(_POSITIONS, gain_model=RayleighFading()),
    "jammer": _jammed_channel,
    "radio": lambda: RadioChannel(N),
    "radio_cd": lambda: RadioChannel(N, collision_detection=True),
}

PROTOCOLS = {
    "simple": FixedProbabilityProtocol(p=0.1),
    "aloha": SlottedAlohaProtocol(),
    "decay": DecayProtocol(),
    "decay_knockout": DecayProtocol(deactivate_on_receive=True),
    "js16": JurdzinskiStachowiakProtocol(),
    "sawtooth": SawtoothBackoffProtocol(),
    "sawtooth_knockout": SawtoothBackoffProtocol(deactivate_on_receive=True),
    "cd_tournament": CollisionDetectionTournamentProtocol(),
}

BACKOFF = {
    "beb": BinaryExponentialBackoffProtocol(),
    # A cap the windows reach within a run.
    "beb_capped": BinaryExponentialBackoffProtocol(initial_window=3, max_window=24),
}

FACTORIES = {**PROTOCOLS, **BACKOFF}

CASES = [
    (protocol, channel)
    for protocol in PROTOCOLS
    for channel in CHANNELS
    if protocol != "cd_tournament" or channel == "radio_cd"
]


#: Result fields only a run of a node list has.
_NODE_FIELDS = ("final_active", "final_state")


def _run(protocol, channel, seed, source, keep_records=True, **kwargs):
    """One execution; returns everything the steps must agree on.

    ``source`` is what the run is given: ``"list"``, the factory's node
    list (taking the per-node step), or ``"factory"`` (the vector step).
    """
    given = FACTORIES[protocol]
    if source == "list":
        given = given.build(N)
    rng = generator_from(seed)
    simulation = Simulation(
        channel, given, rng=rng, max_rounds=3_000, keep_records=keep_records, **kwargs
    )
    trace = simulation.run()
    result = {
        "solved_round": trace.solved_round,
        "rounds_executed": trace.rounds_executed,
        "protocol_name": trace.protocol_name,
        "records": trace.records,
        "rng_state": rng.bit_generator.state,
    }
    if source == "factory":
        assert simulation.nodes is None  # a vector-step factory builds no nodes
    else:
        result["final_active"] = [node.active for node in given]
        result["final_state"] = [vars(node) for node in given]
        if trace.records:
            # Every node starts active; the records name everyone knocked out.
            knocked = {i for record in trace.records for i in record.knocked_out}
            assert result["final_active"] == [i not in knocked for i in range(N)]
    return result


def _without_nodes(result):
    return {key: value for key, value in result.items() if key not in _NODE_FIELDS}


def _parity(protocol, channel, seed, **kwargs):
    """The node list's (per-node) run, checked against the factory's (vector) run."""
    listed = _run(protocol, channel, seed, "list", **kwargs)
    assert _without_nodes(listed) == _run(protocol, channel, seed, "factory", **kwargs)
    return listed


class TestParity:
    @pytest.mark.parametrize("protocol,channel", CASES)
    def test_records_observers_and_final_state_match(self, protocol, channel):
        knockouts = 0
        for seed in SEEDS:
            listed = _parity(protocol, CHANNELS[channel](), seed)
            assert len(listed["records"]) == listed["rounds_executed"]
            knockouts += sum(len(r.knocked_out) for r in listed["records"])
        if PROTOCOLS[protocol].build(N)[0].knockout is not Knockout.NEVER:
            assert knockouts > 0  # the feedback rule actually fired

    @pytest.mark.parametrize("protocol,channel", CASES)
    def test_without_records_or_observers(self, protocol, channel):
        listed = _parity(protocol, CHANNELS[channel](), 7, keep_records=False)
        assert listed["records"] == []

    @pytest.mark.parametrize(
        "channel,protocol",
        [
            (channel, protocol)
            for channel in ("sinr", "radio", "radio_cd")
            for protocol in PROTOCOLS
            if protocol != "cd_tournament" or channel == "radio_cd"
        ],
    )
    def test_staggered_activation(self, protocol, channel):
        schedule = generator_from(12).integers(0, 25, size=N).tolist()
        for seed in SEEDS:
            listed = _parity(
                protocol, CHANNELS[channel](), seed, activation_schedule=schedule
            )
            assert len(listed["records"]) == listed["rounds_executed"]

    @pytest.mark.parametrize("channel", ["sinr", "radio", "radio_cd"])
    def test_collision_rule_needs_collision_detection(self, channel):
        # A collision rule without the CD requirement runs anywhere, but
        # only a collision-detection channel ever reports a collision.
        class Conceding(ObliviousNode):
            knockout = Knockout.ON_COLLISION
            p = 0.1

        class ConcedingProtocol(ProtocolFactory):
            def node_spec(self, n):
                return Conceding, ()

        nodes = [Conceding(i) for i in range(N)]
        listed = Simulation(
            CHANNELS[channel](), nodes, rng=generator_from(9), max_rounds=2_000
        ).run()
        assert listed.solved
        assert all(node.active for node in nodes) is (channel != "radio_cd")
        trace = Simulation(
            CHANNELS[channel](), ConcedingProtocol(), rng=generator_from(9), max_rounds=2_000
        ).run()
        assert (trace.solved, trace.records) == (listed.solved, listed.records)

    def test_nodes_inactive_at_start_stay_out(self):
        nodes = FACTORIES["simple"].build(N)
        for node in nodes[::3]:
            node.knock_out()
        trace = Simulation(CHANNELS["sinr"](), nodes, rng=generator_from(2)).run()
        out = set(range(0, N, 3))
        assert trace.solved
        assert all(out.isdisjoint(r.active_before) for r in trace.records)
        assert not any(nodes[i].active for i in out)


def _instrumented(protocol, channel, seed, source):
    registry = MetricsRegistry(enabled=True)
    bus = ProbeBus(enabled=True)
    recorder = ProbeRecorder()
    bus.subscribe(recorder)
    previous_registry = set_registry(registry)
    previous_bus = set_probe_bus(bus)
    try:
        outcome = _run(protocol, channel, seed, source, keep_records=False)
    finally:
        set_probe_bus(previous_bus)
        set_registry(previous_registry)
    metrics = {
        name: data
        for name, data in registry.snapshot().items()
        if not name.endswith("_seconds")
    }
    return outcome, metrics, recorder.snapshot()


class TestTelemetryParity:
    @pytest.mark.parametrize(
        "protocol,channel",
        [(p, c) for p, c in CASES if c in ("sinr", "jammer", "radio_cd")]
        + [(p, c) for p in sorted(BACKOFF) for c in sorted(CHANNELS)],
    )
    def test_registry_and_probes_match(self, protocol, channel):
        ch = CHANNELS[channel]()
        listed, listed_metrics, listed_probes = _instrumented(protocol, ch, 8, "list")
        factory, factory_metrics, factory_probes = _instrumented(protocol, ch, 8, "factory")
        assert _without_nodes(listed) == factory
        assert listed_metrics == factory_metrics
        assert listed_metrics["sim.rounds"]["value"] == listed["rounds_executed"]
        assert listed_probes.keys() == factory_probes.keys()
        for name in listed_probes:
            np.testing.assert_array_equal(listed_probes[name], factory_probes[name])
        assert listed_probes["rounds_round"].size == listed["rounds_executed"]


class TestBackoffParity:
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("protocol", sorted(BACKOFF))
    def test_records_observers_and_state_match(self, protocol, channel):
        knockouts = 0
        for seed in SEEDS:
            listed = _parity(protocol, CHANNELS[channel](), seed)
            assert listed["solved_round"] is not None
            knockouts += sum(len(r.knocked_out) for r in listed["records"])
        if channel not in ("radio", "radio_cd"):
            # A radio listener decodes only in the solo round, which ends the run.
            assert knockouts > 0
        if protocol == "beb_capped":
            cap = BACKOFF[protocol].max_window
            assert any(state["window"] == cap for state in listed["final_state"])

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("protocol", sorted(BACKOFF))
    def test_staggered_activation(self, protocol, channel):
        schedule = generator_from(12).integers(0, 25, size=N).tolist()
        for seed in SEEDS:
            _parity(protocol, CHANNELS[channel](), seed, activation_schedule=schedule)

    def test_array_highs_draw_like_scalar_calls(self):
        # One rng.integers(0, highs) over an array must draw, in order, the
        # numbers per-element rng.integers(0, h) calls draw, and leave the
        # generator where they leave it.
        picker = generator_from(21)
        highs = np.concatenate(
            [
                [1, 2, 1, 3, 1 << 16, 1, (1 << 16) - 1, 2],
                1 << picker.integers(0, 17, size=300),
                picker.integers(1, (1 << 16) + 1, size=300),
            ]
        )
        picker.shuffle(highs)
        assert highs.min() == 1 and highs.max() == 1 << 16 and highs.size >= 400
        for seed in range(3):
            vector_rng, scalar_rng = generator_from(seed), generator_from(seed)
            drawn = vector_rng.integers(0, highs)
            scalar = [int(scalar_rng.integers(0, int(h))) for h in highs]
            message = (
                "rng.integers(0, highs) no longer draws like per-element scalar "
                "calls; the engine's BEB vector step depends on this"
            )
            assert drawn.tolist() == scalar, message
            assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state, message


def _factory_channel(protocol):
    return "radio_cd" if protocol == "cd_tournament" else "sinr"


def _carrier_sense():
    return CarrierSenseTournamentProtocol(carrier_sense_threshold(SINRChannel(_POSITIONS)))


#: Mixed node lists no factory builds, and carrier sense's node list.
_OTHER_LISTS = {
    "beb_mixed_max_window": lambda: BinaryExponentialBackoffProtocol().build(N - 1)
    + [BinaryExponentialBackoffNode(N - 1, 2, 1 << 10)],
    "carrier_sense": lambda: _carrier_sense().build(N),
    "mixed_types": lambda: FixedProbabilityProtocol().build(N - 1)
    + DecayProtocol().build(N)[-1:],
    "mixed_parameters": lambda: FixedProbabilityProtocol(p=0.1).build(N - 1)
    + [FixedProbabilityNode(N - 1, p=0.2)],
    "mixed_knockout_rules": lambda: DecayProtocol().build(N - 1)
    + DecayProtocol(deactivate_on_receive=True).build(N)[-1:],
}

#: Factories whose runs build their nodes and take the per-node step.
_PER_NODE_FACTORIES = {
    "carrier_sense": _carrier_sense,
    # A window cap past the vector step's int64 range.
    "beb_huge_cap": lambda: BinaryExponentialBackoffProtocol(max_window=1 << 62),
}


class TestFactoryRuns:
    @pytest.mark.parametrize("protocol", sorted(FACTORIES))
    def test_runner_trial_builds_at_most_one_node(self, monkeypatch, protocol):
        built = []
        original = NodeProtocol.__init__

        def counting(self, node_id):
            built.append(node_id)
            original(self, node_id)

        monkeypatch.setattr(NodeProtocol, "__init__", counting)
        channel = CHANNELS[_factory_channel(protocol)]
        stats = run_trials(lambda rng: channel(), FACTORIES[protocol], 3, seed=4, workers=1)
        assert stats.trials == 3 and stats.total_rounds_executed > 0
        assert len(built) <= 3  # one template per trial

    @pytest.mark.parametrize("protocol", sorted(FACTORIES) + sorted(_PER_NODE_FACTORIES))
    def test_a_second_run_starts_afresh(self, protocol):
        if protocol in FACTORIES:
            factory, channel = FACTORIES[protocol], CHANNELS[_factory_channel(protocol)]()
        else:
            factory, channel = _PER_NODE_FACTORIES[protocol](), CHANNELS["sinr"]()
        rng = generator_from(5)
        start = rng.bit_generator.state
        simulation = Simulation(channel, factory, rng=rng, max_rounds=3_000)
        first = simulation.run()
        rng.bit_generator.state = start
        second = simulation.run()
        assert first.solved and first.records[0].active_before == tuple(range(N))
        assert (second.solved_round, second.records) == (first.solved_round, first.records)

    def test_factory_that_rejects_the_size_raises(self):
        with pytest.raises(ValueError, match="size_bound"):
            Simulation(CHANNELS["sinr"](), DecayProtocol(size_bound=N - 1), rng=generator_from(0))


class TestWhichStepRuns:
    @pytest.fixture
    def steps(self, monkeypatch):
        calls = {"vector": 0, "per_node": 0}

        def spy(name, original):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapped

        for step in (ObliviousStep, BackoffStep):
            monkeypatch.setattr(step, "decide", spy("vector", step.decide))
        monkeypatch.setattr(
            Simulation, "_decide_each", spy("per_node", Simulation._decide_each)
        )
        return calls

    @staticmethod
    def _execute(nodes, channel=None):
        channel = channel if channel is not None else SINRChannel(_POSITIONS)
        Simulation(channel, nodes, rng=generator_from(1), max_rounds=200).run()

    @pytest.mark.parametrize("protocol", sorted(FACTORIES))
    def test_opted_in_factories_take_the_vector_step(self, steps, protocol):
        self._execute(FACTORIES[protocol], CHANNELS[_factory_channel(protocol)]())
        assert steps["vector"] > 0 and steps["per_node"] == 0

    def test_carrier_sense_factory_builds_its_nodes_and_takes_the_per_node_step(
        self, steps
    ):
        channel = SINRChannel(_POSITIONS)
        protocol = CarrierSenseTournamentProtocol(carrier_sense_threshold(channel))
        simulation = Simulation(channel, protocol, rng=generator_from(1), max_rounds=200)
        reference = Simulation(
            channel, protocol.build(N), rng=generator_from(1), max_rounds=200
        )
        assert simulation.run().records == reference.run().records
        assert len(simulation.nodes) == N
        assert [node.active for node in simulation.nodes] == [
            node.active for node in reference.nodes
        ]
        assert steps["per_node"] > 0 and steps["vector"] == 0

    @pytest.mark.parametrize("nodes", sorted(FACTORIES) + sorted(_OTHER_LISTS))
    def test_other_node_lists_take_the_per_node_step(self, steps, nodes):
        """Every node list, a vector-step factory's own included, runs node by node."""
        if nodes in FACTORIES:
            channel = CHANNELS[_factory_channel(nodes)]()
            nodes = FACTORIES[nodes].build(N)
        else:
            channel = None
            nodes = _OTHER_LISTS[nodes]()
        self._execute(nodes, channel)
        assert steps["per_node"] > 0 and steps["vector"] == 0
