"""The engine's vectorised decide/feedback step against its per-node step.

When every node of a run is the same :class:`ObliviousNode` with the same
schedule, :class:`Simulation` flips all of a round's coins with one
``rng.random(k)`` and applies the knockout rule as a mask. When every
node is a plain BEB node with one window cap, it keeps the windows and
countdowns as arrays and draws the transmitters' new countdowns with one
``rng.integers(0, windows)``. The reference here is the per-node step,
reached by re-typing each node to a test-only subclass that overrides
``decide`` (any override opts a node list out). Both runs share a seed,
so everything must agree exactly: round records, observer views, final
node state (``active``, and BEB's ``window`` and ``_countdown``), the
generator's state after the run, registry counters and probe arrays.

Each case also runs from the protocol factory instead of a node list,
which builds no nodes for a vector-step protocol; that run must give
the same trace, records, observer views and generator state.
"""

import functools

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
from repro.protocols.schedules import ObliviousStep, vector_step
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


@functools.lru_cache(maxsize=None)
def _per_node_class(kind):
    class PerNode(kind):
        def decide(self, round_index, rng):
            return super().decide(round_index, rng)

    PerNode.__name__ = PerNode.__qualname__ = kind.__name__
    return PerNode


def _nodes(protocol, per_node):
    nodes = FACTORIES[protocol].build(N)
    if per_node:
        for node in nodes:
            node.__class__ = _per_node_class(type(node))
        assert vector_step(nodes) is None
    else:
        assert vector_step(nodes) is not None
    return nodes


#: Result fields only a run of a node list has.
_NODE_FIELDS = ("final_active", "final_state")


def _run(protocol, channel, seed, source, keep_records=True, observe=True, **kwargs):
    """One execution; returns everything the steps must agree on.

    ``source`` is what the run is given: ``"vector"``, the node list
    (taking the vector step); ``"per_node"``, the node list re-typed to
    take the per-node step; or ``"factory"``.
    """
    if source == "factory":
        given = FACTORIES[protocol]
    else:
        given = _nodes(protocol, source == "per_node")
    seen = []
    rng = generator_from(seed)
    simulation = Simulation(
        channel,
        given,
        rng=rng,
        max_rounds=3_000,
        keep_records=keep_records,
        observers=[lambda record, active: seen.append((record, active.copy()))]
        if observe
        else None,
        **kwargs,
    )
    trace = simulation.run()
    result = {
        "solved_round": trace.solved_round,
        "rounds_executed": trace.rounds_executed,
        "protocol_name": trace.protocol_name,
        "records": trace.records,
        "seen": [(record, active.tolist()) for record, active in seen],
        "rng_state": rng.bit_generator.state,
    }
    if source == "factory":
        assert simulation.nodes is None  # a vector-step factory builds no nodes
    else:
        result["final_active"] = [node.active for node in given]
        result["final_state"] = [vars(node) for node in given]
    return result


def _without_nodes(result):
    return {key: value for key, value in result.items() if key not in _NODE_FIELDS}


def _parity(protocol, channel, seed, **kwargs):
    """The vector run of the node list, checked against the per-node and factory runs."""
    vector = _run(protocol, channel, seed, "vector", **kwargs)
    assert vector == _run(protocol, channel, seed, "per_node", **kwargs)
    assert _without_nodes(vector) == _run(protocol, channel, seed, "factory", **kwargs)
    return vector


class TestParity:
    @pytest.mark.parametrize("protocol,channel", CASES)
    def test_records_observers_and_final_state_match(self, protocol, channel):
        knockouts = 0
        for seed in SEEDS:
            vector = _parity(protocol, CHANNELS[channel](), seed)
            assert len(vector["records"]) == vector["rounds_executed"]
            knockouts += sum(len(r.knocked_out) for r in vector["records"])
        if PROTOCOLS[protocol].build(N)[0].knockout is not Knockout.NEVER:
            assert knockouts > 0  # the feedback rule actually fired

    @pytest.mark.parametrize("protocol,channel", CASES)
    def test_without_records_or_observers(self, protocol, channel):
        vector = _parity(
            protocol, CHANNELS[channel](), 7, keep_records=False, observe=False
        )
        assert vector["records"] == [] and vector["seen"] == []

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
            vector = _parity(
                protocol, CHANNELS[channel](), seed, activation_schedule=schedule
            )
            assert len(vector["seen"]) == vector["rounds_executed"]

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

        def run(per_node):
            nodes = [Conceding(i) for i in range(N)]
            if per_node:
                for node in nodes:
                    node.__class__ = _per_node_class(Conceding)
            trace = Simulation(
                CHANNELS[channel](), nodes, rng=generator_from(9), max_rounds=2_000
            ).run()
            return trace.solved, trace.records, [node.active for node in nodes]

        solved, records, final = run(per_node=False)
        assert (solved, records, final) == run(per_node=True)
        assert solved
        assert all(final) is (channel != "radio_cd")
        trace = Simulation(
            CHANNELS[channel](), ConcedingProtocol(), rng=generator_from(9), max_rounds=2_000
        ).run()
        assert (trace.solved, trace.records) == (solved, records)

    def test_nodes_inactive_at_start_stay_out(self):
        def run(per_node):
            nodes = _nodes("simple", per_node)
            for node in nodes[::3]:
                node.knock_out()
            trace = Simulation(
                CHANNELS["sinr"](), nodes, rng=generator_from(2)
            ).run()
            return trace.records, [node.active for node in nodes]

        records, final = run(per_node=False)
        assert (records, final) == run(per_node=True)
        assert all(0 not in r.active_before for r in records)


def _instrumented(protocol, channel, seed, source):
    registry = MetricsRegistry(enabled=True)
    bus = ProbeBus(enabled=True)
    recorder = ProbeRecorder()
    bus.subscribe(recorder)
    previous_registry = set_registry(registry)
    previous_bus = set_probe_bus(bus)
    try:
        outcome = _run(protocol, channel, seed, source, keep_records=False, observe=False)
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
        vector, vector_metrics, vector_probes = _instrumented(protocol, ch, 8, "vector")
        reference, reference_metrics, reference_probes = _instrumented(
            protocol, ch, 8, "per_node"
        )
        factory, factory_metrics, factory_probes = _instrumented(protocol, ch, 8, "factory")
        assert vector == reference
        assert _without_nodes(vector) == factory
        assert vector_metrics == reference_metrics == factory_metrics
        assert vector_metrics["sim.rounds"]["value"] == vector["rounds_executed"]
        assert vector_probes.keys() == reference_probes.keys() == factory_probes.keys()
        for name in vector_probes:
            np.testing.assert_array_equal(vector_probes[name], reference_probes[name])
            np.testing.assert_array_equal(vector_probes[name], factory_probes[name])
        assert vector_probes["rounds_round"].size == vector["rounds_executed"]


class TestBackoffParity:
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("protocol", sorted(BACKOFF))
    def test_records_observers_and_state_match(self, protocol, channel):
        knockouts = 0
        for seed in SEEDS:
            vector = _parity(protocol, CHANNELS[channel](), seed)
            assert vector["solved_round"] is not None
            knockouts += sum(len(r.knocked_out) for r in vector["records"])
        if channel not in ("radio", "radio_cd"):
            # A radio listener decodes only in the solo round, which ends the run.
            assert knockouts > 0
        if protocol == "beb_capped":
            cap = BACKOFF[protocol].max_window
            assert any(state["window"] == cap for state in vector["final_state"])

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
    def test_opted_in_protocols_take_the_vector_step(self, steps, protocol):
        channel = CHANNELS["radio_cd"]() if protocol == "cd_tournament" else None
        self._execute(FACTORIES[protocol].build(N), channel)
        assert steps["vector"] > 0 and steps["per_node"] == 0

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

    @pytest.mark.parametrize(
        "nodes",
        [
            pytest.param(
                lambda: BinaryExponentialBackoffProtocol().build(N - 1)
                + [BinaryExponentialBackoffNode(N - 1, 2, 1 << 10)],
                id="beb_mixed_max_window",
            ),
            pytest.param(
                lambda: CarrierSenseTournamentProtocol(
                    carrier_sense_threshold(SINRChannel(_POSITIONS))
                ).build(N),
                id="carrier_sense",
            ),
            pytest.param(
                lambda: FixedProbabilityProtocol().build(N - 1)
                + DecayProtocol().build(N)[-1:],
                id="mixed_types",
            ),
            pytest.param(
                lambda: FixedProbabilityProtocol(p=0.1).build(N - 1)
                + [FixedProbabilityNode(N - 1, p=0.2)],
                id="mixed_parameters",
            ),
            pytest.param(
                lambda: DecayProtocol().build(N - 1)
                + DecayProtocol(deactivate_on_receive=True).build(N)[-1:],
                id="mixed_knockout_rules",
            ),
        ],
    )
    def test_other_node_lists_take_the_per_node_step(self, steps, nodes):
        nodes = nodes()
        assert vector_step(nodes) is None
        self._execute(nodes)
        assert steps["per_node"] > 0 and steps["vector"] == 0
