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
from repro.protocols.base import Knockout, ObliviousNode
from repro.protocols.schedules import ObliviousStep, vector_step
from repro.protocols.simple import FixedProbabilityNode
from repro.radio.channel import RadioChannel
from repro.sim.engine import Simulation
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


def _run(protocol, channel, seed, per_node, keep_records=True, observe=True, **kwargs):
    """One execution; returns everything the two steps must agree on."""
    nodes = _nodes(protocol, per_node)
    seen = []
    rng = generator_from(seed)
    trace = Simulation(
        channel,
        nodes,
        rng=rng,
        max_rounds=3_000,
        keep_records=keep_records,
        observers=[lambda record, active: seen.append((record, active.copy()))]
        if observe
        else None,
        **kwargs,
    ).run()
    return {
        "solved_round": trace.solved_round,
        "rounds_executed": trace.rounds_executed,
        "protocol_name": trace.protocol_name,
        "records": trace.records,
        "seen": [(record, active.tolist()) for record, active in seen],
        "final_active": [node.active for node in nodes],
        "final_state": [vars(node) for node in nodes],
        "rng_state": rng.bit_generator.state,
    }


class TestParity:
    @pytest.mark.parametrize("protocol,channel", CASES)
    def test_records_observers_and_final_state_match(self, protocol, channel):
        knockouts = 0
        for seed in SEEDS:
            ch = CHANNELS[channel]()
            vector = _run(protocol, ch, seed, per_node=False)
            reference = _run(protocol, ch, seed, per_node=True)
            assert vector == reference
            assert len(vector["records"]) == vector["rounds_executed"]
            knockouts += sum(len(r.knocked_out) for r in vector["records"])
        if PROTOCOLS[protocol].build(N)[0].knockout is not Knockout.NEVER:
            assert knockouts > 0  # the feedback rule actually fired

    @pytest.mark.parametrize("protocol,channel", CASES)
    def test_without_records_or_observers(self, protocol, channel):
        ch = CHANNELS[channel]()
        vector = _run(protocol, ch, 7, per_node=False, keep_records=False, observe=False)
        reference = _run(protocol, ch, 7, per_node=True, keep_records=False, observe=False)
        assert vector == reference
        assert vector["records"] == [] and vector["seen"] == []

    @pytest.mark.parametrize(
        "protocol", ["simple", "decay", "decay_knockout", "js16", "sawtooth_knockout"]
    )
    @pytest.mark.parametrize("channel", ["sinr", "radio"])
    def test_staggered_activation(self, protocol, channel):
        schedule = generator_from(12).integers(0, 25, size=N).tolist()
        for seed in SEEDS:
            ch = CHANNELS[channel]()
            vector = _run(protocol, ch, seed, per_node=False, activation_schedule=schedule)
            reference = _run(protocol, ch, seed, per_node=True, activation_schedule=schedule)
            assert vector == reference

    @pytest.mark.parametrize("channel", ["sinr", "radio", "radio_cd"])
    def test_collision_rule_needs_collision_detection(self, channel):
        # A collision rule without the CD requirement runs anywhere, but
        # only a collision-detection channel ever reports a collision.
        class Conceding(ObliviousNode):
            knockout = Knockout.ON_COLLISION
            p = 0.1

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


def _instrumented(protocol, channel, seed, per_node):
    registry = MetricsRegistry(enabled=True)
    bus = ProbeBus(enabled=True)
    recorder = ProbeRecorder()
    bus.subscribe(recorder)
    previous_registry = set_registry(registry)
    previous_bus = set_probe_bus(bus)
    try:
        outcome = _run(protocol, channel, seed, per_node, keep_records=False, observe=False)
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
        vector, vector_metrics, vector_probes = _instrumented(protocol, ch, 8, False)
        reference, reference_metrics, reference_probes = _instrumented(protocol, ch, 8, True)
        assert vector == reference
        assert vector_metrics == reference_metrics
        assert vector_metrics["sim.rounds"]["value"] == vector["rounds_executed"]
        assert vector_probes.keys() == reference_probes.keys()
        for name in vector_probes:
            np.testing.assert_array_equal(vector_probes[name], reference_probes[name])
        assert vector_probes["rounds_round"].size == vector["rounds_executed"]


class TestBackoffParity:
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("protocol", sorted(BACKOFF))
    def test_records_observers_and_state_match(self, protocol, channel):
        knockouts = 0
        for seed in SEEDS:
            ch = CHANNELS[channel]()
            vector = _run(protocol, ch, seed, per_node=False)
            reference = _run(protocol, ch, seed, per_node=True)
            assert vector == reference
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
            ch = CHANNELS[channel]()
            vector = _run(protocol, ch, seed, per_node=False, activation_schedule=schedule)
            reference = _run(protocol, ch, seed, per_node=True, activation_schedule=schedule)
            assert vector == reference

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
