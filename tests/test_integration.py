"""Cross-module integration tests: the paper's claims at small scale.

These tie the substrates, protocols, engine and analysis together on
scenarios small enough for the unit suite but real enough to catch wiring
bugs the module tests cannot.
"""

import numpy as np
import pytest

from repro.analysis.linkclasses import link_class_history, link_class_partition
from repro.deploy.topologies import exponential_chain, grid, uniform_disk
from repro.protocols.decay import DecayProtocol
from repro.protocols.js16 import JurdzinskiStachowiakProtocol
from repro.protocols.simple import FixedProbabilityProtocol
from repro.radio.channel import RadioChannel
from repro.sim.engine import Simulation
from repro.sim.runner import run_trials
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel
from repro.sinr.fading import RayleighFading
from repro.sinr.parameters import SINRParameters
from tests.test_embedding import two_cluster


class TestPaperAlgorithmOnSINR:
    def test_solves_every_topology(self):
        rng = generator_from(0)
        topologies = {
            "disk": uniform_disk(48, rng),
            "grid": grid(49),
            "chain": exponential_chain(4, nodes_per_class=4),
            "two-cluster": two_cluster(8, rng),
        }
        for name, positions in topologies.items():
            channel = SINRChannel(positions)
            nodes = FixedProbabilityProtocol(p=0.1).build(channel.n)
            trace = Simulation(
                channel, nodes, rng=generator_from((1, name == "grid")), max_rounds=10_000
            ).run()
            assert trace.solved, f"failed on {name}"

    def test_faster_than_decay_on_matched_workload(self):
        n, trials = 64, 25
        simple = run_trials(
            lambda rng: SINRChannel(uniform_disk(n, rng)),
            FixedProbabilityProtocol(p=0.1),
            trials=trials,
            seed=11,
        )
        decay = run_trials(
            lambda rng: RadioChannel(n),
            DecayProtocol(),
            trials=trials,
            seed=11,
        )
        assert simple.mean_rounds < decay.mean_rounds

    def test_knockouts_monotone_active_counts(self, small_channel):
        nodes = FixedProbabilityProtocol(p=0.1).build(small_channel.n)
        trace = Simulation(
            small_channel, nodes, rng=generator_from(3), max_rounds=5_000
        ).run()
        counts = trace.active_counts()
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_no_knowledge_of_n_is_used(self):
        # The same factory instance must work across network sizes — it
        # never sees n before build().
        factory = FixedProbabilityProtocol(p=0.1)
        for n in (4, 16, 64):
            channel = SINRChannel(uniform_disk(n, generator_from(n)))
            trace = Simulation(
                channel, factory.build(n), rng=generator_from(n + 1), max_rounds=10_000
            ).run()
            assert trace.solved

    def test_works_under_rayleigh_fading(self):
        rng = generator_from(13)
        positions = uniform_disk(48, rng)
        channel = SINRChannel(positions, gain_model=RayleighFading())
        nodes = FixedProbabilityProtocol(p=0.1).build(channel.n)
        trace = Simulation(channel, nodes, rng=rng, max_rounds=10_000).run()
        assert trace.solved


class TestSpatialReuseIsTheMechanism:
    def test_sinr_round_knocks_out_many_at_once(self):
        # On a fading channel, one round with several transmitters can
        # deactivate many listeners simultaneously; in the radio model a
        # multi-transmitter round deactivates nobody. This is the paper's
        # central mechanism.
        rng = generator_from(8)
        positions = uniform_disk(64, rng)
        channel = SINRChannel(positions)
        nodes = FixedProbabilityProtocol(p=0.1).build(channel.n)
        trace = Simulation(channel, nodes, rng=rng, max_rounds=5_000).run()
        multi_tx_knockouts = [
            len(record.knocked_out)
            for record in trace.records
            if len(record.transmitters) >= 2
        ]
        assert multi_tx_knockouts and max(multi_tx_knockouts) >= 2

    def test_radio_multi_transmitter_rounds_deliver_nothing(self):
        channel = RadioChannel(16)
        nodes = FixedProbabilityProtocol(p=0.5).build(16)
        trace = Simulation(
            channel, nodes, rng=generator_from(9), max_rounds=200
        ).run()
        for record in trace.records:
            if len(record.transmitters) >= 2:
                assert record.receptions == {}


class TestLinkClassDynamics:
    def test_classes_empty_from_tracked_execution(self):
        positions = exponential_chain(4, nodes_per_class=4)
        channel = SINRChannel(positions)
        nodes = FixedProbabilityProtocol(p=0.1).build(channel.n)
        trace = Simulation(
            channel, nodes, rng=generator_from(15), max_rounds=10_000
        ).run()
        assert trace.solved
        unit = link_class_partition(positions).unit
        matrix, _ = link_class_history(positions, trace, unit)
        # Total classified nodes shrinks over the execution.
        assert matrix[-1].sum() < matrix[0].sum()

    def test_migration_observed_or_absent_gracefully(self):
        # After knockouts, surviving nodes' class indices never decrease
        # relative to the initial partition.
        rng = generator_from(23)
        positions = uniform_disk(40, rng)
        initial = link_class_partition(positions, unit=1.0)
        channel = SINRChannel(positions)
        nodes = FixedProbabilityProtocol(p=0.1).build(channel.n)
        trace = Simulation(channel, nodes, rng=rng, max_rounds=5_000).run()
        final_active = np.array([node.active for node in nodes])
        if final_active.sum() >= 2:
            final = link_class_partition(positions, final_active, unit=1.0)
            for node, index in final.class_of.items():
                assert index >= initial.class_of[node]


class TestProtocolsAcrossChannels:
    def test_js16_solves_sinr(self):
        rng = generator_from(31)
        positions = uniform_disk(48, rng)
        channel = SINRChannel(positions)
        nodes = JurdzinskiStachowiakProtocol().build(channel.n)
        trace = Simulation(channel, nodes, rng=rng, max_rounds=20_000).run()
        assert trace.solved

    def test_decay_solves_radio(self):
        channel = RadioChannel(64)
        nodes = DecayProtocol().build(64)
        trace = Simulation(
            channel, nodes, rng=generator_from(33), max_rounds=20_000
        ).run()
        assert trace.solved

    def test_simple_protocol_solves_radio_too(self):
        # The paper's algorithm is model-agnostic; on a collision channel
        # it still solves (receptions only happen on solo rounds, so it
        # degenerates to fixed-probability ALOHA).
        channel = RadioChannel(16)
        nodes = FixedProbabilityProtocol(p=0.1).build(16)
        trace = Simulation(
            channel, nodes, rng=generator_from(37), max_rounds=20_000
        ).run()
        assert trace.solved


class TestAlphaSensitivity:
    def test_alpha_near_two_still_solves_but_slower_on_average(self):
        trials = 20
        low = run_trials(
            lambda rng: SINRChannel(
                uniform_disk(64, rng), params=SINRParameters(alpha=2.1)
            ),
            FixedProbabilityProtocol(p=0.1),
            trials=trials,
            seed=41,
            max_rounds=50_000,
        )
        high = run_trials(
            lambda rng: SINRChannel(
                uniform_disk(64, rng), params=SINRParameters(alpha=5.0)
            ),
            FixedProbabilityProtocol(p=0.1),
            trials=trials,
            seed=41,
            max_rounds=50_000,
        )
        assert low.solve_rate == 1.0
        assert high.solve_rate == 1.0
        assert high.mean_rounds <= low.mean_rounds
