"""The nearest-active-neighbour tracker against the distance-matrix partition.

:class:`~repro.analysis.nearest_active.NearestActiveNeighbours` is how
the fast path and the engine publish each round's link classes without
the ``(n, n)`` matrix. Its contract is equality, bit for bit, with the
dense references in :mod:`tests.dense_geometry` over
``pairwise_distances(positions)``, after every round of any execution:
knockouts, wake-ups, ties, exponential chains and near-empty sets alike,
whether a tracker is built afresh or copied from a channel's start state
and whether an orphan is answered from its candidate list or queried.
"""

import math

import numpy as np
import pytest

from repro.analysis import nearest_active
from repro.analysis.linkclasses import link_class_indices, link_class_round_sizes
from repro.analysis.nearest_active import NearestActiveNeighbours, nearest_in_pool
from repro.deploy import topologies
from repro.obs.probe import ProbeBus, ProbeRecorder, set_probe_bus
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel
from repro.sinr.geometry import pairwise_distances
from tests.dense_geometry import link_class_round_stats, nearest_neighbor_distances
from tests.test_embedding import two_cluster


def _deployments():
    rng = generator_from(31)
    return {
        "uniform_disk": topologies.uniform_disk(400, rng),
        "grid": topologies.grid(324),
        "clustered": topologies.clustered(6, 20, rng),
        "two_cluster": two_cluster(40, rng, cluster_radius=6.0),
        # Clusters 2^0 .. 2^43 apart: R > 2^40, so the far clusters' queries
        # miss the grid's proof and go to brute force.
        "exponential_chain": topologies.exponential_chain(44, 4),
        # A dense disk plus a sparse scatter: the scattered nodes' nearest
        # neighbours lie beyond the grid's cells, in every direction.
        "dense_and_sparse": np.vstack(
            [topologies.uniform_disk(200, rng), rng.uniform(-2000.0, 2000.0, (80, 2))]
        ),
    }


DEPLOYMENTS = _deployments()


def _class_stats(tracker, knocked=()):
    return link_class_round_sizes(tracker.distance, knocked)


def _assert_tracks(tracker, distances, mask, knocked=()):
    assert np.array_equal(tracker.active, mask)
    assert np.array_equal(tracker.distance, nearest_neighbor_distances(distances, mask))
    linked = np.flatnonzero(tracker.neighbour >= 0)
    assert np.array_equal(distances[linked, tracker.neighbour[linked]], tracker.distance[linked])
    assert _class_stats(tracker, knocked) == link_class_round_stats(distances, mask, knocked)


class TestBinning:
    def test_matches_math_on_random_values(self):
        rng = np.random.default_rng(0)
        values = np.exp(rng.uniform(-60.0, 60.0, 200_000))
        expected = [math.floor(math.log2(v)) for v in values.tolist()]
        assert link_class_indices(values, 1.0).tolist() == expected

    def test_matches_math_next_to_powers_of_two(self):
        powers = 2.0 ** np.arange(-40, 41)
        values = np.concatenate(
            [
                powers,
                np.nextafter(powers, 0.0),
                np.nextafter(powers, np.inf),
                np.nextafter(np.nextafter(powers, 0.0), 0.0),
                np.nextafter(np.nextafter(powers, np.inf), np.inf),
            ]
        )
        expected = [math.floor(math.log2(v)) for v in values.tolist()]
        assert link_class_indices(values, 1.0).tolist() == expected

    def test_ratio_to_unit(self):
        unit = 3.0
        nearest = np.array([3.0, 5.9, 6.0, 12.0, 1e6])
        expected = [math.floor(math.log2(d / unit)) for d in nearest.tolist()]
        assert link_class_indices(nearest, unit).tolist() == expected


@pytest.fixture(params=["default", "grid_only"])
def query_mode(request, monkeypatch):
    """Run with the default brute-force cut-off, and with every query on the grid."""
    if request.param == "grid_only":
        monkeypatch.setattr(nearest_active, "_BRUTE_FORCE_CELLS", 0)
    return request.param


class TestRandomKnockouts:
    @pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
    def test_every_round_matches_the_matrix(self, name, query_mode):
        positions = DEPLOYMENTS[name]
        distances = pairwise_distances(positions)
        rng = np.random.default_rng(7)
        tracker = NearestActiveNeighbours(positions)
        mask = np.ones(len(positions), dtype=bool)
        while mask.any():
            ids = np.flatnonzero(mask)
            knocked = rng.choice(ids, size=max(1, ids.size // 6), replace=False)
            _assert_tracks(tracker, distances, mask, knocked)
            mask[knocked] = False
            tracker.remove(knocked)
        _assert_tracks(tracker, distances, mask)

    def test_chain_uses_the_brute_force_fallback(self, monkeypatch):
        calls = []
        original = nearest_active._brute_force

        def counted(positions, query_ids, pool_ids):
            calls.append(query_ids.size)
            return original(positions, query_ids, pool_ids)

        monkeypatch.setattr(nearest_active, "_brute_force", counted)
        positions = topologies.exponential_chain(44, 8)
        tracker = NearestActiveNeighbours(positions)
        assert calls, "every query was answered by the grid"
        _assert_tracks(tracker, pairwise_distances(positions), np.ones(len(positions), bool))

    def test_grid_answers_uniform_queries(self, monkeypatch):
        monkeypatch.setattr(nearest_active, "_brute_force", None)
        # A regular lattice: every node's nearest neighbour is well inside
        # its 3 x 3 block of cells, so no query needs the fallback.
        positions = topologies.grid(1024)
        tracker = NearestActiveNeighbours(positions)
        assert (tracker.distance == 1.0).all()


def _knockout_waves(n, seed):
    """Random removal rounds, a sixth of the survivors at a time, until none is left."""
    rng = np.random.default_rng(seed)
    mask = np.ones(n, dtype=bool)
    while mask.any():
        ids = np.flatnonzero(mask)
        knocked = rng.choice(ids, size=max(1, ids.size // 6), replace=False)
        mask[knocked] = False
        yield knocked, mask.copy()


class TestStartState:
    @pytest.mark.parametrize("name", ["uniform_disk", "grid", "exponential_chain", "clustered"])
    def test_copies_match_a_fresh_tracker_and_the_matrix(self, name, query_mode):
        positions = DEPLOYMENTS[name]
        distances = pairwise_distances(positions)
        channel = SINRChannel(positions)
        for seed in range(3):
            tracker = channel.nearest_active()
            fresh = NearestActiveNeighbours(positions)
            _assert_tracks(tracker, distances, np.ones(len(positions), dtype=bool))
            for knocked, mask in _knockout_waves(len(positions), seed):
                tracker.remove(knocked)
                fresh.remove(knocked)
                assert np.array_equal(tracker.distance, fresh.distance)
                _assert_tracks(tracker, distances, mask)
        # The runs above left the channel's start state as it was built.
        start = channel.nearest_active()
        assert start.active.all()
        assert np.array_equal(start.distance, NearestActiveNeighbours(positions).distance)

    def test_grid_start_answers_from_candidate_lists(self, monkeypatch):
        monkeypatch.setattr(nearest_active, "_BRUTE_FORCE_CELLS", 0)
        monkeypatch.setattr(NearestActiveNeighbours, "_query", None)
        # Every node of a lattice has its four neighbours in its list, so
        # the lists alone answer the start and a removal's orphans.
        positions = topologies.grid(1024)
        tracker = NearestActiveNeighbours(positions)
        assert (tracker.distance == 1.0).all()
        tracker.remove([0, 33])
        assert tracker.distance[1] == tracker.distance[32] == 1.0

    def test_exhausted_list_falls_back_to_a_query(self, monkeypatch):
        monkeypatch.setattr(nearest_active, "_BRUTE_FORCE_CELLS", 0)
        positions = DEPLOYMENTS["uniform_disk"]
        distances = pairwise_distances(positions)
        tracker = NearestActiveNeighbours(positions)
        node = 0
        rows_distance, rows_id = tracker._candidates
        listed = rows_id[node][np.isfinite(rows_distance[node])]
        assert listed.size
        queried = []
        original = NearestActiveNeighbours._query

        def spy(self, query_ids):
            queried.extend(query_ids.tolist())
            return original(self, query_ids)

        monkeypatch.setattr(NearestActiveNeighbours, "_query", spy)
        tracker.remove(listed)
        mask = np.ones(len(positions), dtype=bool)
        mask[listed] = False
        assert node in queried
        _assert_tracks(tracker, distances, mask)

    def test_overfull_lists_are_left_out(self, monkeypatch):
        monkeypatch.setattr(nearest_active, "_BRUTE_FORCE_CELLS", 0)
        monkeypatch.setattr(nearest_active, "_MAX_CANDIDATES", 4)
        positions = DEPLOYMENTS["uniform_disk"]
        distances = pairwise_distances(positions)
        tracker = NearestActiveNeighbours(positions)
        rows_distance, _ = tracker._candidates
        listed = np.isfinite(rows_distance).sum(axis=1)
        assert listed.max() <= 4 and (listed == 0).any()
        for knocked, mask in _knockout_waves(len(positions), 9):
            tracker.remove(knocked)
            _assert_tracks(tracker, distances, mask)


class TestActivation:
    def test_nodes_added_in_waves(self, query_mode):
        positions = DEPLOYMENTS["uniform_disk"]
        distances = pairwise_distances(positions)
        rng = np.random.default_rng(3)
        waves = rng.integers(0, 6, size=len(positions))
        mask = np.zeros(len(positions), dtype=bool)
        tracker = NearestActiveNeighbours(positions, active=mask)
        for wave in range(6):
            target = mask | (waves == wave)
            knocked = rng.choice(np.flatnonzero(target), size=10, replace=False)
            target[knocked] = False
            tracker.sync(target)
            mask = target
            _assert_tracks(tracker, distances, mask)

    def test_engine_with_staggered_activation(self):
        positions = topologies.uniform_disk(160, generator_from(4))
        channel = SINRChannel(positions)
        distances = pairwise_distances(positions)
        activation = generator_from(5).integers(0, 12, size=channel.n)
        checked = []

        class Reference:
            """Rebuilds each round's pre-round active set from the probes."""

            active = np.ones(channel.n, dtype=bool)

            def on_round(self, probe):
                mask = self.active & (activation <= probe.round_index)
                assert probe.class_stats == link_class_round_stats(
                    distances, mask, probe.knocked_ids
                )
                self.active[list(probe.knocked_ids)] = False
                checked.append(probe.pending)

        bus = ProbeBus(enabled=True)
        bus.subscribe(Reference())
        previous = set_probe_bus(bus)
        try:
            nodes = FixedProbabilityProtocol(p=0.1).build(channel.n)
            Simulation(
                channel, nodes, rng=generator_from(6), activation_schedule=activation.tolist()
            ).run()
        finally:
            set_probe_bus(previous)
        assert any(checked), "no round ran with wake-ups pending"
        assert "distances" not in channel.__dict__


class TestEdgeCases:
    def test_single_node(self):
        tracker = NearestActiveNeighbours(np.zeros((1, 2)))
        assert tracker.distance.tolist() == [np.inf]
        assert _class_stats(tracker) == ()
        tracker.remove([0])
        assert _class_stats(tracker) == ()

    def test_two_nodes(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0]])
        tracker = NearestActiveNeighbours(positions)
        assert tracker.distance.tolist() == [5.0, 5.0]
        assert tracker.neighbour.tolist() == [1, 0]
        assert _class_stats(tracker, [1]) == ((0, 2, 1),)
        tracker.remove([1])
        assert tracker.distance.tolist() == [np.inf, np.inf]
        assert _class_stats(tracker) == ()

    def test_one_survivor_left(self):
        positions = DEPLOYMENTS["grid"]
        distances = pairwise_distances(positions)
        tracker = NearestActiveNeighbours(positions)
        mask = np.zeros(len(positions), dtype=bool)
        mask[17] = True
        tracker.remove(np.flatnonzero(~mask))
        _assert_tracks(tracker, distances, mask)
        assert tracker.neighbour[17] == -1

    def test_empty_queries_and_pools(self):
        positions = DEPLOYMENTS["grid"]
        distance, neighbour = nearest_in_pool(positions, [], [1, 2])
        assert distance.size == neighbour.size == 0
        distance, neighbour = nearest_in_pool(positions, [1, 2], [])
        assert distance.tolist() == [np.inf, np.inf]
        assert neighbour.tolist() == [-1, -1]


class TestFastPath:
    @pytest.mark.parametrize("name", ["uniform_disk", "exponential_chain"])
    def test_published_classes_match_the_matrix(self, name):
        positions = DEPLOYMENTS[name]
        channel = SINRChannel(positions)
        distances = pairwise_distances(positions)
        rounds = []

        class Reference:
            active = np.ones(channel.n, dtype=bool)

            def on_round(self, probe):
                assert probe.class_stats == link_class_round_stats(
                    distances, self.active, probe.knocked_ids
                )
                self.active[list(probe.knocked_ids)] = False
                rounds.append(probe.round_index)

        bus = ProbeBus(enabled=True)
        bus.subscribe(Reference())
        previous = set_probe_bus(bus)
        try:
            result = fast_fixed_probability_run(channel, 0.1, generator_from(8))
        finally:
            set_probe_bus(previous)
        assert len(rounds) == result.rounds_executed
        # Probing a fresh deployment never builds the (n, n) matrix.
        assert "distances" not in channel.__dict__

    def test_reused_channel_records_what_fresh_channels_do(self, monkeypatch):
        positions = topologies.uniform_disk(1024, generator_from(12))
        answered = []
        original = NearestActiveNeighbours._reanswer

        def spy(self, orphans):
            answered.append(orphans.size)
            return original(self, orphans)

        monkeypatch.setattr(NearestActiveNeighbours, "_reanswer", spy)

        def record(channels):
            recorder = ProbeRecorder()
            bus = ProbeBus(enabled=True)
            bus.subscribe(recorder)
            previous = set_probe_bus(bus)
            try:
                for trial, channel in enumerate(channels):
                    fast_fixed_probability_run(channel, 0.1, generator_from(40 + trial))
            finally:
                set_probe_bus(previous)
            return recorder.snapshot()

        reused = SINRChannel(positions)
        shared = record([reused, reused])
        assert answered, "no orphan was answered from a candidate list"
        fresh = record([SINRChannel(positions), SINRChannel(positions)])
        assert shared.keys() == fresh.keys()
        assert shared["exec_trial"].tolist() == [0, 1]
        for name, column in fresh.items():
            assert np.array_equal(shared[name], column), name
        assert np.array_equal(
            reused.nearest_active().distance, NearestActiveNeighbours(positions).distance
        )
