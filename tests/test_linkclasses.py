"""Unit tests for the Section 3.1 link-class partition and its replay along a trace."""

import numpy as np
import pytest

from repro.analysis.linkclasses import link_class_history, link_class_partition
from repro.deploy.topologies import clustered, exponential_chain, grid, uniform_disk
from repro.experiments import e6_class_bounds
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel
from repro.sinr.geometry import pairwise_distances
from tests import dense_geometry


class TestPartitionBasics:
    def test_grid_is_one_class(self, grid_positions):
        partition = link_class_partition(grid_positions)
        assert partition.occupied == (0,)
        assert partition.size(0) == 25

    def test_chain_occupies_ladder(self):
        positions = exponential_chain(4, nodes_per_class=2)
        partition = link_class_partition(positions)
        assert set(partition.occupied) == {0, 1, 2, 3}
        for i in range(4):
            assert partition.size(i) == 2

    def test_class_boundaries_half_open(self):
        # Nearest-neighbor distances 1 and exactly 2 with unit 1:
        # class(1) = 0, class(2) = 1 (the interval is [2^i, 2^{i+1})).
        positions = [(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (12.0, 0.0)]
        partition = link_class_partition(positions, unit=1.0)
        assert partition.class_of[0] == 0
        assert partition.class_of[1] == 0
        assert partition.class_of[2] == 1
        assert partition.class_of[3] == 1

    def test_members_inverse_of_class_of(self, grid_positions):
        partition = link_class_partition(grid_positions)
        for node, index in partition.class_of.items():
            assert node in partition.members[index]

    def test_every_active_node_classified(self, grid_positions):
        partition = link_class_partition(grid_positions)
        assert len(partition.class_of) == 25

    def test_sole_survivor_unclassified(self):
        active = np.array([True, False])
        partition = link_class_partition([(0, 0), (5, 0)], active)
        assert partition.class_of == {}
        assert partition.members == {}

    def test_unit_defaults_to_min_active_nearest(self):
        positions = [(0.0, 0.0), (4.0, 0.0), (100.0, 0.0), (106.0, 0.0)]
        partition = link_class_partition(positions)
        assert partition.unit == pytest.approx(4.0)
        # With unit 4: nearest distances 4, 4, 6, 6 -> classes 0, 0, 0, 0.
        assert partition.class_of == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_explicit_unit_pins_classes(self):
        partition = link_class_partition([(0.0, 0.0), (4.0, 0.0)], unit=1.0)
        assert partition.class_of == {0: 2, 1: 2}

    def test_invalid_unit(self, grid_positions):
        with pytest.raises(ValueError, match="unit"):
            link_class_partition(grid_positions, unit=0.0)


class TestAggregates:
    def test_size_below(self):
        positions = exponential_chain(3, nodes_per_class=4)
        partition = link_class_partition(positions)
        assert partition.size_below(0) == 0
        assert partition.size_below(2) == 8
        assert partition.size_below(3) == 12

    def test_sizes_dict(self):
        positions = exponential_chain(2, nodes_per_class=2)
        partition = link_class_partition(positions)
        sizes = {index: partition.size(index) for index in partition.occupied}
        assert sizes == {0: 2, 1: 2}

    def test_smallest_largest_occupied(self):
        positions = exponential_chain(3, nodes_per_class=2)
        partition = link_class_partition(positions)
        assert partition.occupied[0] == 0
        assert partition.largest_occupied == 2

    def test_empty_partition_extremes(self):
        partition = link_class_partition([(0, 0)])
        assert partition.occupied == ()
        assert partition.largest_occupied is None


class TestClassMigration:
    def test_knockout_moves_node_to_larger_class(self):
        # Three nodes: a tight pair and a far one. Deactivating one of the
        # pair pushes its partner to the far node's class scale.
        positions = [(0.0, 0.0), (1.0, 0.0), (64.0, 0.0)]
        before = link_class_partition(positions, unit=1.0)
        assert before.class_of[0] == 0
        active = np.array([True, False, True])
        after = link_class_partition(positions, active=active, unit=1.0)
        assert after.class_of[0] == 6  # distance 64 -> class 6
        assert 1 not in after.class_of

    def test_no_node_joins_smaller_class(self):
        # The paper: "no node can join a smaller link class" — knockouts
        # only remove closer neighbors, never create them.
        positions = exponential_chain(3, nodes_per_class=4)
        rng = generator_from(0)
        before = link_class_partition(positions, unit=1.0)
        for _ in range(50):
            active = rng.random(positions.shape[0]) > 0.4
            after = link_class_partition(positions, active=active, unit=1.0)
            for node, index in after.class_of.items():
                assert index >= before.class_of[node]


def _execution(positions, seed, keep_records=True):
    channel = SINRChannel(positions)
    return Simulation(
        channel,
        FixedProbabilityProtocol(p=0.1),
        rng=generator_from(seed),
        max_rounds=2_000,
        keep_records=keep_records,
    ).run()


def _dense_history(positions, trace, unit):
    """Per-round ``class -> size`` dicts from the dense partition of each post-round mask."""
    distances = pairwise_distances(positions)
    active = np.ones(positions.shape[0], dtype=bool)
    rows = []
    for record in trace.records:
        active[list(record.knocked_out)] = False
        partition = dense_geometry.link_class_partition(distances, active, unit)
        rows.append({index: partition.size(index) for index in partition.occupied})
    return rows


class TestTracker:
    """:func:`link_class_history` tracks class sizes by replaying a trace."""

    def test_tracker_snapshots_every_round(self, small_positions):
        trace = _execution(small_positions, 17)
        unit = link_class_partition(small_positions).unit
        matrix, _ = link_class_history(small_positions, trace, unit)
        assert matrix.shape[0] == trace.rounds_executed

    def test_size_matrix_shape_and_totals(self, small_positions):
        trace = _execution(small_positions, 19)
        unit = link_class_partition(small_positions).unit
        matrix, occupied = link_class_history(small_positions, trace, unit)
        assert matrix.shape == (trace.rounds_executed, len(occupied))
        assert occupied == sorted(occupied)
        # Every column is non-empty in some round, and no round classifies
        # more nodes than are active after it.
        assert (matrix.sum(axis=0) > 0).all()
        knocked = np.cumsum([len(record.knocked_out) for record in trace.records])
        assert (matrix.sum(axis=1) <= small_positions.shape[0] - knocked).all()

    def test_tracker_unit_is_stable(self, small_positions):
        # Every round is binned with the pinned unit: knockouts only
        # lengthen nearest distances, so no class falls below 0, and
        # halving the unit moves every class up by one.
        trace = _execution(small_positions, 17)
        unit = link_class_partition(small_positions).unit
        _, occupied = link_class_history(small_positions, trace, unit)
        assert min(occupied) >= 0
        _, halved = link_class_history(small_positions, trace, unit / 2.0)
        assert [index - 1 for index in halved] == occupied

    def test_needs_the_records(self, small_positions):
        trace = _execution(small_positions, 17, keep_records=False)
        with pytest.raises(ValueError, match="keep_records"):
            link_class_history(small_positions, trace, 1.0)

    @pytest.mark.parametrize("workload", ["chain-8x8", "clustered"])
    def test_replay_matches_the_dense_partition_on_e6_workloads(self, workload):
        for trial in range(3):
            rng = generator_from(60 + trial)
            positions = dict(e6_class_bounds._workloads(rng))[workload]
            trace = _execution(positions, 70 + trial)
            unit = link_class_partition(positions).unit
            matrix, occupied = link_class_history(positions, trace, unit)
            expected = _dense_history(positions, trace, unit)
            assert occupied == sorted({index for row in expected for index in row})
            assert [
                {index: size for index, size in zip(occupied, row.tolist()) if size}
                for row in matrix
            ] == expected


def _parity_deployments():
    rng = generator_from(41)
    return {
        # Every nearest distance ties at the spacing.
        "grid": grid(400),
        # R > 2^40: the far clusters' queries miss the grid's proof and
        # take the brute-force branch.
        "exponential_chain": exponential_chain(44, nodes_per_class=8),
        "clustered": clustered(8, 30, rng),
        "uniform_disk": uniform_disk(500, rng),
    }


PARITY = _parity_deployments()


class TestDenseParity:
    """The partition from positions equals the one from the (n, n) matrix."""

    @pytest.mark.parametrize("name", sorted(PARITY))
    @pytest.mark.parametrize("fraction", [1.0, 0.6, 0.1])
    def test_random_masks(self, name, fraction):
        positions = PARITY[name]
        distances = pairwise_distances(positions)
        rng = generator_from(5)
        for _ in range(3):
            active = rng.random(positions.shape[0]) < fraction
            assert link_class_partition(positions, active) == (
                dense_geometry.link_class_partition(distances, active)
            )

    @pytest.mark.parametrize("name", sorted(PARITY))
    def test_pinned_unit(self, name):
        positions = PARITY[name]
        distances = pairwise_distances(positions)
        active = generator_from(6).random(positions.shape[0]) < 0.5
        unit = link_class_partition(positions).unit / 3.0
        assert link_class_partition(positions, active, unit) == (
            dense_geometry.link_class_partition(distances, active, unit)
        )

    @pytest.mark.parametrize("count", [0, 1])
    def test_one_or_zero_active_nodes(self, count):
        positions = PARITY["grid"]
        active = np.zeros(positions.shape[0], dtype=bool)
        active[:count] = True
        partition = link_class_partition(positions, active)
        assert partition == dense_geometry.link_class_partition(
            pairwise_distances(positions), active
        )
        assert partition.class_of == {} and partition.unit == 1.0
