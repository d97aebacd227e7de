"""Unit tests for good nodes (Definition 1) and S_i (Lemma 2)."""

import numpy as np
import pytest

from repro.analysis.goodness import (
    GOOD_NODE_CONSTANT,
    annulus_budget,
    good_fraction,
    good_nodes,
    is_good,
    partner_of,
    well_separated_subset,
)
from repro.analysis.linkclasses import link_class_partition
from repro.deploy.topologies import grid, uniform_disk
from repro.sinr.geometry import pairwise_distances


class TestAnnulusBudget:
    def test_exponent_simplifies_to_alpha_over_two(self):
        # alpha - 1 - epsilon = alpha - 1 - (alpha/2 - 1) = alpha/2.
        assert annulus_budget(2, alpha=3.0) == pytest.approx(
            GOOD_NODE_CONSTANT * 2.0 ** (2 * 1.5)
        )

    def test_budget_at_t_zero_is_constant(self):
        assert annulus_budget(0, alpha=3.0) == GOOD_NODE_CONSTANT

    def test_budget_grows_with_t(self):
        assert annulus_budget(3, alpha=3.0) > annulus_budget(2, alpha=3.0)

    def test_budget_grows_faster_for_larger_alpha(self):
        assert annulus_budget(4, alpha=4.0) > annulus_budget(4, alpha=3.0)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            annulus_budget(1, alpha=2.0)


class TestIsGood:
    def test_sparse_deployment_all_good(self, grid_distances):
        # 25 nodes can never exceed a budget of 96 in any annulus.
        active = np.ones(25, dtype=bool)
        assert all(
            is_good(node, 0, grid_distances, active, alpha=3.0) for node in range(25)
        )

    def test_overcrowded_annulus_is_bad(self):
        # Build a node with 200 > 96 neighbors in its first annulus (unit
        # distances) while keeping it in class 0 via one neighbor at
        # distance 1.
        center = [(0.0, 0.0)]
        ring = [
            (1.5 * np.cos(theta), 1.5 * np.sin(theta))
            for theta in np.linspace(0, 2 * np.pi, 200, endpoint=False)
        ]
        anchor = [(1.0, 0.0)]
        positions = np.asarray(center + anchor + ring)
        distances = pairwise_distances(positions)
        active = np.ones(positions.shape[0], dtype=bool)
        # Node 0's annulus A^0_0 covers [1, 2): the anchor and all 200 ring
        # nodes land there -> far beyond the budget of 96.
        assert not is_good(0, 0, distances, active, alpha=3.0)

    def test_lower_constant_is_stricter(self, grid_distances):
        active = np.ones(25, dtype=bool)
        # With constant 0.5 even one neighbor in an annulus disqualifies.
        center = 12
        assert not is_good(center, 0, grid_distances, active, alpha=3.0, constant=0.5)

    def test_inactive_nodes_do_not_count(self):
        center = [(0.0, 0.0)]
        anchor = [(1.0, 0.0)]
        ring = [
            (1.5 * np.cos(theta), 1.5 * np.sin(theta))
            for theta in np.linspace(0, 2 * np.pi, 200, endpoint=False)
        ]
        positions = np.asarray(center + anchor + ring)
        distances = pairwise_distances(positions)
        active = np.zeros(positions.shape[0], dtype=bool)
        active[0] = active[1] = True  # the ring is deactivated
        assert is_good(0, 0, distances, active, alpha=3.0)


class TestGoodNodesOfPartition:
    def test_grid_class_zero_all_good(self, grid_positions, grid_distances):
        active = np.ones(25, dtype=bool)
        partition = link_class_partition(grid_positions, active)
        assert len(good_nodes(partition, 0, grid_distances, active, alpha=3.0)) == 25

    def test_good_fraction_bounds(self, rng):
        positions = uniform_disk(60, rng)
        distances = pairwise_distances(positions)
        active = np.ones(60, dtype=bool)
        partition = link_class_partition(positions, active)
        for index in partition.occupied:
            fraction = good_fraction(partition, index, distances, active, alpha=3.0)
            assert 0.0 <= fraction <= 1.0

    def test_good_fraction_empty_class_nan(self, grid_positions, grid_distances):
        active = np.ones(25, dtype=bool)
        partition = link_class_partition(grid_positions, active)
        assert np.isnan(
            good_fraction(partition, 99, grid_distances, active, alpha=3.0)
        )


class TestWellSeparatedSubset:
    def test_subset_is_separated(self, grid_distances):
        candidates = list(range(25))
        subset = well_separated_subset(
            candidates, class_index=0, distances=grid_distances, separation_constant=1.0
        )
        # Separation is (s + 1) * 2^0 = 2.
        for i in subset:
            for j in subset:
                if i != j:
                    assert grid_distances[i, j] > 2.0

    def test_subset_contains_constant_fraction(self, grid_distances):
        # Lemma 2: |S_i| = Theta(#good). For the 5x5 grid at separation 2
        # a packing of at least 25/9 points exists.
        subset = well_separated_subset(
            list(range(25)), 0, grid_distances, separation_constant=1.0
        )
        assert len(subset) >= 3

    def test_separation_scales_with_class(self, grid_distances):
        wide = well_separated_subset(
            list(range(25)), 2, grid_distances, separation_constant=1.0
        )
        narrow = well_separated_subset(
            list(range(25)), 0, grid_distances, separation_constant=1.0
        )
        assert len(wide) <= len(narrow)

    def test_negative_separation_constant_rejected(self, grid_distances):
        with pytest.raises(ValueError, match="separation"):
            well_separated_subset([0], 0, grid_distances, separation_constant=-1.0)

    def test_empty_candidates(self, grid_distances):
        assert well_separated_subset([], 0, grid_distances, 1.0) == []


class TestPartner:
    def test_partner_is_nearest_active(self):
        positions = [(0.0, 0.0), (1.0, 0.0), (0.5, 10.0)]
        distances = pairwise_distances(positions)
        active = np.ones(3, dtype=bool)
        assert partner_of(0, distances, active) == 1

    def test_partner_skips_inactive(self):
        positions = [(0.0, 0.0), (1.0, 0.0), (0.0, 3.0)]
        distances = pairwise_distances(positions)
        active = np.array([True, False, True])
        assert partner_of(0, distances, active) == 2

    def test_no_partner_when_alone(self):
        positions = [(0.0, 0.0), (1.0, 0.0)]
        distances = pairwise_distances(positions)
        active = np.array([True, False])
        assert partner_of(0, distances, active) is None

    def test_partner_is_never_self(self, grid_distances):
        active = np.ones(25, dtype=bool)
        for node in range(25):
            assert partner_of(node, grid_distances, active) != node
