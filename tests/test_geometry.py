"""Unit tests for :mod:`repro.sinr.geometry` and the nearest distances from positions."""

import math

import numpy as np
import pytest

from repro.analysis.nearest_active import NearestActiveNeighbours
from repro.deploy.metrics import deployment_stats
from repro.sinr.geometry import (
    annulus_count_rows,
    annulus_counts,
    as_positions,
    column_bounds,
    greedy_separated_subset,
    pairwise_distances,
)
from tests.dense_geometry import (
    exponential_annulus,
    link_length_extremes,
    nearest_neighbor_distances,
)


class TestAsPositions:
    def test_accepts_lists(self):
        positions = as_positions([(0, 0), (1, 1)])
        assert positions.shape == (2, 2)
        assert positions.dtype == np.float64

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="positions"):
            as_positions([1.0, 2.0, 3.0])

    def test_rejects_3d_points(self):
        with pytest.raises(ValueError, match="positions"):
            as_positions([(0, 0, 0), (1, 1, 1)])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_positions([(0.0, float("nan")), (1.0, 1.0)])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_positions([(0.0, float("inf")), (1.0, 1.0)])


class TestColumnBounds:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_equal_the_reductions_along_the_first_axis(self, dtype):
        points = (np.random.default_rng(3).normal(size=(2048, 2)) * 1e3).astype(dtype)
        low, high = column_bounds(points)
        assert low.dtype == dtype and high.dtype == dtype
        assert low.tobytes() == points.min(axis=0).tobytes()
        assert high.tobytes() == points.max(axis=0).tobytes()


class TestPairwiseDistances:
    def test_known_triangle(self):
        distances = pairwise_distances([(0, 0), (3, 0), (0, 4)])
        assert distances[0, 1] == pytest.approx(3.0)
        assert distances[0, 2] == pytest.approx(4.0)
        assert distances[1, 2] == pytest.approx(5.0)

    def test_symmetric(self, small_positions):
        distances = pairwise_distances(small_positions)
        assert np.allclose(distances, distances.T)

    def test_zero_diagonal(self, small_positions):
        distances = pairwise_distances(small_positions)
        assert np.all(np.diag(distances) == 0.0)

    def test_nonnegative(self, small_positions):
        assert np.all(pairwise_distances(small_positions) >= 0.0)

    def test_single_point(self):
        distances = pairwise_distances([(5.0, 5.0)])
        assert distances.shape == (1, 1)
        assert distances[0, 0] == 0.0

    def test_triangle_inequality(self, small_positions):
        d = pairwise_distances(small_positions)
        n = d.shape[0]
        for i in range(0, n, 5):
            for j in range(0, n, 5):
                for k in range(0, n, 5):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def _nearest(positions, active=None):
    """Nearest active neighbour distances, taken from positions."""
    return NearestActiveNeighbours(as_positions(positions), active).distance


class TestNearestNeighbor:
    def test_line_of_three(self):
        nearest = _nearest([(0, 0), (1, 0), (10, 0)])
        assert nearest.tolist() == [1.0, 1.0, 9.0]

    def test_inactive_nodes_excluded_as_neighbors(self):
        active = np.array([True, False, True])
        nearest = _nearest([(0, 0), (1, 0), (10, 0)], active)
        assert nearest[0] == pytest.approx(10.0)
        assert math.isinf(nearest[1])  # inactive node gets inf
        assert nearest[2] == pytest.approx(10.0)

    def test_single_active_node_has_no_neighbor(self):
        nearest = _nearest([(0, 0), (1, 0)], np.array([True, False]))
        assert math.isinf(nearest[0])

    def test_all_inactive(self):
        nearest = _nearest([(0, 0), (1, 0)], np.array([False, False]))
        assert np.all(np.isinf(nearest))

    def test_does_not_mutate_input(self):
        positions = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        copy = positions.copy()
        _nearest(positions)
        assert np.array_equal(positions, copy)

    def test_grid_nearest_is_spacing(self, grid_positions):
        assert np.all(_nearest(grid_positions) == 1.0)

    def test_equals_the_masked_full_matrix_minimum(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(-10.0, 10.0, size=(120, 2))
        distances = pairwise_distances(positions)
        for fraction in (1.0, 0.5, 0.05, 0.0):
            active = rng.random(120) < fraction
            masked = np.where(active[None, :], distances, np.inf)
            np.fill_diagonal(masked, np.inf)
            expected = np.where(active, masked.min(axis=1), np.inf)
            assert np.array_equal(nearest_neighbor_distances(distances, active), expected)
            assert np.array_equal(_nearest(positions, active), expected)


class TestBallsAndAnnuli:
    def test_annulus_bounds_inclusive_exclusive(self):
        # Nodes at distances 1, 2, 3.9, 4 from center; annulus A^0_1 covers
        # [2, 4).
        distances = pairwise_distances(
            [(0, 0), (1, 0), (2, 0), (3.9, 0), (4, 0)]
        )
        members = exponential_annulus(distances, center=0, class_index=0, t=1)
        assert set(members) == {2, 3}

    def test_annulus_scales_with_class_index(self):
        # Same geometry, class index 1: A^1_0 covers [2, 4).
        distances = pairwise_distances(
            [(0, 0), (1, 0), (2, 0), (3.9, 0), (4, 0)]
        )
        members = exponential_annulus(distances, center=0, class_index=1, t=0)
        assert set(members) == {2, 3}

    def test_annulus_excludes_center(self):
        distances = pairwise_distances([(0, 0), (1, 0)])
        members = exponential_annulus(distances, center=0, class_index=0, t=0)
        assert 0 not in members

    def test_annulus_counts_match_individual_annuli(self, grid_distances):
        center = 12  # middle of the 5x5 grid
        counts = annulus_counts(grid_distances, center, class_index=0, max_t=3)
        for t in range(4):
            members = exponential_annulus(grid_distances, center, 0, t)
            assert counts[t] == len(members)

    def test_annulus_counts_cover_all_other_nodes(self, grid_distances):
        # With max_t large enough, every other node is in exactly one bin.
        counts = annulus_counts(grid_distances, 0, class_index=0, max_t=10)
        assert counts.sum() == grid_distances.shape[0] - 1

    def test_annulus_counts_negative_max_t(self, grid_distances):
        assert annulus_counts(grid_distances, 0, 0, max_t=-1).size == 0

    def test_last_annulus_closed_like_histogram(self):
        # Distances 1, 2, 4 and 8 from node 0: with max_t = 2 the bins are
        # [1, 2), [2, 4), [4, 8], the last one closed as np.histogram's.
        distances = pairwise_distances([(0, 0), (1, 0), (2, 0), (4, 0), (8, 0), (9, 0)])
        assert annulus_counts(distances, 0, 0, max_t=2).tolist() == [1, 1, 2]

    @pytest.mark.parametrize("unit", [1.0, 0.75])
    def test_rows_match_histogram_per_center(self, unit):
        rng = np.random.default_rng(5)
        # Integer coordinates put many distances on the annulus edges.
        positions = np.vstack([rng.integers(0, 9, (40, 2)), rng.uniform(0, 9, (40, 2))])
        positions = np.unique(positions, axis=0)
        distances = pairwise_distances(positions)
        active = rng.random(len(positions)) < 0.8
        edges = 2.0 ** (-1 + np.arange(7, dtype=np.float64))
        rows = annulus_count_rows(distances, np.arange(len(positions)), -1, 5, active, unit)
        for center, row in enumerate(rows):
            others = active.copy()
            others[center] = False
            expected, _ = np.histogram(distances[center][others] / unit, bins=edges)
            assert row.tolist() == expected.tolist()


class TestGreedySeparatedSubset:
    def test_keeps_far_apart_points(self):
        distances = pairwise_distances([(0, 0), (10, 0), (20, 0)])
        kept = greedy_separated_subset(distances, [0, 1, 2], separation=5.0)
        assert kept == [0, 1, 2]

    def test_drops_close_points(self):
        distances = pairwise_distances([(0, 0), (1, 0), (20, 0)])
        kept = greedy_separated_subset(distances, [0, 1, 2], separation=5.0)
        assert kept == [0, 2]

    def test_separation_is_strict(self):
        distances = pairwise_distances([(0, 0), (5, 0)])
        kept = greedy_separated_subset(distances, [0, 1], separation=5.0)
        assert kept == [0]  # exactly 5 apart is not "> separation"

    def test_result_is_pairwise_separated(self, grid_distances):
        kept = greedy_separated_subset(grid_distances, list(range(25)), separation=2.0)
        for i in kept:
            for j in kept:
                if i != j:
                    assert grid_distances[i, j] > 2.0

    def test_result_is_maximal(self, grid_distances):
        # No dropped candidate could be added back.
        kept = greedy_separated_subset(grid_distances, list(range(25)), separation=2.0)
        for candidate in range(25):
            if candidate in kept:
                continue
            assert any(grid_distances[candidate, j] <= 2.0 for j in kept)

    def test_negative_separation_rejected(self, grid_distances):
        with pytest.raises(ValueError, match="separation"):
            greedy_separated_subset(grid_distances, [0], separation=-1.0)

    def test_zero_separation_keeps_everything(self, grid_distances):
        kept = greedy_separated_subset(grid_distances, list(range(25)), separation=0.0)
        assert kept == list(range(25))


class TestExtremes:
    def test_link_extremes(self):
        positions = [(0, 0), (1, 0), (10, 0)]
        stats = deployment_stats(positions)
        assert link_length_extremes(pairwise_distances(positions)) == (1.0, 10.0)
        assert (stats.shortest_link, stats.longest_link) == (1.0, 10.0)

    def test_link_extremes_single_node(self):
        assert link_length_extremes(pairwise_distances([(0, 0)])) == (0.0, 0.0)
        stats = deployment_stats([(0, 0)])
        assert (stats.shortest_link, stats.longest_link) == (0.0, 0.0)
