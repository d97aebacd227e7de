"""Unit tests for :mod:`repro.deploy.topologies` and the test-side :func:`two_cluster`."""

import numpy as np
import pytest

from repro.deploy.topologies import (
    clustered,
    exponential_chain,
    grid,
    line,
    ring,
    uniform_disk,
)
from repro.sinr.geometry import pairwise_distances
from tests.test_embedding import two_cluster


def _min_pairwise(positions):
    d = pairwise_distances(positions)
    n = d.shape[0]
    return d[np.triu_indices(n, k=1)].min()


class TestUniformDisk:
    def test_count(self, rng):
        assert uniform_disk(30, rng).shape == (30, 2)

    def test_min_separation_enforced(self, rng):
        positions = uniform_disk(40, rng, min_separation=1.0)
        assert _min_pairwise(positions) >= 1.0

    def test_points_inside_radius(self, rng):
        positions = uniform_disk(30, rng, radius=20.0)
        assert np.all(np.linalg.norm(positions, axis=1) <= 20.0 + 1e-9)

    def test_default_radius_scales_with_n(self, rng):
        small = uniform_disk(16, rng)
        large = uniform_disk(256, rng)
        assert np.linalg.norm(large, axis=1).max() > np.linalg.norm(small, axis=1).max()

    def test_zero_n_rejected(self, rng):
        with pytest.raises(ValueError, match="n"):
            uniform_disk(0, rng)

    def test_infeasible_density_raises(self, rng):
        with pytest.raises(RuntimeError, match="density"):
            uniform_disk(100, rng, radius=2.0, min_separation=1.0)

    def test_deterministic_under_seed(self):
        a = uniform_disk(20, np.random.default_rng(7))
        b = uniform_disk(20, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestGrid:
    def test_exact_square(self):
        positions = grid(9)
        assert positions.shape == (9, 2)
        assert _min_pairwise(positions) == pytest.approx(1.0)

    def test_partial_square(self):
        positions = grid(7)
        assert positions.shape == (7, 2)

    def test_spacing(self):
        positions = grid(4, spacing=3.0)
        assert _min_pairwise(positions) == pytest.approx(3.0)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            grid(4, spacing=0.0)

    def test_single_node(self):
        assert grid(1).shape == (1, 2)


class TestLine:
    def test_collinear_even_spacing(self):
        positions = line(5, spacing=2.0)
        assert np.all(positions[:, 1] == 0.0)
        assert np.allclose(np.diff(positions[:, 0]), 2.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            line(0)
        with pytest.raises(ValueError):
            line(3, spacing=-1.0)


class TestExponentialChain:
    def test_node_count(self):
        positions = exponential_chain(4, nodes_per_class=6)
        assert positions.shape == (24, 2)

    def test_occupies_intended_classes(self):
        from repro.analysis.linkclasses import link_class_partition

        positions = exponential_chain(4, nodes_per_class=2)
        partition = link_class_partition(positions)
        # Cluster i's pair gap is 2^i, so classes 0..3 are all occupied.
        assert set(partition.occupied) == {0, 1, 2, 3}

    def test_log_r_grows_with_classes(self):
        from repro.deploy.metrics import log_link_ratio

        small = log_link_ratio(exponential_chain(2))
        large = log_link_ratio(exponential_chain(8))
        assert large > small + 4.0

    def test_nearest_neighbor_is_cluster_partner(self):
        from repro.analysis.nearest_active import NearestActiveNeighbours

        positions = exponential_chain(3, nodes_per_class=4)
        nearest = NearestActiveNeighbours(positions).distance
        # Pair gaps are 2^i for cluster i; every node's nearest neighbor
        # must be its vertical partner.
        expected = np.repeat([2.0**i for i in range(3)], 4)
        assert np.allclose(nearest, expected)

    def test_odd_nodes_per_class_rejected(self):
        with pytest.raises(ValueError, match="even"):
            exponential_chain(2, nodes_per_class=3)

    def test_base_must_exceed_one(self):
        with pytest.raises(ValueError, match="base"):
            exponential_chain(2, base=1.0)


class TestRing:
    def test_neighbor_spacing(self):
        positions = ring(12, spacing=2.0)
        assert _min_pairwise(positions) == pytest.approx(2.0)

    def test_points_on_common_circle(self):
        positions = ring(10)
        radii = np.linalg.norm(positions, axis=1)
        assert np.allclose(radii, radii[0])

    def test_single_class(self):
        from repro.deploy.metrics import deployment_stats

        assert deployment_stats(ring(16)).occupied_classes == 1

    def test_small_cases(self):
        assert ring(1).shape == (1, 2)
        two = ring(2, spacing=3.0)
        assert np.linalg.norm(two[1] - two[0]) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ring(0)
        with pytest.raises(ValueError):
            ring(4, spacing=0.0)


class TestClustered:
    def test_node_count(self, rng):
        positions = clustered(3, 8, rng)
        assert positions.shape == (24, 2)

    def test_separation_inside_clusters(self, rng):
        positions = clustered(2, 10, rng, min_separation=1.0)
        assert _min_pairwise(positions) >= 1.0

    def test_clusters_are_tight(self, rng):
        from repro.analysis.linkclasses import link_class_partition

        positions = clustered(3, 12, rng, cluster_radius=4.0)
        partition = link_class_partition(positions)
        # Within-cluster nearest neighbors dominate: the smallest class
        # holds the bulk of the nodes.
        dominant = max(partition.occupied, key=partition.size)
        assert partition.size(dominant) >= positions.shape[0] // 2

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            clustered(0, 5, rng)


class TestTwoCluster:
    def test_node_count_and_gap(self, rng):
        positions = two_cluster(6, rng, gap=64.0, cluster_radius=2.0)
        assert positions.shape == (12, 2)
        left = positions[:6]
        right = positions[6:]
        # Clusters stay around their centers.
        assert np.all(np.linalg.norm(left, axis=1) <= 2.0 + 1e-9)
        assert np.all(np.linalg.norm(right - [64.0, 0.0], axis=1) <= 2.0 + 1e-9)

    def test_gap_validation(self, rng):
        with pytest.raises(ValueError, match="gap"):
            two_cluster(4, rng, gap=4.0, cluster_radius=2.0)

    def test_cluster_size_validation(self, rng):
        with pytest.raises(ValueError, match="cluster_size"):
            two_cluster(0, rng)
