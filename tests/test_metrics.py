"""Unit tests for :mod:`repro.deploy.metrics`."""

import math

import numpy as np
import pytest

from repro.analysis.linkclasses import link_class_indices
from repro.deploy.metrics import deployment_stats, link_ratio, log_link_ratio
from repro.deploy.topologies import clustered, exponential_chain, grid, line, uniform_disk
from repro.sim.seeding import generator_from
from repro.sinr.geometry import pairwise_distances
from tests.dense_geometry import link_length_extremes, nearest_neighbor_distances


class TestLinkRatio:
    def test_grid_ratio(self):
        # 2x2 unit grid: shortest 1, longest sqrt(2).
        assert link_ratio(grid(4)) == pytest.approx(math.sqrt(2.0))

    def test_line_ratio(self):
        # 4 collinear points spacing 1: shortest 1, longest 3.
        assert link_ratio(line(4)) == pytest.approx(3.0)

    def test_single_node(self):
        assert link_ratio(grid(1)) == 1.0

    def test_log_link_ratio(self):
        assert log_link_ratio(line(4)) == pytest.approx(math.log2(3.0))

    def test_ratio_at_least_one(self, rng):
        from repro.deploy.topologies import uniform_disk

        assert link_ratio(uniform_disk(20, rng)) >= 1.0


def _occupied(positions):
    return deployment_stats(positions).occupied_classes


class TestOccupiedClasses:
    def test_grid_single_class(self):
        # Every grid node's nearest neighbor is at exactly the spacing.
        assert _occupied(grid(16)) == 1

    def test_chain_classes(self):
        assert _occupied(exponential_chain(5, nodes_per_class=2)) == 5

    def test_single_node_zero_classes(self):
        assert _occupied(grid(1)) == 0


class TestDeploymentStats:
    def test_consistency_with_individual_metrics(self):
        positions = exponential_chain(3, nodes_per_class=2)
        stats = deployment_stats(positions)
        assert stats.link_ratio == pytest.approx(link_ratio(positions))
        assert stats.log_link_ratio == pytest.approx(log_link_ratio(positions))
        assert stats.occupied_classes == 3
        assert stats.n == positions.shape[0]

    def test_extremes(self):
        stats = deployment_stats(line(3, spacing=2.0))
        assert stats.shortest_link == pytest.approx(2.0)
        assert stats.longest_link == pytest.approx(4.0)

    def test_degenerate_single_node(self):
        stats = deployment_stats(grid(1))
        assert stats.n == 1
        assert stats.link_ratio == 1.0
        assert stats.occupied_classes == 0

    def test_str_mentions_key_fields(self):
        text = str(deployment_stats(grid(9)))
        assert "n=9" in text
        assert "classes=" in text


def _dense_stats(positions):
    """Shortest and longest link and occupied classes, from the (n, n) matrix."""
    distances = pairwise_distances(positions)
    shortest, longest = link_length_extremes(distances)
    nearest = nearest_neighbor_distances(distances)
    return shortest, longest, np.unique(link_class_indices(nearest, shortest)).size


class TestAgainstTheMatrix:
    @pytest.mark.parametrize(
        "name,positions",
        [
            ("grid", grid(400)),
            ("uniform_disk", uniform_disk(300, generator_from(2))),
            ("clustered", clustered(5, 24, generator_from(3))),
            # E2 full's widest chain: R > 2^32.
            ("e2_full_chain", exponential_chain(32, nodes_per_class=4)),
        ],
    )
    def test_stats_equal_the_dense_reference(self, name, positions):
        stats = deployment_stats(positions)
        shortest, longest, classes = _dense_stats(positions)
        assert stats.shortest_link == shortest
        assert stats.longest_link == longest
        assert stats.link_ratio == longest / shortest
        assert stats.occupied_classes == classes

    def test_e2_full_chain_spans_more_than_32_doublings(self):
        stats = deployment_stats(exponential_chain(32, nodes_per_class=4))
        assert stats.link_ratio > 2.0**32
        assert stats.occupied_classes == 32
        assert stats.log_link_ratio == math.log2(stats.link_ratio)
