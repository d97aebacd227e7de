"""Parity of the matrix-free paths with the dense ``(n, n)`` computations.

The deployment sampler, the channel's construction checks and the fast
path all avoid ``(n, n)`` matrices. Each must give the same bits as the
dense computation it replaced, so every seed keeps its outcome.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.deploy import topologies
from repro.experiments import e1_scaling_n, e17_large_scale
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.parallel import StaticDeploymentFactory, UniformDiskFactory
from repro.sim.seeding import generator_from
from repro.sinr import channel as sinr_channel
from repro.sinr import geometry
from repro.sinr.channel import SINRChannel
from repro.sinr.geometry import diameter_of, has_colocated_pair, pairwise_distances
from repro.sinr.parameters import SINRParameters
from tests.test_embedding import two_cluster


def dense_rejection_sample(n, rng, draw, min_separation):
    """The O(n^2) sampler the grid-hash one replaced, kept verbatim."""
    accepted = np.empty((n, 2), dtype=np.float64)
    count = 0
    for _ in range(topologies._MAX_REJECTION_ROUNDS):
        if count == n:
            break
        needed = n - count
        candidates = draw(max(needed * 2, 8))
        for point in candidates:
            if count == n:
                break
            if count == 0:
                accepted[0] = point
                count = 1
                continue
            deltas = accepted[:count] - point
            nearest = np.sqrt((deltas**2).sum(axis=1)).min()
            if nearest >= min_separation:
                accepted[count] = point
                count += 1
    if count < n:
        raise RuntimeError("infeasible")
    return accepted


def square_points(n, rng, min_separation=1.0):
    """``n`` points uniform in a square of side ``6 sqrt(n) min_separation``."""
    side = 6.0 * math.sqrt(n) * min_separation
    return topologies._rejection_sample(
        n, rng, lambda k: side * rng.random((k, 2)), min_separation
    )


def power_law_points(n, rng, inner_radius=2.0, min_separation=1.0):
    """``n`` points with log-uniform radii in ``[r, 16 sqrt(n) r]`` (density
    falling as ``d^-2``): nearest distances span many link classes."""
    outer_radius = inner_radius * 16.0 * math.sqrt(n)

    def draw(k):
        radii = inner_radius * (outer_radius / inner_radius) ** rng.random(k)
        return topologies._polar(radii, 2.0 * math.pi * rng.random(k))

    return topologies._rejection_sample(n, rng, draw, min_separation)


def _generators(s):
    """``name -> f(rng)`` for every sampled generator at separation ``s``."""
    return {
        "uniform_disk": lambda rng: topologies.uniform_disk(150, rng, min_separation=s),
        "uniform_square": lambda rng: square_points(150, rng, min_separation=s),
        "power_law_disk": lambda rng: power_law_points(
            120, rng, inner_radius=2.0 * s, min_separation=s
        ),
        "clustered": lambda rng: topologies.clustered(
            3, 10, rng, cluster_radius=4.0 * s, min_separation=s
        ),
        "two_cluster": lambda rng: two_cluster(
            8, rng, gap=64.0 * s, cluster_radius=2.5 * s, min_separation=s
        ),
    }


class TestSampler:
    @pytest.mark.parametrize("min_separation", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("name", sorted(_generators(1.0)))
    def test_positions_match_the_dense_sampler(self, monkeypatch, name, min_separation):
        generate = _generators(min_separation)[name]
        for seed in range(4):
            fast = generate(generator_from(seed))
            with monkeypatch.context() as patched:
                patched.setattr(topologies, "_rejection_sample", dense_rejection_sample)
                dense = generate(generator_from(seed))
            assert np.array_equal(fast, dense), (name, seed)

    @pytest.mark.parametrize("min_separation", [0.5, 1.0, 3.0])
    def test_candidates_on_cell_boundaries(self, min_separation):
        # Candidates on a lattice of half separations, some nudged by one
        # ulp: they sit exactly on (and just beside) cell edges, and many
        # pairs are exactly min_separation apart, where `>=` accepts.
        def draw_from(rng):
            def draw(k):
                points = rng.integers(-24, 24, size=(k, 2)) * (min_separation / 2.0)
                nudge = rng.integers(-1, 2, size=(k, 2))
                return np.where(
                    nudge == 0,
                    points,
                    np.nextafter(points, np.where(nudge > 0, np.inf, -np.inf)),
                )

            return draw

        for seed in range(6):
            fast = topologies._rejection_sample(
                120, None, draw_from(generator_from(seed)), min_separation
            )
            dense = dense_rejection_sample(
                120, None, draw_from(generator_from(seed)), min_separation
            )
            assert np.array_equal(fast, dense), seed

    @pytest.mark.parametrize("min_separation", [0.5, 1.0, 3.0])
    def test_exact_separations_in_small_batches(self, min_separation):
        # The lattice test's pairs at exactly min_separation, in batches
        # small enough to be compared in one distance block.
        def draw_from(rng):
            return lambda k: rng.integers(-4, 4, size=(k, 2)) * (min_separation / 2.0)

        for seed in range(6):
            draw = draw_from(generator_from(seed))
            fast = topologies._rejection_sample(12, None, draw, min_separation)
            draw = draw_from(generator_from(seed))
            dense = dense_rejection_sample(12, None, draw, min_separation)
            assert np.array_equal(fast, dense), seed

    def test_cell_keys_stay_below_two_to_the_63(self):
        # Corner (0, 0) and a top row of 2**32 - 2 make a column 2**32 cell
        # keys high: the clashing pair's cell, column 2**31 and row 0, would
        # key 2**63. A larger cell side keeps the keys in range.
        def draw(k):
            fillers = 1e6 * (1.0 + np.arange(k - 4, dtype=np.float64))
            points = np.column_stack((fillers, fillers))
            points[:4] = [
                [0.0, 0.0],
                [0.0, 2.0**33 - 3.5],
                [2.0**32 + 0.5, 0.5],
                [2.0**32 + 0.9, 0.5],
            ]
            return points

        fast = topologies._rejection_sample(60, None, draw, 1.0)
        assert np.array_equal(fast, dense_rejection_sample(60, None, draw, 1.0))
        assert [2.0**32 + 0.9, 0.5] not in fast.tolist()

    @pytest.mark.parametrize(
        "generate",
        [
            # Near the packing limit: every batch is dense, so most of its
            # survivors clash with earlier candidates of the same batch
            # (small batches, one distance block; large ones, grid cells).
            lambda rng: two_cluster(12, rng, cluster_radius=2.0),
            lambda rng: topologies.uniform_disk(120, rng, radius=8.0),
        ],
        ids=["two_cluster", "uniform_disk"],
    )
    def test_batches_near_the_packing_limit(self, monkeypatch, generate):
        for seed in range(4):
            outcomes = []
            for sampler in (topologies._rejection_sample, dense_rejection_sample):
                with monkeypatch.context() as patched:
                    patched.setattr(topologies, "_rejection_sample", sampler)
                    try:
                        outcomes.append(generate(generator_from(seed)))
                    except RuntimeError:
                        outcomes.append(None)
            fast, dense = outcomes
            assert (fast is None) == (dense is None), seed
            assert fast is None or np.array_equal(fast, dense), seed

    @pytest.mark.parametrize("offset", [1e12, -1e12])
    def test_cell_indices_beyond_two_to_the_31(self, offset):
        # Cell indices near 5e11 must not overflow the packed cell keys.
        def draw_from(rng):
            return lambda k: offset + 30.0 * rng.random((k, 2))

        fast = topologies._rejection_sample(300, None, draw_from(generator_from(1)), 1.0)
        dense = dense_rejection_sample(300, None, draw_from(generator_from(1)), 1.0)
        assert np.array_equal(fast, dense)

    def test_spans_beyond_two_to_the_30_cells(self):
        # A dense patch beside points 1e12 away: the cells grow past twice
        # the separation, and the patch's clashes must still all be found.
        def draw_from(rng):
            def draw(k):
                points = 12.0 * rng.random((k, 2))
                far = rng.random(k) < 0.25
                points[far] *= 1e11
                return points

            return draw

        for seed in range(3):
            fast = topologies._rejection_sample(150, None, draw_from(generator_from(seed)), 1.0)
            dense = dense_rejection_sample(150, None, draw_from(generator_from(seed)), 1.0)
            assert np.array_equal(fast, dense), seed

    @pytest.mark.parametrize("n", [1, 40])
    def test_zero_separation_takes_the_first_candidates(self, n):
        draw = lambda k: np.zeros((k, 2))  # noqa: E731 - every candidate coincides
        fast = topologies._rejection_sample(n, None, draw, 0.0)
        assert np.array_equal(fast, dense_rejection_sample(n, None, draw, 0.0))
        assert np.array_equal(fast, np.zeros((n, 2)))

    def test_one_point(self, monkeypatch):
        for generate in (
            lambda rng: topologies.uniform_disk(1, rng),
            lambda rng: topologies.clustered(1, 1, rng),
        ):
            fast = generate(generator_from(5))
            with monkeypatch.context() as patched:
                patched.setattr(topologies, "_rejection_sample", dense_rejection_sample)
                dense = generate(generator_from(5))
            assert fast.shape == (1, 2)
            assert np.array_equal(fast, dense)

    def test_infeasible_density_raises_the_same_error(self):
        # Five points a unit apart do not fit in a unit square.
        def draw_from(rng):
            return lambda k: rng.random((k, 2))

        with pytest.raises(RuntimeError, match="infeasible"):
            dense_rejection_sample(5, None, draw_from(generator_from(0)), 1.0)
        with pytest.raises(RuntimeError) as raised:
            topologies._rejection_sample(5, None, draw_from(generator_from(0)), 1.0)
        assert str(raised.value) == (
            "could not place 5 points with separation 1.0; "
            "the requested density is infeasible — enlarge the region"
        )


def _deployments():
    rng = generator_from(7)
    return {
        "uniform_disk": topologies.uniform_disk(300, rng),
        "uniform_square": square_points(300, rng),
        "power_law_disk": power_law_points(200, rng),
        "clustered": topologies.clustered(4, 12, rng),
        "two_cluster": two_cluster(6, rng),
        "grid": topologies.grid(200),
        "line": topologies.line(150),
        "ring": topologies.ring(180),
        # Coordinates up to ~2^44: link ratio R far beyond 2^32.
        "exponential_chain": topologies.exponential_chain(40, 4),
    }


DEPLOYMENTS = _deployments()

#: The deployments plus two tiny cases: a 3-4-5 triangle (diameter 5.0)
#: and a single node (diameter 0.0).
DIAMETER_CASES = {
    **DEPLOYMENTS,
    "triangle_3_4_5": np.array([(0.0, 0.0), (3.0, 4.0), (1.0, 0.0)]),
    "single_node": np.zeros((1, 2)),
}


class TestChannelWithoutMatrix:
    def test_chain_reaches_beyond_two_to_the_32(self):
        distances = pairwise_distances(DEPLOYMENTS["exponential_chain"])
        assert distances.max() / distances[distances > 0].min() > 2.0**32

    @pytest.mark.parametrize("block_cells", [1 << 20, 1000])
    @pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
    def test_blocked_matrix_equals_the_one_step_matrix(self, monkeypatch, name, block_cells):
        # 1000 cells is a few rows per block on every deployment here.
        monkeypatch.setattr(sinr_channel, "_GAIN_BLOCK_CELLS", block_cells)
        positions = DEPLOYMENTS[name]
        channel = SINRChannel(positions)
        with np.errstate(divide="ignore"):
            dense = channel.params.power / pairwise_distances(positions) ** channel.params.alpha
        np.fill_diagonal(dense, 0.0)
        assert np.array_equal(channel.base_gains, dense)
        assert "distances" not in vars(channel)

    @pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
    def test_gain_rows_equal_the_dense_gather(self, name):
        positions = DEPLOYMENTS[name]
        n = positions.shape[0]
        built = SINRChannel(positions)
        dense = built.base_gains
        fresh = SINRChannel(positions)
        rng = generator_from(3)
        for _ in range(5):
            tx = np.sort(rng.choice(n, size=rng.integers(1, n // 2), replace=False))
            listeners = np.setdiff1d(np.arange(n), tx)
            gathered = dense[tx][:, listeners]
            for rows in (fresh.gain_rows(tx, listeners), built.gain_rows(tx, listeners)):
                assert np.array_equal(rows, gathered)
                # Same layout, so the per-listener totals sum in the same order.
                assert rows.flags.f_contiguous == gathered.flags.f_contiguous
                assert np.array_equal(rows.sum(axis=0), gathered.sum(axis=0))
        evens, odds = np.arange(0, n, 2), np.arange(1, n, 2)
        assert np.array_equal(fresh.gain_rows(evens, odds), dense[evens][:, odds])
        assert np.array_equal(fresh.gain_rows(odds, evens), dense[odds][:, evens])
        assert "_gain_matrix" not in vars(fresh) and "distances" not in vars(fresh)

    @pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
    def test_gain_rows_equal_the_dense_gather_at_other_alphas(self, alpha):
        positions = DEPLOYMENTS["uniform_disk"]
        params = SINRParameters(alpha=alpha)
        half = positions.shape[0] // 2
        tx, listeners = np.arange(half), np.arange(half, positions.shape[0])
        fresh = SINRChannel(positions, params=params)
        dense = SINRChannel(positions, params=params).base_gains
        assert np.array_equal(fresh.gain_rows(tx, listeners), dense[tx][:, listeners])
        assert np.array_equal(fresh.gain_rows(listeners, tx), dense[listeners][:, tx])

    @pytest.mark.parametrize("name", sorted(DIAMETER_CASES))
    def test_diameter_equals_the_dense_max(self, monkeypatch, name):
        positions = DIAMETER_CASES[name]
        dense = float(pairwise_distances(positions).max())
        assert diameter_of(positions) == dense
        assert SINRChannel(positions).diameter == dense
        # Tiny blocks exercise the blockwise scan of the survivors.
        monkeypatch.setattr(geometry, "_DIAMETER_BLOCK_CELLS", 7)
        assert diameter_of(positions) == dense

    def test_auto_power_uses_the_dense_diameter(self):
        positions = DEPLOYMENTS["exponential_chain"]
        channel = SINRChannel(positions)
        dense = float(pairwise_distances(positions).max())
        assert not SINRParameters().satisfies_single_hop(dense)
        assert channel.params == SINRParameters().sized_for(dense)

    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, 0.0), (3.0, 4.0), (0.0, 0.0)],
            [(1e-170, 1e-170), (-1e-170, 3e-170), (9.0, 1.0)],
            [(1e-170, 0.0), (0.0, 1e-170)] + [(float(i), 2.0) for i in range(5)],
            [(2.0, float(i)) for i in range(6)] + [(2.0, 3.0)],
        ],
    )
    def test_zero_length_links_are_rejected(self, points):
        assert np.any(
            pairwise_distances(points)[~np.eye(len(points), dtype=bool)] == 0.0
        )
        assert has_colocated_pair(np.asarray(points))
        with pytest.raises(ValueError, match="co-located"):
            SINRChannel(points)

    @pytest.mark.parametrize(
        "points",
        [
            # One coordinate within the underflow gap, the other far apart.
            [(0.0, 0.0), (1e-170, 5.0)],
            [(0.0, 0.0), (5.0, 1e-170)],
            # Distinct points 1e-150 apart: the squared distance is normal.
            [(0.0, 0.0), (1e-150, 0.0)],
            [(2.0, float(i)) for i in range(50)],
        ],
    )
    def test_positive_links_are_accepted(self, points):
        assert has_colocated_pair(np.asarray(points)) is False
        assert SINRChannel(points).n == len(points)

    def test_many_shared_x_values_match_the_dense_check(self):
        # A jittered grid: 12 columns of 20 points each share their x, so
        # every x-run holds many points and the y runs decide.
        rng = generator_from(17)
        grid = np.column_stack(
            (np.repeat(np.arange(12.0), 20), np.tile(np.arange(20.0), 12))
        )
        grid[:, 1] += rng.uniform(-0.4, 0.4, grid.shape[0])
        outcomes = set()
        for variant in range(8):
            points = grid.copy()
            picks = rng.choice(points.shape[0], size=variant % 3, replace=False)
            for pick in picks:
                # An exact copy, or the next float up in y: a distinct
                # point in the same x-run.
                twin = points[pick].copy()
                if variant % 2:
                    twin[1] = np.nextafter(twin[1], np.inf)
                points = np.vstack((points, twin))
            dense = pairwise_distances(points)
            expected = bool(np.any(dense[~np.eye(points.shape[0], dtype=bool)] == 0.0))
            assert has_colocated_pair(points) is expected
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestFastPathWithoutMatrix:
    @pytest.mark.parametrize("seed", range(6))
    def test_result_does_not_depend_on_a_built_matrix(self, seed):
        positions = topologies.uniform_disk(400, generator_from(seed))
        fresh = SINRChannel(positions)
        built = SINRChannel(positions)
        built.base_gains
        a = fast_fixed_probability_run(fresh, 0.1, generator_from(100 + seed))
        b = fast_fixed_probability_run(built, 0.1, generator_from(100 + seed))
        assert a == b
        assert "_gain_matrix" not in vars(fresh)

    def test_resolve_does_not_depend_on_a_built_matrix(self):
        positions = DEPLOYMENTS["power_law_disk"]
        fresh = SINRChannel(positions)
        built = SINRChannel(positions)
        built.base_gains
        rng = generator_from(5)
        for size in (1, 2, 10, 60):
            tx = rng.choice(positions.shape[0], size=size, replace=False).tolist()
            assert fresh.resolve(tx) == built.resolve(tx)
        assert "_gain_matrix" not in vars(fresh)

    def test_resampling_factory_leaves_the_matrix_unbuilt(self):
        channel = UniformDiskFactory(64)(generator_from(1))
        fast_fixed_probability_run(channel, 0.1, generator_from(2))
        channel.resolve([0, 1, 2])
        assert "_gain_matrix" not in vars(channel) and "distances" not in vars(channel)

    def test_static_factory_builds_the_matrix(self):
        channel = StaticDeploymentFactory(topologies.grid(16))(None)
        assert "_gain_matrix" in vars(channel)
        assert "distances" not in vars(channel)


def _rows_digest(result) -> str:
    return hashlib.sha256(json.dumps(result.rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "module,config,digest",
    [
        # Recorded with the dense sampler and gain matrix.
        (e1_scaling_n, e1_scaling_n.Config(sizes=[16, 32, 64], trials=4), "0803772250d37ab3"),
        (
            e17_large_scale,
            e17_large_scale.Config(sizes=[64, 128, 256], trials=8),
            "10c8a281f8facea9",
        ),
    ],
)
def test_report_rows_match_the_dense_implementation(module, config, digest):
    assert _rows_digest(module.run(config)) == digest

