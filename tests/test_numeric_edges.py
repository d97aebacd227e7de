"""Decisions at the edges of the float range.

Two properties of the SINR decode (docs/model.md):

* **The overflow rule.** A gain ``P / d^alpha`` that overflows to ``inf``
  would make the threshold ``beta * (N + (total - strongest))`` NaN. A
  listener whose strongest gain is the only infinite one decodes it (its
  SINR is infinite); a second infinite gain, or infinite external power,
  blocks it. The engine's resolve, the screened ``decide`` and the probed
  decode all follow it.
* **Scale invariance.** With an integer ``alpha``, scaling positions by
  ``2^m`` and the power by ``2^(alpha m)`` scales every intermediate
  (coordinate differences, squared distances, their roots and powers)
  exactly while it stays a normal float, and leaves every gain, total and
  decision with the same bits. Past that range (subnormal power and
  gains), decisions through the three paths still agree with each other
  and with the dense decode of ``tests/test_blocked_decode.py``.
"""

import math

import numpy as np
import pytest

from repro.deploy.topologies import exponential_chain, uniform_disk
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from
from repro.sinr import channel as sinr_channel
from repro.sinr.channel import SINRChannel
from repro.sinr.jamming import ExternalSource
from repro.sinr.parameters import SINRParameters
from tests.test_blocked_decode import (
    _scaled_with_partners,
    dense_decode,
    probing,
    random_rounds,
    screen_spy,
)

#: Node 0 listens; 1 and 2 sit 1e-104 away from it, 3 and 4 a unit away,
#: all scaled by 1e-100. With power 1 and alpha 3 the gains from 1 and 2
#: at node 0 overflow (1e312); those from 3 and 4 are 1e300.
CLUSTER = 1e-100 * np.array(
    [(0.0, 0.0), (1e-4, 0.0), (0.0, 1e-4), (1.0, 0.0), (0.0, 1.0)]
)


def _cluster_channel(external_sources=()):
    return SINRChannel(
        CLUSTER,
        params=SINRParameters(alpha=3.0, power=1.0),
        auto_power=False,
        external_sources=external_sources,
    )


def _three_paths(channel, tx, listeners):
    """Per listener: decoded by the resolve core, by ``decide`` and by the probed decode."""
    tx, listeners = np.asarray(tx), np.asarray(listeners)
    exact = channel.resolve_ids(tx, listeners).decoded >= 0
    external = channel._external_interference(listeners, None)
    screened = channel.decide(tx, listeners, external)
    with probing() as probes:
        probed = channel.resolve_ids(tx, listeners).decoded >= 0
    assert np.array_equal(probes[0].delivered, probed)
    return exact, screened, probed


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowedGains:
    """Rounds the overflow rule decides, with NumPy's warnings raised as errors."""

    @pytest.mark.parametrize(
        "tx, decodes",
        [
            ([1], True),  # one infinite gain alone
            ([1, 3], True),  # one infinite gain over a finite one
            ([1, 3, 4], True),
            ([1, 2], False),  # two infinite gains
            ([1, 2, 3], False),
            ([3], True),  # finite gains take the threshold as before
            ([3, 4], False),
        ],
    )
    def test_lone_infinite_gain_decodes(self, tx, decodes):
        channel = _cluster_channel()
        for found in _three_paths(channel, tx, [0]):
            assert found.tolist() == [decodes]
        report = channel.resolve(tx, listeners=[0])
        assert report.received_from == ({0: min(tx)} if decodes else {})

    def test_infinite_external_power_blocks_it(self):
        jammer = ExternalSource(position=(1e-104, 1e-104), power=1.0)
        with np.errstate(over="ignore"):
            channel = _cluster_channel([jammer])
        for found in _three_paths(channel, [1], [0]):
            assert found.tolist() == [False]

    def test_a_tiny_scale_partner_hears_its_twin(self):
        # On test_blocked_decode's tiny_scale deployment, node 150 sits
        # 1e-104 from node 0, so node 0's gain there overflows.
        positions = _scaled_with_partners(1e-100, 1e-4)
        channel = SINRChannel(positions)
        listeners = np.arange(1, channel.n)
        decoded = channel.resolve_ids(np.array([0]), listeners).decoded
        assert decoded[149] == 0
        for found in _three_paths(channel, [0], listeners):
            assert np.array_equal(found, decoded >= 0)
        assert channel.resolve([0], listeners=[150]).received_from == {150: 0}

    @pytest.mark.parametrize("built", [False, True], ids=["computed", "gathered"])
    def test_every_block_size_and_the_matrix(self, monkeypatch, built):
        # Overflowed gains in screened, declined and gathered blocks alike.
        channel = SINRChannel(_scaled_with_partners(1e-100, 1e-4))
        if built:
            channel.base_gains
        twins = np.arange(12)
        listeners = np.setdiff1d(np.arange(channel.n), twins)
        for block_cells in (1, 7, 1000):
            monkeypatch.setattr(sinr_channel, "_DECODE_BLOCK_CELLS", block_cells)
            exact, screened, probed = _three_paths(channel, twins, listeners)
            assert np.array_equal(screened, exact) and np.array_equal(probed, exact)
            assert exact[np.isin(listeners, np.arange(150, 162))].all()


def _intermediates_normal(positions, power, alpha, m):
    """Whether every intermediate of every gain at scale ``m`` is a normal float.

    Coordinates and their differences may also be exactly 0, which
    scales exactly.
    """
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max

    def normal(values, zero_allowed=False):
        values = values[values != 0] if zero_allowed else values
        return bool(np.all((values >= tiny) & (values <= huge)))

    scaled = np.ldexp(positions, m)
    dx = np.abs(scaled[:, None, 0] - scaled[None, :, 0])
    dy = np.abs(scaled[:, None, 1] - scaled[None, :, 1])
    off = ~np.eye(len(positions), dtype=bool)
    with np.errstate(all="ignore"):
        d2 = dx * dx + dy * dy
        root = np.sqrt(d2)
        denominators = np.power(root, alpha)
        gains = power / denominators
        return (
            normal(np.array([power]))
            and all(normal(x, True) for x in (np.abs(scaled), dx, dy, dx * dx, dy * dy))
            and all(normal(x[off]) for x in (d2, root, denominators, gains))
        )


#: Uniform disks, near-co-located pairs at unit scale and an exponential
#: chain whose longest link is over 2^60 times its shortest.
SCALE_DEPLOYMENTS = {
    "uniform_disk": uniform_disk(48, generator_from(41)),
    "near_colocated": _scaled_with_partners(1.0, 1e-9, count=40, partners=8),
    "exponential_chain": exponential_chain(62, 2),
}


def _scaled_channel(positions, alpha, m):
    """The channel at scale ``m``, or ``None`` where its power is not a positive float."""
    base = SINRChannel(positions, params=SINRParameters(alpha=alpha)).params
    with np.errstate(over="ignore"):
        power = float(np.ldexp(base.power, alpha * m))
    if not 0.0 < power < math.inf:
        return None
    return SINRChannel(
        np.ldexp(positions, m),
        params=SINRParameters(alpha=alpha, beta=base.beta, noise=base.noise, power=power),
        auto_power=False,
    )


class TestScaleInvariance:
    def test_the_chain_spans_more_than_two_to_the_60(self):
        positions = SCALE_DEPLOYMENTS["exponential_chain"]
        d2 = ((positions[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2)
        assert math.sqrt(d2.max() / d2[d2 > 0].min()) > 2.0**60

    @pytest.mark.parametrize("alpha", [3, 4])
    @pytest.mark.parametrize("name", sorted(SCALE_DEPLOYMENTS))
    def test_decisions_keep_their_bits_across_scales(self, monkeypatch, name, alpha):
        positions = SCALE_DEPLOYMENTS[name]
        rounds = list(random_rounds(positions.shape[0], seed=len(name) + alpha))
        reference = None
        normal_scales, other_scales = [], []
        with screen_spy(monkeypatch) as seen:
            for m in range(-1100, 1101, 4):
                channel = _scaled_channel(positions, alpha, m)
                if channel is None:
                    continue
                found = []
                for tx, listeners in rounds:
                    with np.errstate(all="ignore"):
                        exact, screened, probed = _three_paths(channel, tx, listeners)
                    assert np.array_equal(screened, exact)
                    assert np.array_equal(probed, exact)
                    with np.errstate(all="ignore"):
                        energy = channel.resolve_ids(tx, listeners).listener_energy
                    found.append((exact, energy))
                if m == 0:
                    reference = found
                if _intermediates_normal(positions, channel.params.power, alpha, m):
                    normal_scales.append((m, found))
                else:
                    other_scales.append(m)
                    with np.errstate(all="ignore"):
                        for (tx, listeners), (exact, _) in zip(rounds, found):
                            dense = dense_decode(channel, tx, listeners, np.zeros(listeners.size))
                            assert np.array_equal(exact, dense[2])
        # A listener and a transmitter in the chain's first classes lie
        # 2^60 times farther from the centre than from each other: their
        # blocks cancel past the bound and take the exact fill.
        assert seen["declined" if name == "exponential_chain" else "screened"] > 0
        for m, found in normal_scales:
            for (exact, energy), (exact_0, energy_0) in zip(found, reference):
                assert np.array_equal(exact, exact_0), m
                assert energy.tobytes() == energy_0.tobytes(), m
        # The normal range is one run of scales around 0, and the sweep
        # reaches past it.
        scales = [m for m, _ in normal_scales]
        assert 0 in scales and scales == list(range(scales[0], scales[-1] + 1, 4))
        assert scales[-1] - scales[0] >= 400
        assert any(m < scales[0] for m in other_scales)

    @pytest.mark.parametrize("name", sorted(SCALE_DEPLOYMENTS))
    def test_runs_keep_their_rounds_across_scales(self, name):
        positions = SCALE_DEPLOYMENTS[name]
        outcomes = set()
        for m in (-200, 0, 150):
            channel = _scaled_channel(positions, 3, m)
            assert _intermediates_normal(positions, channel.params.power, 3, m)
            for seed in range(3):
                unprobed = fast_fixed_probability_run(channel, 0.3, generator_from(seed))
                with probing():
                    probed = fast_fixed_probability_run(channel, 0.3, generator_from(seed))
                trace = Simulation(
                    channel, FixedProbabilityProtocol(p=0.3), generator_from(seed)
                ).run()
                assert unprobed == probed
                assert trace.solved_round == unprobed.solved_round
                assert trace.active_counts() == unprobed.active_counts
                outcomes.add((seed, unprobed.solved_round, tuple(unprobed.active_counts)))
        assert len(outcomes) == 3
