"""Unit tests for :mod:`repro.sinr.channel` — Equation 1 made executable."""

import numpy as np
import pytest

from repro.sinr.channel import ReceptionReport, SINRChannel
from repro.sinr.fading import RayleighFading
from repro.sinr.parameters import SINRParameters
from tests.dense_geometry import point_sinr


def _three_node_channel(beta=1.5, alpha=3.0, noise=1.0, power=None):
    """Two close nodes and one distant interferer, sized single-hop."""
    positions = [(0.0, 0.0), (1.0, 0.0), (50.0, 0.0)]
    params = SINRParameters(alpha=alpha, beta=beta, noise=noise)
    if power is not None:
        params = params.with_power(power)
        return SINRChannel(positions, params=params, auto_power=False)
    return SINRChannel(positions, params=params)


class TestConstruction:
    def test_auto_power_makes_single_hop(self):
        channel = _three_node_channel()
        diameter = float(channel.distances.max())
        assert channel.params.satisfies_single_hop(diameter)

    def test_auto_power_keeps_sufficient_power(self):
        params = SINRParameters(power=1e12)
        channel = SINRChannel([(0, 0), (1, 0)], params=params)
        assert channel.params.power == 1e12

    def test_colocated_nodes_rejected(self):
        with pytest.raises(ValueError, match="o-located"):
            SINRChannel([(0, 0), (0, 0)])

    def test_empty_deployment_rejected(self):
        with pytest.raises(ValueError):
            SINRChannel(np.empty((0, 2)))

    def test_single_node_channel_allowed(self):
        channel = SINRChannel([(0, 0)])
        assert channel.n == 1

    def test_gain_matrix_diagonal_zero(self):
        channel = _three_node_channel()
        assert np.all(np.diag(channel.base_gains) == 0.0)

    def test_gain_matrix_is_readonly(self):
        channel = _three_node_channel()
        with pytest.raises(ValueError):
            channel.base_gains[0, 1] = 99.0

    def test_gain_follows_path_loss(self):
        channel = _three_node_channel()
        p = channel.params
        expected = p.power / channel.distances[0, 1] ** p.alpha
        assert channel.base_gains[0, 1] == pytest.approx(expected)


class TestSoloReception:
    def test_solo_transmission_received_everywhere(self):
        channel = _three_node_channel()
        report = channel.resolve([0])
        assert report.tx_ids.size == 1
        assert report.received_from == {1: 0, 2: 0}

    def test_transmitter_does_not_receive(self):
        channel = _three_node_channel()
        report = channel.resolve([0])
        assert 0 not in report.received_from

    def test_no_transmitters_no_receptions(self):
        channel = _three_node_channel()
        report = channel.resolve([])
        assert report.transmitters == ()
        assert report.received_from == {}
        assert report.tx_ids.size != 1

    def test_all_transmit_nobody_listens(self):
        channel = _three_node_channel()
        report = channel.resolve([0, 1, 2])
        assert report.received_from == {}

    def test_duplicate_transmitters_coalesce(self):
        channel = _three_node_channel()
        report = channel.resolve([0, 0, 0])
        assert report.transmitters == (0,)
        assert report.tx_ids.size == 1

    def test_out_of_range_transmitter_rejected(self):
        channel = _three_node_channel()
        with pytest.raises(IndexError):
            channel.resolve([5])


class TestInterference:
    def test_near_transmitter_captures_far_one(self):
        # Node 1 listens; node 0 (distance 1) and node 2 (distance 49)
        # both transmit. The strong near signal wins.
        channel = _three_node_channel()
        report = channel.resolve([0, 2])
        assert report.received_from.get(1) == 0

    def test_reception_matches_manual_sinr(self):
        channel = _three_node_channel()
        report = channel.resolve([0, 2])
        manual = point_sinr(channel, sender=0, receiver=1, interferers=[2])
        assert (report.received_from.get(1) == 0) == (manual >= channel.params.beta)

    def test_symmetric_interferers_block_middle_listener(self):
        # Listener equidistant from two transmitters: each signal faces the
        # other as interference; with beta >= 1 neither clears.
        positions = [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)]
        params = SINRParameters(alpha=3.0, beta=1.5, noise=0.0)
        channel = SINRChannel(positions, params=params, auto_power=False)
        report = channel.resolve([0, 1])
        assert report.received_from.get(2) is None

    def test_listeners_argument_restricts_receivers(self):
        channel = _three_node_channel()
        report = channel.resolve([0], listeners=[2])
        assert 1 not in report.received_from
        assert report.received_from.get(2) == 0

    def test_transmitter_never_in_listeners(self):
        channel = _three_node_channel()
        report = channel.resolve([0], listeners=[0, 1])
        assert 0 not in report.received_from

    def test_spatial_reuse_two_pairs(self):
        # Two tight pairs far apart: both transmissions are received by
        # their local partners simultaneously — the defining fading-channel
        # behaviour the radio model forbids.
        positions = [(0.0, 0.0), (1.0, 0.0), (1000.0, 0.0), (1001.0, 0.0)]
        channel = SINRChannel(positions, params=SINRParameters(alpha=3.0))
        report = channel.resolve([0, 2])
        assert report.received_from.get(1) == 0
        assert report.received_from.get(3) == 2

    def test_sinr_helper_rejects_self_link(self):
        channel = _three_node_channel()
        with pytest.raises(ValueError):
            point_sinr(channel, sender=0, receiver=0, interferers=[])

    def test_sinr_helper_excludes_endpoints_from_interference(self):
        channel = _three_node_channel()
        with_self = point_sinr(channel, 0, 1, interferers=[0, 1, 2])
        without = point_sinr(channel, 0, 1, interferers=[2])
        assert with_self == pytest.approx(without)


class TestStochasticGains:
    def test_rayleigh_requires_rng(self):
        channel = SINRChannel(
            [(0, 0), (1, 0)], gain_model=RayleighFading()
        )
        with pytest.raises(ValueError, match="rng"):
            channel.resolve([0])

    def test_rayleigh_resolves_with_rng(self, rng):
        channel = SINRChannel(
            [(0, 0), (1, 0), (2, 0)], gain_model=RayleighFading()
        )
        report = channel.resolve([0], rng=rng)
        assert isinstance(report, ReceptionReport)

    def test_rayleigh_changes_outcomes_across_rounds(self, rng):
        # Place the listener near the edge of decodability so fading flips
        # the outcome sometimes.
        params = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, power=12.0)
        channel = SINRChannel(
            [(0.0, 0.0), (1.9, 0.0)],
            params=params,
            gain_model=RayleighFading(),
            auto_power=False,
        )
        outcomes = {channel.resolve([0], rng=rng).received_from.get(1) for _ in range(200)}
        assert outcomes == {None, 0}

    def test_deterministic_channel_is_reproducible(self):
        channel = _three_node_channel()
        first = channel.resolve([0, 2])
        second = channel.resolve([0, 2])
        assert first.received_from == second.received_from


class TestEnergyReports:
    def test_energy_is_sum_of_arriving_gains(self):
        channel = _three_node_channel()
        report = channel.resolve([0, 2])
        expected = channel.base_gains[0, 1] + channel.base_gains[2, 1]
        assert report.energy[1] == pytest.approx(expected)

    def test_transmitters_have_no_energy_entry(self):
        channel = _three_node_channel()
        report = channel.resolve([0])
        assert 0 not in report.energy
        assert set(report.energy) == {1, 2}

    def test_no_transmitters_no_energy(self):
        channel = _three_node_channel()
        assert _three_node_channel().resolve([]).energy == {}

    def test_jammer_only_round_still_reports_energy(self):
        # The documented contract: energy is empty only when nobody
        # transmitted *and* no external source was on the air. On a
        # transmitter-free round, listeners still sense an active jammer.
        from repro.sinr.jamming import ExternalSource, external_gain_matrix

        jammer = ExternalSource((0.5, 2.0), power=10.0, duty_cycle=1.0)
        channel = SINRChannel(
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], external_sources=[jammer]
        )
        report = channel.resolve([])
        assert report.transmitters == ()
        assert report.received_from == {}
        assert set(report.energy) == {0, 1, 2}
        expected = external_gain_matrix(
            channel.external_sources, channel.positions, channel.params.alpha
        ).sum(axis=0)
        for node, energy in report.energy.items():
            assert energy == pytest.approx(expected[node])
            assert energy > 0.0

    def test_channel_declares_energy_capability(self):
        assert _three_node_channel().provides_energy is True

    def test_energy_respects_listener_subset(self):
        channel = _three_node_channel()
        report = channel.resolve([0], listeners=[2])
        assert set(report.energy) == {2}


class TestReceptionReport:
    def test_is_solo(self):
        assert ReceptionReport(transmitters=(3,)).tx_ids.size == 1
        assert ReceptionReport(transmitters=(1, 2)).tx_ids.size == 2
        assert ReceptionReport(transmitters=()).tx_ids.size == 0

    def test_heard_by_default_none(self):
        report = ReceptionReport(transmitters=(0,))
        assert report.received_from.get(1) is None
