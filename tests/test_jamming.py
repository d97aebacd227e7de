"""Unit tests for external interference sources."""

import numpy as np
import pytest

from repro.sinr.channel import SINRChannel
from repro.sinr.jamming import ExternalSource, external_gain_matrix
from repro.sinr.parameters import SINRParameters


class TestExternalSource:
    def test_validation(self):
        with pytest.raises(ValueError, match="power"):
            ExternalSource(position=(0.0, 0.0), power=0.0)
        with pytest.raises(ValueError, match="duty_cycle"):
            ExternalSource(position=(0.0, 0.0), power=1.0, duty_cycle=0.0)
        with pytest.raises(ValueError, match="duty_cycle"):
            ExternalSource(position=(0.0, 0.0), power=1.0, duty_cycle=1.5)
        with pytest.raises(ValueError, match="position"):
            ExternalSource(position=(0.0, 0.0, 0.0), power=1.0)


class TestGainMatrix:
    def test_shape_and_values(self):
        positions = np.asarray([(0.0, 0.0), (2.0, 0.0)])
        sources = [ExternalSource((1.0, 0.0), power=8.0)]
        gains = external_gain_matrix(sources, positions, alpha=3.0)
        assert gains.shape == (1, 2)
        assert gains[0, 0] == pytest.approx(8.0)  # distance 1
        assert gains[0, 1] == pytest.approx(8.0)  # distance 1

    def test_empty_sources(self):
        positions = np.asarray([(0.0, 0.0)])
        assert external_gain_matrix([], positions, 3.0).shape == (0, 1)

    def test_colocated_source_rejected(self):
        positions = np.asarray([(0.0, 0.0), (2.0, 0.0)])
        with pytest.raises(ValueError, match="co-located"):
            external_gain_matrix(
                [ExternalSource((0.0, 0.0), 1.0)], positions, 3.0
            )


class TestChannelWithJammer:
    def _channel(self, jam_power, duty=1.0):
        positions = [(0.0, 0.0), (1.0, 0.0)]
        params = SINRParameters(alpha=3.0, beta=1.5, noise=0.0, power=8.0)
        jammer = ExternalSource((0.5, 10.0), power=jam_power, duty_cycle=duty)
        return SINRChannel(
            positions, params=params, auto_power=False, external_sources=[jammer]
        )

    def test_weak_jammer_does_not_block(self):
        channel = self._channel(jam_power=0.001)
        report = channel.resolve([0])
        assert report.received_from.get(1) == 0

    def test_strong_jammer_blocks_reception(self):
        channel = self._channel(jam_power=1e9)
        report = channel.resolve([0])
        assert report.received_from.get(1) is None

    def test_jammer_energy_sensed_without_transmitters(self):
        channel = self._channel(jam_power=100.0)
        report = channel.resolve([])
        assert report.energy[0] > 0.0
        assert report.energy[1] > 0.0
        assert report.received_from == {}

    def test_jammer_energy_added_to_transmissions(self):
        with_jam = self._channel(jam_power=100.0)
        report = with_jam.resolve([0])
        jam_only = with_jam.resolve([])
        assert report.energy[1] > jam_only.energy[1]

    def test_intermittent_jammer_requires_rng(self):
        channel = self._channel(jam_power=100.0, duty=0.5)
        with pytest.raises(ValueError, match="rng"):
            channel.resolve([0])

    def test_intermittent_jammer_sometimes_blocks(self, rng):
        # Jam power sized so reception fails iff the jammer is on the air.
        channel = self._channel(jam_power=1e9, duty=0.5)
        outcomes = {channel.resolve([0], rng=rng).received_from.get(1) for _ in range(100)}
        assert outcomes == {None, 0}

    def test_clean_channel_unaffected_by_empty_sources(self):
        positions = [(0.0, 0.0), (1.0, 0.0)]
        plain = SINRChannel(positions)
        with_empty = SINRChannel(positions, external_sources=[])
        a = plain.resolve([0])
        b = with_empty.resolve([0])
        assert a.received_from == b.received_from
