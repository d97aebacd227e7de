"""Unit tests for :mod:`repro.radio.channel` — the collision model."""

import pytest

from repro.radio.channel import ChannelObservation, RadioChannel, RadioReport


class TestConstruction:
    def test_needs_positive_n(self):
        with pytest.raises(ValueError, match="node"):
            RadioChannel(0)

    def test_repr(self):
        assert "collision_detection=True" in repr(RadioChannel(3, collision_detection=True))


class TestSoloDelivery:
    def test_solo_heard_by_all_listeners(self):
        channel = RadioChannel(4)
        report = channel.resolve([2])
        assert report.tx_ids.size == 1
        assert report.received_from == {0: 2, 1: 2, 3: 2}

    def test_solo_observations_are_message(self):
        channel = RadioChannel(3)
        report = channel.resolve([0])
        assert report.observations[1] is ChannelObservation.MESSAGE
        assert report.observations[2] is ChannelObservation.MESSAGE

    def test_transmitter_gets_no_observation(self):
        channel = RadioChannel(3)
        report = channel.resolve([0])
        assert 0 not in report.observations
        assert 0 not in report.received_from


class TestCollisions:
    def test_two_transmitters_collide_everywhere(self):
        channel = RadioChannel(4)
        report = channel.resolve([0, 1])
        assert report.received_from == {}

    def test_collision_reads_as_silence_without_cd(self):
        channel = RadioChannel(4, collision_detection=False)
        report = channel.resolve([0, 1])
        assert report.observations[2] is ChannelObservation.SILENCE
        assert report.observations[3] is ChannelObservation.SILENCE

    def test_collision_detected_with_cd(self):
        channel = RadioChannel(4, collision_detection=True)
        report = channel.resolve([0, 1])
        assert report.observations[2] is ChannelObservation.COLLISION

    def test_all_transmit_no_listeners(self):
        channel = RadioChannel(3)
        report = channel.resolve([0, 1, 2])
        assert report.observations == {}
        assert report.received_from == {}


class TestSilence:
    def test_empty_round_is_silent(self):
        channel = RadioChannel(3)
        report = channel.resolve([])
        assert report.tx_ids.size != 1
        assert all(
            obs is ChannelObservation.SILENCE for obs in report.observations.values()
        )

    def test_silence_same_with_and_without_cd(self):
        for cd in (False, True):
            report = RadioChannel(3, collision_detection=cd).resolve([])
            assert report.observations[0] is ChannelObservation.SILENCE


class TestListeners:
    def test_explicit_listeners_respected(self):
        channel = RadioChannel(4)
        report = channel.resolve([0], listeners=[2])
        assert report.received_from == {2: 0}
        assert 1 not in report.observations

    def test_transmitters_filtered_from_listeners(self):
        channel = RadioChannel(4)
        report = channel.resolve([0], listeners=[0, 1])
        assert 0 not in report.received_from

    def test_duplicate_transmitters_coalesce(self):
        channel = RadioChannel(4)
        report = channel.resolve([1, 1])
        assert report.transmitters == (1,)
        assert report.tx_ids.size == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            RadioChannel(2).resolve([3])

    def test_rng_is_accepted_and_ignored(self, rng):
        # Interface parity with SINRChannel.resolve.
        report = RadioChannel(2).resolve([0], rng=rng)
        assert isinstance(report, RadioReport)


class TestNoFadingContrast:
    def test_no_spatial_reuse_in_radio_model(self):
        # The defining contrast with the SINR channel: two concurrent
        # transmitters deliver nothing, no matter what.
        channel = RadioChannel(6)
        report = channel.resolve([0, 5])
        assert report.received_from == {}
