"""Unit tests for :mod:`repro.sinr.parameters`."""

import math

import numpy as np
import pytest

from repro.sinr.channel import SINRChannel
from repro.sinr.parameters import SINGLE_HOP_MARGIN, SINRParameters, single_hop_power
from tests.test_blocked_decode import probing


class TestValidation:
    def test_default_parameters_are_valid(self):
        params = SINRParameters()
        assert params.alpha > 2.0
        assert params.beta > 0.0

    def test_alpha_must_exceed_two(self):
        with pytest.raises(ValueError, match="alpha"):
            SINRParameters(alpha=2.0)

    def test_alpha_below_two_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            SINRParameters(alpha=1.5)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError, match="beta"):
            SINRParameters(beta=0.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            SINRParameters(noise=-0.1)

    def test_zero_noise_allowed(self):
        assert SINRParameters(noise=0.0).noise == 0.0

    def test_power_must_be_positive(self):
        with pytest.raises(ValueError, match="power"):
            SINRParameters(power=0.0)

    def test_parameters_are_immutable(self):
        params = SINRParameters()
        with pytest.raises(AttributeError):
            params.alpha = 4.0


class TestEpsilon:
    def test_epsilon_definition(self):
        # Definition 1: epsilon = alpha/2 - 1.
        assert SINRParameters(alpha=3.0).epsilon == pytest.approx(0.5)

    def test_epsilon_positive_for_valid_alpha(self):
        for alpha in (2.01, 2.5, 3.0, 4.0, 6.0):
            assert SINRParameters(alpha=alpha).epsilon > 0.0

    def test_epsilon_grows_with_alpha(self):
        assert SINRParameters(alpha=4.0).epsilon > SINRParameters(alpha=3.0).epsilon


def _line_channel(distances, **params):
    """Node 0 at the origin and one node per distance along the x axis, power as given."""
    positions = np.array([(0.0, 0.0)] + [(d, 0.0) for d in distances])
    return SINRChannel(positions, params=SINRParameters(**params), auto_power=False)


def _heard(channel, transmitters):
    """Who node 0 decodes when ``transmitters`` transmit, or ``None``."""
    return channel.resolve(transmitters, listeners=[0]).received_from.get(0)


class TestReception:
    """Equation 1 as the channel applies it: gains ``P / d^alpha``, SINR >= beta."""

    def test_received_power_decays_with_distance(self):
        channel = _line_channel([1.0, 2.0], alpha=3.0, power=8.0)
        near, far = channel.gain_rows(np.array([1, 2]), np.array([0]))[:, 0]
        assert near > far

    def test_received_power_exact_value(self):
        channel = _line_channel([2.0], alpha=3.0, power=8.0)
        assert channel.gain_rows(np.array([1]), np.array([0]))[0, 0] == 1.0

    def test_received_power_rejects_zero_distance(self):
        with pytest.raises(ValueError, match="co-located"):
            SINRChannel(np.zeros((2, 2)))

    def test_sinr_ratio(self):
        # Signal 3 at unit distance, interference 1 from 3^(1/3) away.
        channel = _line_channel([1.0, 3.0 ** (1 / 3)], alpha=3.0, noise=1.0, power=3.0)
        with probing() as probes:
            channel.resolve([1, 2], listeners=[0])
        assert probes[0].sinr[0] == pytest.approx(1.5)

    def test_sinr_infinite_on_clean_noiseless_channel(self):
        channel = _line_channel([1.0], noise=0.0)
        with probing() as probes:
            channel.resolve([1], listeners=[0])
        assert math.isinf(probes[0].sinr[0])

    def test_is_received_at_threshold(self):
        channel = _line_channel([1.0], beta=1.5, noise=1.0, power=1.5)
        assert _heard(channel, [1]) == 1

    def test_is_not_received_below_threshold(self):
        channel = _line_channel([1.0], beta=1.5, noise=1.0, power=1.49)
        assert _heard(channel, [1]) is None

    def test_interference_blocks_reception(self):
        # Signal 3 at unit distance; interference 0.5, then 2.0 (alpha = 4).
        for interference, heard in ((0.5, 1), (2.0, None)):
            distance = (3.0 / interference) ** 0.25
            channel = _line_channel(
                [1.0, distance], alpha=4.0, beta=1.5, noise=1.0, power=3.0
            )
            assert _heard(channel, [1, 2]) == heard


class TestCommunicationRange:
    """The range ``(P / (beta N))^(1/alpha)``: the farthest a lone signal is decoded."""

    def test_range_infinite_without_noise(self):
        channel = _line_channel([1e6], noise=0.0, power=1.0)
        assert _heard(channel, [1]) == 1

    def test_range_solves_threshold_equation(self):
        # (16 / (2 * 1))^(1/3) = 2: at exactly 2 the signal equals beta * N.
        params = dict(alpha=3.0, beta=2.0, noise=1.0, power=16.0)
        assert _heard(_line_channel([2.0], **params), [1]) == 1
        assert _heard(_line_channel([2.0 * (1 + 1e-12)], **params), [1]) is None

    def test_range_grows_with_power(self):
        params = dict(alpha=3.0, beta=1.5, noise=1.0)
        assert _heard(_line_channel([2.0], power=1.0, **params), [1]) is None
        assert _heard(_line_channel([2.0], power=100.0, **params), [1]) == 1


class TestSingleHop:
    def test_satisfies_single_hop_with_big_power(self):
        params = SINRParameters(power=1e9)
        assert params.satisfies_single_hop(diameter=10.0)

    def test_violates_single_hop_with_small_power(self):
        params = SINRParameters(power=1.0)
        assert not params.satisfies_single_hop(diameter=100.0)

    def test_single_hop_power_meets_margin(self):
        params = SINRParameters()
        power = single_hop_power(params, diameter=50.0)
        assert params.with_power(power).satisfies_single_hop(50.0)

    def test_single_hop_power_uses_paper_margin(self):
        params = SINRParameters(alpha=3.0, beta=1.5, noise=1.0)
        power = single_hop_power(params, diameter=2.0)
        floor = SINGLE_HOP_MARGIN * params.beta * params.noise * 2.0**3
        assert power > floor

    def test_single_hop_power_noiseless_keeps_power(self):
        params = SINRParameters(noise=0.0, power=7.0)
        assert single_hop_power(params, diameter=100.0) == 7.0

    def test_sized_for_returns_new_instance(self):
        params = SINRParameters()
        sized = params.sized_for(diameter=100.0)
        assert sized is not params
        assert sized.satisfies_single_hop(100.0)
        assert params.power == 1.0  # original untouched

    def test_diameter_must_be_positive(self):
        with pytest.raises(ValueError, match="diameter"):
            SINRParameters().satisfies_single_hop(0.0)

    def test_with_power_preserves_other_fields(self):
        params = SINRParameters(alpha=4.0, beta=2.0, noise=0.5)
        changed = params.with_power(42.0)
        assert changed.power == 42.0
        assert changed.alpha == 4.0
        assert changed.beta == 2.0
        assert changed.noise == 0.5
