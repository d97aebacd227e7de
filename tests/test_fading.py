"""Rayleigh fading: the model and the multipliers the channel's decode draws.

:class:`RayleighFading` names the mean of the exponential power
multipliers; :meth:`SINRChannel.decode` draws them for the pairs a round
touches, one listener block at a time. A channel without a model
(``gain_model=None``) is the deterministic path loss and draws nothing.
The last test holds the decode to the draw it replaced, one ``(n, n)``
exponential matrix per round (:func:`dense_faded_decode`, kept here as an
oracle), in distribution.
"""

import numpy as np
import pytest

from repro.deploy.topologies import uniform_disk
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel
from repro.sinr.fading import RayleighFading
from repro.sinr.parameters import SINRParameters

POSITIONS = uniform_disk(20, generator_from(3))
TX = np.array([0, 7, 13])
LISTENERS = np.setdiff1d(np.arange(POSITIONS.shape[0]), TX)
NO_EXTERNAL = np.zeros(LISTENERS.size)


def faded_totals(channel, rng, rounds):
    """``(rounds, |LISTENERS|)`` arriving power, one decode per round."""
    return np.stack(
        [channel.decode(TX, LISTENERS, NO_EXTERNAL, rng)[0] for _ in range(rounds)]
    )


def dense_faded_decode(channel, tx, listeners, rng):
    """Which listeners decode under the old per-round ``(n, n)`` exponential draw."""
    gains = channel.base_gains * rng.exponential(
        scale=channel.gain_model.scale, size=channel.base_gains.shape
    )
    rows = gains[tx][:, listeners]
    totals = rows.sum(axis=0)
    best = rows.max(axis=0)
    params = channel.params
    return best >= params.beta * (params.noise + (totals - best))


class TestDeterministicGain:
    """The default channel: ``gain_model=None``, the paper's path loss."""

    def test_is_deterministic(self):
        channel = SINRChannel(POSITIONS)
        assert channel.gain_model is None
        assert channel.resolve(TX) == channel.resolve(TX)

    def test_round_gains_identity(self):
        channel = SINRChannel(POSITIONS)
        rng = generator_from(4)
        state = rng.bit_generator.state
        totals = channel.decode(TX, LISTENERS, NO_EXTERNAL, rng)[0]
        assert rng.bit_generator.state == state
        expected = channel.gain_rows(TX, LISTENERS).sum(axis=0)
        assert totals.tobytes() == expected.tobytes()

    def test_repr(self):
        assert "gain_model=None" in repr(SINRChannel(POSITIONS))


class TestRayleighFading:
    def test_not_deterministic(self):
        channel = SINRChannel(POSITIONS, gain_model=RayleighFading())
        first = channel.resolve(TX, rng=generator_from(1))
        second = channel.resolve(TX, rng=generator_from(2))
        assert not np.array_equal(first.listener_energy, second.listener_energy)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            RayleighFading(scale=0.0)
        with pytest.raises(ValueError, match="scale"):
            RayleighFading(scale=-1.0)

    def test_gains_are_nonnegative(self, rng):
        channel = SINRChannel(POSITIONS, gain_model=RayleighFading())
        totals = faded_totals(channel, rng, 50)
        assert np.all(np.isfinite(totals)) and np.all(totals >= 0.0)

    def test_base_not_mutated(self, rng):
        channel = SINRChannel(POSITIONS, gain_model=RayleighFading())
        copy = channel.base_gains.copy()
        faded_totals(channel, rng, 5)
        assert np.array_equal(channel.base_gains, copy)

    def test_unit_mean_multiplier(self, rng):
        # E[exponential(1)] = 1, so averaged over many rounds the faded
        # power matches the deterministic power.
        channel = SINRChannel(POSITIONS, gain_model=RayleighFading())
        deterministic = channel.gain_rows(TX, LISTENERS).sum(axis=0)
        ratio = faded_totals(channel, rng, 4_000).mean(axis=0) / deterministic
        assert ratio.mean() == pytest.approx(1.0, rel=0.05)

    def test_scale_shifts_mean(self, rng):
        channel = SINRChannel(POSITIONS, gain_model=RayleighFading(scale=2.0))
        deterministic = channel.gain_rows(TX, LISTENERS).sum(axis=0)
        ratio = faded_totals(channel, rng, 4_000).mean(axis=0) / deterministic
        assert ratio.mean() == pytest.approx(2.0, rel=0.05)

    def test_gains_vary_per_round(self, rng):
        channel = SINRChannel(POSITIONS, gain_model=RayleighFading())
        first, second = faded_totals(channel, rng, 2)
        assert not np.array_equal(first, second)

    def test_zero_base_stays_zero(self, rng):
        # A gain that underflows to 0 stays 0: fading must not create
        # reception out of nothing.
        channel = SINRChannel(
            [(0.0, 0.0), (1e50, 0.0)],
            params=SINRParameters(alpha=6.0, power=1e-30),
            gain_model=RayleighFading(),
            auto_power=False,
        )
        tx, listeners = np.array([0]), np.array([1])
        assert channel.gain_rows(tx, listeners)[0, 0] == 0.0
        totals, _, decoded = channel.decode(tx, listeners, np.zeros(1), rng)
        assert totals[0] == 0.0 and not decoded[0]

    def test_repr_mentions_scale(self):
        assert "scale=1.5" in repr(RayleighFading(scale=1.5))

    def test_decode_rates_match_the_dense_draw(self):
        # Per listener, the fraction of 2,000 rounds it decodes must agree
        # with the old (n, n) draw's within 4 standard errors.
        rounds = 2_000
        channel = SINRChannel(POSITIONS, gain_model=RayleighFading())
        rng, dense_rng = generator_from(61), generator_from(62)
        blocked = np.zeros(LISTENERS.size)
        dense = np.zeros(LISTENERS.size)
        for _ in range(rounds):
            blocked += channel.decode(TX, LISTENERS, NO_EXTERNAL, rng)[2]
            dense += dense_faded_decode(channel, TX, LISTENERS, dense_rng)
        blocked /= rounds
        dense /= rounds
        stderr = np.sqrt((blocked * (1 - blocked) + dense * (1 - dense)) / rounds)
        assert np.all(np.abs(blocked - dense) <= 4 * stderr)
        # Fading decides these rounds: no listener always or never decodes.
        assert np.all((dense > 0.1) & (dense < 0.99))
