"""Array-valued channel reports against frozen dict-building resolvers.

:meth:`SINRChannel.resolve` and :meth:`RadioChannel.resolve` hold a
round's outcome as arrays (transmitter ids, listener ids, the decoded
sender per listener, energy per listener or one observation per round)
and build ``received_from``, ``energy`` and ``observations`` only when
asked. The oracles below are the resolvers that built those mappings
directly, one entry per listener, kept here unchanged, with the
channel's old external-power sum over a listener mask's columns
(:func:`mask_external_interference`). Only their fading draw follows the
channel's: one listener-major ``(|L|, |T|)`` draw after the duty-cycle
coins, where it was one ``(n, n)`` draw before them. On random rounds
the reports' ``transmitters`` and mappings must equal the oracles', the
generator must end in the same state, and bad ids must raise the same
``IndexError``.
"""

from typing import Dict, Optional, Sequence

import numpy as np
import pytest

from repro.radio.channel import ChannelObservation, RadioChannel
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel
from repro.sinr.fading import RayleighFading
from repro.sinr.jamming import ExternalSource, external_gain_matrix
from tests.test_matrix_free import DEPLOYMENTS


def mask_external_interference(
    channel: SINRChannel, listen_mask: np.ndarray, rng: Optional[np.random.Generator]
) -> np.ndarray:
    """Arriving external power per listener, summed over a listener mask's columns."""
    num_listeners = int(listen_mask.sum())
    if not channel.external_sources:
        return np.zeros(num_listeners)
    duty_cycles = np.asarray([s.duty_cycle for s in channel.external_sources])
    if np.all(duty_cycles >= 1.0):
        on_air = np.ones(len(channel.external_sources), dtype=bool)
    else:
        if rng is None:
            raise ValueError("external sources with duty_cycle < 1 require an rng")
        on_air = rng.random(len(channel.external_sources)) < duty_cycles
    if not on_air.any():
        return np.zeros(num_listeners)
    gains = external_gain_matrix(
        channel.external_sources, channel.positions, channel.params.alpha
    )
    return gains[on_air][:, listen_mask].sum(axis=0)


def sinr_oracle(
    channel: SINRChannel,
    transmitters: Sequence[int],
    rng: Optional[np.random.Generator],
    listeners: Optional[Sequence[int]],
):
    """``(transmitters, received_from, energy)`` as the dict-building resolver gave them."""
    tx = np.unique(np.asarray(list(transmitters), dtype=np.intp))
    if tx.size and (tx.min() < 0 or tx.max() >= channel.n):
        raise IndexError("transmitter index out of range")
    if listeners is None:
        listen_mask = np.ones(channel.n, dtype=bool)
    else:
        listen_ids = np.asarray(list(listeners), dtype=np.intp)
        if listen_ids.size and (listen_ids.min() < 0 or listen_ids.max() >= channel.n):
            raise IndexError("listener index out of range")
        listen_mask = np.zeros(channel.n, dtype=bool)
        listen_mask[listen_ids] = True
    listen_mask[tx] = False

    if not listen_mask.any():
        return tuple(int(i) for i in tx), {}, {}
    if tx.size == 0:
        external = mask_external_interference(channel, listen_mask, rng)
        energy = {
            int(node): float(value)
            for node, value in zip(np.flatnonzero(listen_mask), external)
            if value > 0.0
        }
        return (), {}, energy

    listener_ids = np.flatnonzero(listen_mask)
    external = mask_external_interference(channel, listen_mask, rng)
    rows = channel.gain_rows(tx, listener_ids)
    if channel.gain_model is not None:
        if rng is None:
            raise ValueError("a stochastic gain model requires an rng")
        # One listener-major (|L|, |T|) draw, after the duty-cycle coins.
        multipliers = rng.exponential(channel.gain_model.scale, (listener_ids.size, tx.size))
        rows = (rows.T * multipliers).T
    totals = rows.sum(axis=0) + external
    received: Dict[int, int] = {}
    best_rows = rows.argmax(axis=0)
    best = rows[best_rows, np.arange(rows.shape[1])]
    interference = totals - best
    ok = best >= channel.params.beta * (channel.params.noise + interference)
    for col in np.flatnonzero(ok):
        received[int(listener_ids[col])] = int(tx[best_rows[col]])
    energy = {
        int(listener_ids[col]): float(totals[col]) for col in range(listener_ids.size)
    }
    return tuple(int(i) for i in tx), received, energy


def radio_oracle(
    channel: RadioChannel,
    transmitters: Sequence[int],
    listeners: Optional[Sequence[int]],
):
    """``(transmitters, received_from, observations)`` as the dict-building resolver gave them."""
    tx = sorted(set(int(i) for i in transmitters))
    if tx and (tx[0] < 0 or tx[-1] >= channel.n):
        raise IndexError("transmitter index out of range")
    tx_set = set(tx)
    if listeners is None:
        listen_ids = [i for i in range(channel.n) if i not in tx_set]
    else:
        requested = [int(i) for i in listeners]
        if requested and (min(requested) < 0 or max(requested) >= channel.n):
            raise IndexError("listener index out of range")
        listen_ids = [i for i in requested if i not in tx_set]

    received: Dict[int, int] = {}
    observations: Dict[int, ChannelObservation] = {}
    if len(tx) == 1:
        sender = tx[0]
        for listener in listen_ids:
            received[listener] = sender
            observations[listener] = ChannelObservation.MESSAGE
    elif len(tx) == 0:
        for listener in listen_ids:
            observations[listener] = ChannelObservation.SILENCE
    else:
        collided = (
            ChannelObservation.COLLISION
            if channel.collision_detection
            else ChannelObservation.SILENCE
        )
        for listener in listen_ids:
            observations[listener] = collided
    return tuple(tx), received, observations


def _jammed(positions, duty_cycle, gain_model=None):
    base = SINRChannel(positions)
    centre = positions.mean(axis=0) + 0.1 * (positions.max(axis=0) - positions.min(axis=0))
    jammer = ExternalSource(
        position=(float(centre[0]), float(centre[1])),
        power=0.05 * base.params.power,
        duty_cycle=duty_cycle,
    )
    return SINRChannel(positions, gain_model=gain_model, external_sources=[jammer])


SINR_CHANNELS = {
    "plain": SINRChannel,
    "rayleigh": lambda positions: SINRChannel(positions, gain_model=RayleighFading()),
    "continuous_jammer": lambda positions: _jammed(positions, 1.0),
    "duty_cycled_jammer": lambda positions: _jammed(positions, 0.5),
}


def _rounds(n, seed, count=24):
    """``(transmitters, listeners)`` pairs: empty, solo, small and large sets.

    Every 12 rounds cover each pairing of a transmitter-set size with a
    listener kind.
    """
    rng = generator_from(seed)
    for index in range(count):
        size = (0, 1, 2, int(rng.integers(1, n + 1)))[index % 4]
        tx = rng.choice(n, size=size, replace=False)
        kind = index % 6
        if kind == 0:
            listeners = None
        elif kind == 1:
            # Every non-transmitter, in id order: what the engine passes.
            listeners = np.setdiff1d(np.arange(n), tx)
        elif kind == 2:
            listeners = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        elif kind == 3:
            listeners = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))  # repeats
        elif kind == 4:
            listeners = []
        else:
            listeners = tx[:1]  # only a transmitter
        yield tx, listeners


def _as_given(values, as_array):
    """The ids as the engine passes them (an array) or as a plain list."""
    if values is None or as_array:
        return values
    return [int(i) for i in values]


class TestSINRReports:
    @pytest.mark.parametrize("channel", sorted(SINR_CHANNELS))
    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_reports_equal_the_oracle(self, deployment, channel):
        positions = DEPLOYMENTS[deployment]
        built = SINR_CHANNELS[channel](positions)
        n = built.n
        heard = energised = tx_free_energy = 0
        for index, (tx, listeners) in enumerate(_rounds(n, seed=len(deployment))):
            as_array = index < 12
            rng, oracle_rng = generator_from(index), generator_from(index)
            report = built.resolve(
                _as_given(tx, as_array), rng=rng, listeners=_as_given(listeners, as_array)
            )
            transmitters, received, energy = sinr_oracle(built, tx, oracle_rng, listeners)
            assert report.transmitters == transmitters
            assert report.received_from == received
            assert report.energy == energy
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            heard += len(received)
            energised += len(energy)
            tx_free_energy += len(energy) if not transmitters else 0
        assert heard > 0 and energised > 0
        if "jammer" in channel:
            assert tx_free_energy > 0

    def test_tx_free_rounds_with_the_jammer_off_sense_nothing(self):
        channel = _jammed(DEPLOYMENTS["uniform_disk"], 0.5)
        seen = set()
        for seed in range(12):
            rng, oracle_rng = generator_from(seed), generator_from(seed)
            report = channel.resolve([], rng=rng)
            expected = sinr_oracle(channel, [], oracle_rng, None)
            assert (report.transmitters, report.received_from, report.energy) == expected
            seen.add(bool(report.energy))
        assert seen == {True, False}  # the jammer was on in some rounds only

    @pytest.mark.parametrize(
        "tx,listeners",
        [([-1], None), ([300], None), ([0, 300], None), ([0], [-1]), ([0], [300]),
         ([0], [1, -5]), ([-1], [300])],
    )
    def test_bad_ids_raise_the_oracles_error(self, tx, listeners):
        channel = SINRChannel(DEPLOYMENTS["uniform_disk"])
        with pytest.raises(IndexError) as expected:
            sinr_oracle(channel, tx, None, listeners)
        for as_array in (False, True):
            given_tx = np.asarray(tx, dtype=np.intp) if as_array else tx
            given_listeners = (
                np.asarray(listeners, dtype=np.intp)
                if as_array and listeners is not None
                else listeners
            )
            with pytest.raises(IndexError) as raised:
                channel.resolve(given_tx, listeners=given_listeners)
            assert str(raised.value) == str(expected.value)


class TestRadioReports:
    @pytest.mark.parametrize("collision_detection", [False, True])
    def test_reports_equal_the_oracle(self, collision_detection):
        n = 50
        channel = RadioChannel(n, collision_detection=collision_detection)
        observed = set()
        for index, (tx, listeners) in enumerate(_rounds(n, seed=5, count=120)):
            as_array = index < 60
            report = channel.resolve(
                _as_given(tx, as_array), listeners=_as_given(listeners, as_array)
            )
            transmitters, received, observations = radio_oracle(channel, tx, listeners)
            assert report.transmitters == transmitters
            assert report.received_from == received
            assert report.observations == observations
            observed.update(observations.values())
        expected = {ChannelObservation.SILENCE, ChannelObservation.MESSAGE}
        if collision_detection:
            expected.add(ChannelObservation.COLLISION)
        assert observed == expected

    @pytest.mark.parametrize(
        "tx,listeners",
        [([-1], None), ([8], None), ([0, 8], None), ([0], [-1]), ([0], [8]),
         ([0], [1, -5]), ([-1], [8])],
    )
    def test_bad_ids_raise_the_oracles_error(self, tx, listeners):
        channel = RadioChannel(8)
        with pytest.raises(IndexError) as expected:
            radio_oracle(channel, tx, listeners)
        for as_array in (False, True):
            given_tx = np.asarray(tx, dtype=np.intp) if as_array else tx
            given_listeners = (
                np.asarray(listeners, dtype=np.intp)
                if as_array and listeners is not None
                else listeners
            )
            with pytest.raises(IndexError) as raised:
                channel.resolve(given_tx, listeners=given_listeners)
            assert str(raised.value) == str(expected.value)
