"""The blocked decode against a frozen copy of the dense decode it replaced.

:meth:`SINRChannel.decode` walks a round's listeners in blocks of about
``_DECODE_BLOCK_CELLS`` gains, and both :meth:`SINRChannel.resolve` and
the fast path decode through it. The oracle below is the decode that
held the round's whole ``|T| x |L|`` gain array, kept unchanged: the old
``gain_rows``, a column sum, the argmax, the decision and the SINR probe
on full rows. A faded round's oracle multiplies those rows by one
listener-major ``(|L|, |T|)`` exponential draw. On random rounds, at
block budgets of 1, 7 and 1000 cells and the default, totals, energy,
decoded senders and every SINR-probe array must have the oracle's bits.
Three tracemalloc checks bound what one large round may allocate.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.deploy import topologies
from repro.obs.probe import ProbeBus, ProbeRecorder, set_probe_bus
from repro.radio.channel import RadioChannel
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from
from repro.sinr import channel as sinr_channel
from repro.sinr.channel import SINRChannel
from repro.sinr.fading import RayleighFading
from tests.test_matrix_free import DEPLOYMENTS
from tests.test_report_oracles import _jammed, mask_external_interference, radio_oracle

BLOCK_CELLS = [1, 7, 1000, sinr_channel._DECODE_BLOCK_CELLS]


def dense_gain_rows(channel, tx, listeners):
    """``SINRChannel.gain_rows`` before the blocked decode, kept verbatim."""
    if "_gain_matrix" in channel.__dict__:
        return np.asfortranarray(np.take(channel._gain_matrix[tx], listeners, axis=1))
    # cross_distances(positions[listeners], positions[tx]).T, inlined.
    sources, targets = channel.positions[listeners], channel.positions[tx]
    target_x, target_y = np.ascontiguousarray(targets.T)
    dx = sources[:, 0, None] - target_x
    dy = sources[:, 1, None] - target_y
    dx *= dx
    dy *= dy
    dx += dy
    distances = np.sqrt(dx, out=dx).T
    gains = np.power(distances, channel.params.alpha, out=distances)
    with np.errstate(divide="ignore"):
        return np.divide(channel.params.power, gains, out=gains)


def dense_sinr_probe(tx, listeners, rows, best_rows, external, delivered, noise):
    """``publish_sinr``'s arrays on the full rows, kept verbatim; overwrites ``rows``."""
    cols = np.arange(listeners.size)
    best = rows[best_rows, cols]
    rows[best_rows, cols] = 0.0
    interference = rows.sum(axis=0) + external
    denom = noise + interference
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom > 0.0, best / denom, np.inf)
    if tx.size > 1:
        rows[best_rows, cols] = -np.inf
        second_rows = rows.argmax(axis=0)
        second = rows[second_rows, cols]
        top_ids = tx[second_rows].astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            top_frac = np.where(interference > 0.0, second / interference, 0.0)
    else:
        top_ids = np.full(listeners.size, -1, dtype=np.int64)
        top_frac = np.zeros(listeners.size)
    return {
        "receivers": listeners.astype(np.int64),
        "sinr": sinr,
        "delivered": delivered,
        "top_interferer": top_ids,
        "top_fraction": top_frac,
    }


def dense_decode(channel, tx, listeners, external, rng=None):
    """``(totals, best_rows, decoded, probe arrays)`` as the dense decode gave them.

    On a fading channel the gains are first multiplied by one
    listener-major ``(|L|, |T|)`` exponential draw from ``rng``.
    """
    rows = dense_gain_rows(channel, tx, listeners)
    if channel.gain_model is not None:
        multipliers = rng.exponential(channel.gain_model.scale, (listeners.size, tx.size))
        rows = (rows.T * multipliers).T
    totals = rows.sum(axis=0) + external
    best_rows = rows.argmax(axis=0)
    best = rows[best_rows, np.arange(rows.shape[1])]
    interference = totals - best
    params = channel.params
    decoded = best >= params.beta * (params.noise + interference)
    probe = dense_sinr_probe(tx, listeners, rows, best_rows, external, decoded, params.noise)
    return totals, best_rows, decoded, probe


class _SINRSink:
    def __init__(self) -> None:
        self.probes = []

    def on_sinr(self, probe) -> None:
        self.probes.append(probe)


@contextmanager
def probing():
    """An enabled probe bus for the block, yielding the SINR probes it saw."""
    bus = ProbeBus(enabled=True)
    sink = _SINRSink()
    bus.subscribe(sink)
    previous = set_probe_bus(bus)
    try:
        yield sink.probes
    finally:
        set_probe_bus(previous)


def assert_same_bits(found, expected):
    found, expected = np.asarray(found), np.asarray(expected)
    assert found.dtype == expected.dtype and found.shape == expected.shape
    assert found.tobytes() == expected.tobytes()


def assert_probe_equals(probe, expected, beta):
    assert probe.beta == beta
    for name, array in expected.items():
        assert_same_bits(getattr(probe, name), array)


def random_rounds(n, seed, count=6):
    """Sorted, disjoint ``(tx, listeners)``: solo, pair and random rounds.

    Every other round keeps a random half of the listeners.
    """
    rng = generator_from(seed)
    for index in range(count):
        size = (1, 2, int(rng.integers(1, n)))[index % 3]
        tx = np.sort(rng.choice(n, size=size, replace=False))
        listeners = np.setdiff1d(np.arange(n), tx)
        if index % 2:
            keep = rng.random(listeners.size) < 0.5
            keep[0] = True
            listeners = listeners[keep]
        yield tx, listeners


class TestDecodeEqualsTheDenseDecode:
    @pytest.mark.parametrize("block_cells", BLOCK_CELLS)
    @pytest.mark.parametrize("built", [False, True], ids=["computed", "gathered"])
    @pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
    def test_random_rounds(self, monkeypatch, name, built, block_cells):
        monkeypatch.setattr(sinr_channel, "_DECODE_BLOCK_CELLS", block_cells)
        channel = SINRChannel(DEPLOYMENTS[name])
        if built:
            channel.base_gains
        beta = channel.params.beta
        for tx, listeners in random_rounds(channel.n, seed=len(name)):
            external = np.zeros(listeners.size)
            with probing() as probes:
                totals, best, decoded = channel.decode(tx, listeners, external)
            dense_totals, dense_best, dense_decoded, dense_probe = dense_decode(
                channel, tx, listeners, external
            )
            assert_same_bits(totals, dense_totals)
            assert_same_bits(best, dense_best)
            assert_same_bits(decoded, dense_decoded)
            assert len(probes) == 1
            assert_probe_equals(probes[0], dense_probe, beta)
        assert ("_gain_matrix" in vars(channel)) == built

    @pytest.mark.parametrize("block_cells", [1, 1000])
    @pytest.mark.parametrize("built", [False, True], ids=["computed", "gathered"])
    def test_more_transmitters_than_the_block_budget(self, monkeypatch, built, block_cells):
        monkeypatch.setattr(sinr_channel, "_DECODE_BLOCK_CELLS", block_cells)
        channel = SINRChannel(topologies.uniform_disk(1200, generator_from(21)))
        if built:
            channel.base_gains
        rng = generator_from(22)
        tx = np.sort(rng.choice(channel.n, size=1100, replace=False))
        listeners = np.setdiff1d(np.arange(channel.n), tx)
        external = np.zeros(listeners.size)
        with probing() as probes:
            totals, best, decoded = channel.decode(tx, listeners, external)
        dense_totals, dense_best, dense_decoded, dense_probe = dense_decode(
            channel, tx, listeners, external
        )
        assert_same_bits(totals, dense_totals)
        assert_same_bits(best, dense_best)
        assert_same_bits(decoded, dense_decoded)
        assert_probe_equals(probes[0], dense_probe, channel.params.beta)


    @pytest.mark.parametrize("built", [False, True], ids=["computed", "gathered"])
    def test_gain_rows_take_ids_in_any_order(self, built):
        # A gathered block copies the strip of G[tx] between its lowest and
        # highest listener, so unsorted ids must not shift the strip.
        channel = SINRChannel(DEPLOYMENTS["uniform_square"])
        if built:
            channel.base_gains
        rng = generator_from(13)
        for _ in range(6):
            order = rng.permutation(channel.n)
            tx, listeners = order[:40], order[40 : 40 + int(rng.integers(1, 200))]
            assert_same_bits(
                channel.gain_rows(tx, listeners), dense_gain_rows(channel, tx, listeners)
            )


def dense_resolve(channel, tx, listeners, rng):
    """``resolve`` on the whole round at once: decoded senders, energy, probe."""
    listen_mask = np.zeros(channel.n, dtype=bool)
    listen_mask[listeners] = True
    # The duty-cycle coins come first, then any fading draw.
    external = mask_external_interference(channel, listen_mask, rng)
    totals, best_rows, decoded, probe = dense_decode(channel, tx, listeners, external, rng)
    return np.where(decoded, tx[best_rows], -1), totals, probe


class TestResolveEqualsTheDenseResolve:
    @pytest.mark.parametrize("block_cells", BLOCK_CELLS)
    @pytest.mark.parametrize(
        "kind", ["plain", "continuous_jammer", "duty_cycled_jammer"]
    )
    def test_reports_and_probes(self, monkeypatch, kind, block_cells):
        monkeypatch.setattr(sinr_channel, "_DECODE_BLOCK_CELLS", block_cells)
        positions = DEPLOYMENTS["clustered"]
        channel = {
            "plain": SINRChannel,
            "continuous_jammer": lambda p: _jammed(p, 1.0),
            "duty_cycled_jammer": lambda p: _jammed(p, 0.5),
        }[kind](positions)
        for index, (tx, listeners) in enumerate(random_rounds(channel.n, seed=3, count=8)):
            rng, oracle_rng = generator_from(index), generator_from(index)
            with probing() as probes:
                report = channel.resolve(tx, rng=rng, listeners=listeners)
            senders, energy, probe = dense_resolve(channel, tx, listeners, oracle_rng)
            assert_same_bits(report.listener_ids, listeners)
            assert_same_bits(report.decoded, senders)
            assert_same_bits(report.listener_energy, energy)
            assert_probe_equals(probes[0], probe, channel.params.beta)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("block_cells", BLOCK_CELLS)
    @pytest.mark.parametrize("built", [False, True], ids=["computed", "gathered"])
    @pytest.mark.parametrize("kind", ["rayleigh", "duty_cycled_jammer"])
    def test_fading_rounds_equal_the_dense_oracle(self, monkeypatch, kind, built, block_cells):
        monkeypatch.setattr(sinr_channel, "_DECODE_BLOCK_CELLS", block_cells)
        positions = DEPLOYMENTS["grid"]
        fading = RayleighFading(scale=1.5)
        if kind == "rayleigh":
            channel = SINRChannel(positions, gain_model=fading)
        else:
            channel = _jammed(positions, 0.5, gain_model=fading)
        if built:
            channel.base_gains
        for index, (tx, listeners) in enumerate(random_rounds(channel.n, seed=4)):
            rng, oracle_rng = generator_from(index), generator_from(index)
            with probing() as probes:
                report = channel.resolve(tx, rng=rng, listeners=listeners)
            senders, energy, probe = dense_resolve(channel, tx, listeners, oracle_rng)
            assert_same_bits(report.decoded, senders)
            assert_same_bits(report.listener_energy, energy)
            assert_probe_equals(probes[0], probe, channel.params.beta)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert ("_gain_matrix" in vars(channel)) == built

    def test_radio_rounds_do_not_decode_through_the_blocks(self, monkeypatch):
        monkeypatch.setattr(sinr_channel, "_DECODE_BLOCK_CELLS", 1)

        def refuse(*args):
            raise AssertionError("a radio round reached the SINR decode")

        monkeypatch.setattr(SINRChannel, "decode", refuse)
        for collision_detection in (False, True):
            channel = RadioChannel(40, collision_detection=collision_detection)
            for tx, listeners in random_rounds(channel.n, seed=6):
                report = channel.resolve(tx, listeners=listeners)
                expected = radio_oracle(channel, tx, listeners)
                assert (report.transmitters, report.received_from, report.observations) == expected


def _fast_run(channel, seed):
    """One probed fast-path run: its result fields and the recorder's snapshot."""
    bus = ProbeBus(enabled=True)
    recorder = ProbeRecorder()
    bus.subscribe(recorder)
    previous = set_probe_bus(bus)
    try:
        result = fast_fixed_probability_run(channel, 0.1, generator_from(seed))
    finally:
        set_probe_bus(previous)
    return result, recorder.snapshot()


class TestFastPathDoesNotDependOnTheBlock:
    @pytest.mark.parametrize("built", [False, True], ids=["computed", "gathered"])
    @pytest.mark.parametrize(
        "name", ["uniform_disk", "exponential_chain", "jammed", "rayleigh"]
    )
    def test_results_and_probes_equal_the_default_block(self, monkeypatch, name, built):
        if name == "jammed":
            channel = _jammed(DEPLOYMENTS["uniform_square"], 1.0)
        elif name == "rayleigh":
            channel = SINRChannel(DEPLOYMENTS["clustered"], gain_model=RayleighFading())
        else:
            channel = SINRChannel(DEPLOYMENTS[name])
        if built:
            channel.base_gains
        for seed in range(3):
            default = _fast_run(channel, seed)
            with monkeypatch.context() as patched:
                patched.setattr(sinr_channel, "_DECODE_BLOCK_CELLS", 7)
                tiny = _fast_run(channel, seed)
            assert tiny[0] == default[0]
            assert sorted(tiny[1]) == sorted(default[1])
            for column, array in default[1].items():
                assert_same_bits(tiny[1][column], array)
            assert default[1]["sinr_value"].size > 0


@pytest.fixture(scope="module")
def disk_8192():
    return topologies.uniform_disk(8192, generator_from(8192))


def peak_traced_bytes(run) -> int:
    """Peak bytes tracemalloc sees allocated while ``run()`` runs (numpy buffers included)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


#: A round's own buffers take 2 x 256 KiB; everything else is O(n).
_ROUND_MEMORY_BOUND = 4 << 20


class TestRoundMemory:
    """One large round must not hold its ``|T| x |L|`` gains (48 MiB here)."""

    def test_fast_path_trial_on_a_fresh_channel(self, disk_8192):
        channel = SINRChannel(disk_8192)
        peak = peak_traced_bytes(
            lambda: fast_fixed_probability_run(channel, 0.1, generator_from(1))
        )
        assert peak < _ROUND_MEMORY_BOUND
        assert "_gain_matrix" not in vars(channel)

    def test_faded_fast_path_trial_on_a_fresh_channel(self, disk_8192):
        channel = SINRChannel(disk_8192, gain_model=RayleighFading())
        peak = peak_traced_bytes(
            lambda: fast_fixed_probability_run(channel, 0.1, generator_from(1))
        )
        assert peak < _ROUND_MEMORY_BOUND
        assert "_gain_matrix" not in vars(channel)

    def test_resolve_with_probes_on(self, disk_8192):
        channel = SINRChannel(disk_8192)
        tx = np.arange(819) * 10
        with probing() as probes:
            peak = peak_traced_bytes(lambda: channel.resolve(tx))
        assert peak < _ROUND_MEMORY_BOUND
        assert probes[0].receivers.size == channel.n - tx.size
