"""The blocked decode against a frozen copy of the dense decode it replaced.

:meth:`SINRChannel.decode` walks a round's listeners in blocks of about
``_DECODE_BLOCK_CELLS`` gains, and both :meth:`SINRChannel.resolve` and
the fast path decode through it. The oracle below is the decode that
held the round's whole ``|T| x |L|`` gain array: the old ``gain_rows``, a
column sum, the argmax, the decision and the SINR probe on full rows,
kept unchanged but for the overflow rule, which its ``inf - inf`` broke. A faded round's oracle multiplies those rows by one
listener-major ``(|L|, |T|)`` exponential draw. On random rounds, at
block budgets of 1, 7 and 1000 cells and the default, totals, energy,
decoded senders and every SINR-probe array must have the oracle's bits.
Three tracemalloc checks bound what one large round may allocate.

:meth:`SINRChannel.decide`, the decisions-only decode of unprobed
fast-path rounds, screens listeners with float32 gains built without
``pow`` from squared distances of one small float64 matrix product,
refills the unsure ones exactly, and leaves channels and blocks outside
its window (gains past the float32 range or the ceiling, cancellation
past the bound) to the exact fill; its decisions, and the draws it
makes, must equal the oracle's too, on every deployment, channel kind
and block budget, with the margin at its value or at infinity, and
listeners brought within the margin of the threshold must be refilled.
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
from repro.sinr.parameters import SINRParameters
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
    # Pairs too close for the float range overflow to inf, and inf - inf
    # is NaN: the oracle expects both.
    with np.errstate(over="ignore", invalid="ignore"):
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
    # The overflow rule (docs/model.md), which the NaN of inf - inf hid
    # from the dense decode: a lone infinite gain decodes; a second one, or
    # infinite external power, blocks it.
    overflowed = np.isinf(best)
    decoded[overflowed] = (np.isinf(rows[:, overflowed]).sum(axis=0) == 1) & np.isfinite(
        external[overflowed]
    )
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


def _scaled_with_partners(scale, gap, count=150, partners=12):
    """A uniform disk scaled by ``scale``; its first points gain a partner ``gap * scale`` away."""
    base = scale * topologies.uniform_disk(count, generator_from(31))
    angles = 2 * np.pi * generator_from(32).random(partners)
    offsets = gap * scale * np.column_stack([np.cos(angles), np.sin(angles)])
    return np.concatenate([base, base[:partners] + offsets])


def _translated(positions, offset, keep_origin):
    """``positions`` moved by ``offset`` along both axes; with ``keep_origin``, a node stays at 0."""
    moved = positions + offset
    return np.concatenate([[[0.0, 0.0]], moved]) if keep_origin else moved


#: Deployments for the screen: the library's own, an exponential chain
#: spanning over 2^60, near-co-located pairs at unit scale, pairs too close
#: for the screen at a tiny scale, a scale near the screen's ceiling, and a
#: disk translated by 2^20 and 2^40: on its own, and with a node left at
#: the origin, so that its pairs lie far from the centre compared with
#: their distance.
SCREEN_DEPLOYMENTS = {
    "uniform_disk": DEPLOYMENTS["uniform_disk"],
    "clustered": DEPLOYMENTS["clustered"],
    "exponential_chain": DEPLOYMENTS["exponential_chain"],
    "long_chain": topologies.exponential_chain(62, 2),
    "near_colocated": _scaled_with_partners(1.0, 1e-9),
    "tiny_scale": _scaled_with_partners(1e-100, 1e-4),
    "huge_scale": _scaled_with_partners(1e90, 1e-3),
    **{
        f"{kind}_2_{power}": _translated(
            DEPLOYMENTS["uniform_disk"], 2.0**power, kind == "spanning"
        )
        for kind in ("translated", "spanning")
        for power in (20, 40)
    },
}

#: The deployments whose gains lie outside the float32 window: every
#: block takes the exact fill.
OUTSIDE = {"tiny_scale"}

#: The deployments some of whose blocks the screen declines: pairs below
#: the floor, or cancellation past the bound, in every block size's rounds.
DECLINING = {
    "exponential_chain",
    "long_chain",
    "near_colocated",
    "tiny_scale",
    "spanning_2_20",
    "spanning_2_40",
}

SCREEN_CHANNELS = {
    "plain": SINRChannel,
    "rayleigh": lambda positions: SINRChannel(positions, gain_model=RayleighFading(1.5)),
    "continuous_jammer": lambda positions: _jammed(positions, 1.0),
    "duty_cycled_jammer": lambda positions: _jammed(positions, 0.5),
}


@contextmanager
def screen_spy(monkeypatch):
    """Count what :meth:`SINRChannel.decide` screens, declines and refills.

    ``screened`` and ``declined`` count the rows of blocks the screen
    filled, and of blocks it left to the exact fill; ``refilled`` lists
    the listeners refilled exactly after screening.
    """
    seen = {"screened": 0, "declined": 0, "refilled": []}
    gain_filler, screen_filler = SINRChannel._gain_filler, SINRChannel._screen_filler

    def counted_gain_filler(self, tx):
        fill = gain_filler(self, tx)

        def counted(listeners, out, work):
            seen["refilled"].extend(listeners.tolist())
            return fill(listeners, out, work)

        return counted

    def counted_screen_filler(self, tx):
        screen = screen_filler(self, tx)

        def counted(listeners, out, work):
            refilled = len(seen["refilled"])
            rows, spread = screen(listeners, out, work)
            if spread is None:
                # The block's exact fill is no refill.
                del seen["refilled"][refilled:]
                seen["declined"] += listeners.size
            else:
                seen["screened"] += listeners.size
            return rows, spread

        return counted

    monkeypatch.setattr(SINRChannel, "_gain_filler", counted_gain_filler)
    monkeypatch.setattr(SINRChannel, "_screen_filler", counted_screen_filler)
    yield seen


def assert_receivers_equal_the_dense_resolve(channel, rounds):
    for index, (tx, listeners) in enumerate(rounds):
        rng, oracle_rng = generator_from(index), generator_from(index)
        receivers = channel._receiver_ids(tx, listeners, rng)
        senders, _, _ = dense_resolve(channel, tx, listeners, oracle_rng)
        assert_same_bits(receivers, listeners[senders >= 0])
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestScreenedDecisionsEqualTheDenseDecode:
    @pytest.mark.parametrize("block_cells", BLOCK_CELLS)
    @pytest.mark.parametrize("kind", sorted(SCREEN_CHANNELS))
    @pytest.mark.parametrize("name", sorted(SCREEN_DEPLOYMENTS))
    def test_random_rounds(self, monkeypatch, name, kind, block_cells):
        monkeypatch.setattr(sinr_channel, "_DECODE_BLOCK_CELLS", block_cells)
        channel = SCREEN_CHANNELS[kind](SCREEN_DEPLOYMENTS[name])
        assert (channel._screen_window is None) == (name in OUTSIDE)
        rounds = list(random_rounds(channel.n, seed=len(name) + len(kind), count=8))
        with screen_spy(monkeypatch) as seen:
            assert_receivers_equal_the_dense_resolve(channel, rounds)
        assert seen["screened"] + seen["declined"] == sum(ids.size for _, ids in rounds)
        assert (seen["declined"] > 0) == (name in DECLINING)
        assert "_gain_matrix" not in vars(channel)

    def test_tiny_scale_pairs_take_the_exact_gains(self, monkeypatch):
        # At power 1, pairs 1e-100 apart have gains near 1e300, past the
        # float32 range: every block of the channel is filled exactly.
        monkeypatch.setattr(sinr_channel, "_DECODE_BLOCK_CELLS", 8)
        channel = SINRChannel(SCREEN_DEPLOYMENTS["tiny_scale"])
        assert channel._screen_window is None
        listeners = np.setdiff1d(np.arange(channel.n), [0, 1])
        with screen_spy(monkeypatch) as seen:
            assert_receivers_equal_the_dense_resolve(channel, [(np.array([0, 1]), listeners)])
        assert (seen["screened"], seen["declined"]) == (0, listeners.size)

    @pytest.mark.parametrize("over", [False, True])
    def test_a_pair_at_the_ceiling(self, monkeypatch, over):
        # A 5 x 5 unit grid whose first node has a partner 2^-4 away, with
        # the power that puts their gain a 2^-10 under or over the
        # ceiling 2^120 / n: only over it does their block decline.
        grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
        positions = np.concatenate([grid, [[2.0**-4, 0.0]]])
        gain = 2.0**120 / positions.shape[0] * (1 + (2.0**-10 if over else -(2.0**-10)))
        params = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, power=gain * 2.0**-12)
        channel = SINRChannel(positions, params=params, auto_power=False)
        tx, listeners = np.array([25]), np.arange(25)
        with screen_spy(monkeypatch) as seen:
            assert_receivers_equal_the_dense_resolve(channel, [(tx, listeners)])
        expected = (0, 25) if over else (25, 0)
        assert (seen["screened"], seen["declined"]) == expected

    @pytest.mark.parametrize("kind", sorted(SCREEN_CHANNELS))
    @pytest.mark.parametrize("name", ["uniform_disk", "exponential_chain", "near_colocated"])
    def test_an_infinite_margin_refills_every_screened_row(self, monkeypatch, name, kind):
        monkeypatch.setattr(sinr_channel, "_MARGIN_UNIT", np.inf)
        monkeypatch.setattr(sinr_channel, "_DECODE_BLOCK_CELLS", 1000)
        channel = SCREEN_CHANNELS[kind](SCREEN_DEPLOYMENTS[name])
        with screen_spy(monkeypatch) as seen:
            assert_receivers_equal_the_dense_resolve(channel, random_rounds(channel.n, seed=9))
        assert seen["screened"] > 0
        assert len(seen["refilled"]) == seen["screened"]

    @pytest.mark.parametrize("alpha", [2.2, 2.5, 3.5, 4.0, 4.5, 6.0])
    def test_other_alphas(self, monkeypatch, alpha):
        channel = SINRChannel(DEPLOYMENTS["uniform_disk"], params=SINRParameters(alpha=alpha))
        with screen_spy(monkeypatch) as seen:
            assert_receivers_equal_the_dense_resolve(channel, random_rounds(channel.n, seed=2))
        # Only half-integer and integer exponents are screened.
        assert (seen["screened"] > 0) == float(2 * alpha).is_integer()

    def test_built_channels_are_screened_and_noiseless_ones_are_not(self, monkeypatch):
        # The screen replaces the gather too; the refill still gathers.
        built = SINRChannel(DEPLOYMENTS["clustered"])
        built.base_gains
        noiseless = SINRChannel(DEPLOYMENTS["clustered"], params=SINRParameters(noise=0.0))
        assert noiseless._screen_window is None
        for channel in (built, noiseless):
            rounds = list(random_rounds(channel.n, seed=5))
            with screen_spy(monkeypatch) as seen:
                assert_receivers_equal_the_dense_resolve(channel, rounds)
            decisions = sum(ids.size for _, ids in rounds)
            expected = (decisions, 0) if channel is built else (0, decisions)
            assert (seen["screened"], seen["declined"]) == expected
            assert seen["refilled"] == []

    def test_rounds_without_transmitters_or_listeners_draw_as_resolve_does(self):
        channel = _jammed(DEPLOYMENTS["clustered"], 0.5, gain_model=RayleighFading())
        everyone = np.arange(channel.n)
        for tx, listeners in [(everyone[:0], everyone), (everyone, everyone[:0])]:
            rng, oracle_rng = generator_from(1), generator_from(1)
            receivers = channel._receiver_ids(tx, listeners, rng)
            report = channel._resolve_ids(tx, listeners, oracle_rng)
            assert_same_bits(receivers, report.listener_ids[report.decoded >= 0])
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _threshold_gap(channel, tx, listeners):
    """``(s - r, s + r)`` per listener from the exact gains, ``r = beta * (N + T - s)``."""
    rows = dense_gain_rows(channel, tx, listeners)
    strongest, totals = rows.max(axis=0), rows.sum(axis=0)
    params = channel.params
    threshold = params.beta * (params.noise + (totals - strongest))
    return strongest - threshold, strongest + threshold


def _bisect_to_the_threshold(make_channel, tx, listeners, deaf, hears, tolerance):
    """Narrow ``(deaf, hears)`` round the point where ``listeners[0]`` starts to decode.

    ``make_channel(x)`` builds the channel at parameter ``x``; at ``deaf``
    the listener's exact decision is no, at ``hears`` yes. Both ends move
    in until each lies within ``tolerance * (s + r)`` of the threshold or
    they are adjacent floats.
    """

    def gap(x):
        difference, scale = _threshold_gap(make_channel(x), tx, listeners)
        return difference[0] / scale[0]

    assert gap(deaf) < 0 <= gap(hears)
    while max(-gap(deaf), gap(hears)) > tolerance:
        middle = (deaf + hears) / 2
        if middle in (deaf, hears):
            break
        if gap(middle) < 0:
            deaf = middle
        else:
            hears = middle
    return deaf, hears


#: A listener's gains (alpha = 3) on a ring round it: from one transmitter
#: 2^-4 off centre at distance x, and from 3000 evenly spaced at radius 30.
def _ring_channel(x):
    angles = np.linspace(0.0, 2 * np.pi, 3000, endpoint=False)
    ring = 30.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    positions = np.concatenate([[[0.0, 0.0], [x, 2.0**-4]], ring])
    return SINRChannel(positions, params=TestUnsureRows.PARAMS, auto_power=False)


class TestUnsureRows:
    PARAMS = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, power=10.0)

    def _channel(self, x):
        # Listener 0 hears transmitter 1 at distance 1 against transmitter
        # 2 at distance x along the same line.
        positions = [(0.0, 0.0), (1.0, 0.0), (x, 0.0)]
        return SINRChannel(positions, params=self.PARAMS, auto_power=False)

    def _assert_refilled_either_side(self, monkeypatch, tolerance):
        tx, listeners = np.array([1, 2]), np.array([0])
        bracket = _bisect_to_the_threshold(self._channel, tx, listeners, 1.05, 1.5, tolerance)
        for x, decodes in zip(bracket, (False, True)):
            channel = self._channel(x)
            gap, scale = _threshold_gap(channel, tx, listeners)
            assert abs(gap[0]) <= max(tolerance, 1e-13) * scale[0]
            with screen_spy(monkeypatch) as seen:
                decoded = channel.decide(tx, listeners, np.zeros(1))
            assert seen["screened"] == 1 and seen["refilled"] == [0]
            assert decoded.tolist() == [decodes]

    def test_a_listener_at_the_threshold_is_refilled(self, monkeypatch):
        # Bisected to the last bit: the screen cannot tell the two apart.
        self._assert_refilled_either_side(monkeypatch, 0.0)

    def test_a_listener_within_the_float32_margin_is_refilled(self, monkeypatch):
        # Within 2^-20 of s + r: inside the float32 margin, (2 + 3 + 16) *
        # 2^-21 * (1 + beta) = 2.5e-5 here, but outside a margin of float64
        # units.
        self._assert_refilled_either_side(monkeypatch, 2.0**-20)

    def test_a_listener_within_the_margins_sum_term_is_refilled(self, monkeypatch):
        # With 3001 transmitters the margin's |tx| term is (3001 + 3 + 16)
        # * 2^-21 * (1 + beta) = 3.6e-3 of s + r; without it, 2.3e-5. The
        # listener is brought to within 2^-11 = 4.9e-4 on both sides.
        tx, listeners = np.arange(1, 3002), np.array([0])
        bracket = _bisect_to_the_threshold(_ring_channel, tx, listeners, 2.0, 1.2, 2.0**-11)
        for x, decodes in zip(bracket, (False, True)):
            channel = _ring_channel(x)
            with screen_spy(monkeypatch) as seen:
                decoded = channel.decide(tx, listeners, np.zeros(1))
            assert seen["screened"] == 1 and seen["refilled"] == [0]
            assert decoded.tolist() == [decodes]

    def test_thousands_of_transmitters_stay_inside_the_sum_bound(self):
        # The screened strongest gain lies within rho = (alpha + 5)u + 5.1
        # alpha kappa v of the exact one, and the float32 row sum within
        # rho + (|tx| - 1)u of the exact total (u = 2^-24, v = 2^-53).
        channel = SINRChannel(topologies.uniform_disk(4096, generator_from(40)))
        order = generator_from(41).permutation(channel.n)
        tx, listeners = np.sort(order[:3000]), np.sort(order[3000:3200])
        out = np.empty((listeners.size, tx.size))
        rows, spread = channel._screen_filler(tx)(listeners, out, np.empty_like(out))
        assert rows.dtype == np.float32 and spread is not None
        exact = dense_gain_rows(channel, tx, listeners)
        rho = (channel.params.alpha + 5) * 2.0**-24 + 5.1 * spread * 2.0**-53
        strongest = exact.max(axis=0)
        assert np.all(np.abs(rows.max(axis=1) - strongest) <= rho * strongest)
        totals = exact.sum(axis=0)
        screened = np.dot(rows, np.ones(tx.size, dtype=np.float32)).astype(np.float64)
        assert np.all(np.abs(screened - totals) <= (rho + (tx.size - 1) * 2.0**-24) * totals)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1.0, 2.0**20])
    def test_faded_gains_past_the_ceiling_are_decided_exactly(self, monkeypatch, scale):
        # The grid pair of test_a_pair_at_the_ceiling at half the ceiling:
        # a multiplier over 2 lifts it past, and the round's one block is
        # decided exactly, every listener refilled. A fading scale of 2^20
        # would lift float32 gains past their range, so every block takes
        # the exact fill instead.
        grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
        positions = np.concatenate([grid, [[2.0**-4, 0.0]]])
        power = 2.0**120 / positions.shape[0] / 2 * 2.0**-12
        params = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, power=power)
        fading = RayleighFading(scale)
        channel = SINRChannel(positions, params=params, gain_model=fading, auto_power=False)
        rounds = [(np.array([25]), np.arange(25))] * 30
        with screen_spy(monkeypatch) as seen:
            assert_receivers_equal_the_dense_resolve(channel, rounds)
        if scale > 1.0:
            assert (seen["screened"], seen["declined"]) == (0, 30 * 25)
            return
        assert seen["screened"] == 30 * 25
        assert 0 < len(seen["refilled"]) < 30 * 25 and len(seen["refilled"]) % 25 == 0

    # The exact rows' totals pass the float range, as in the exact decode.
    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
    def test_gains_that_could_pass_the_ceiling_take_the_exact_fill(self, monkeypatch):
        # Thirty unit-distance gains of 1e307, far past the float32 range:
        # the channel is not screened at all.
        angles = np.linspace(0.0, 2 * np.pi, 30, endpoint=False)
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        positions = np.concatenate([[[0.0, 0.0], [1e3, 0.0], [0.0, 2e3]], ring])
        params = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, power=1e307)
        channel = SINRChannel(positions, params=params, auto_power=False)
        assert channel._screen_window is None
        tx = np.arange(3, 33)
        listeners = np.setdiff1d(np.arange(channel.n), tx)
        with screen_spy(monkeypatch) as seen:
            decoded = channel.decide(tx, listeners, np.zeros(listeners.size))
        assert (seen["screened"], seen["declined"], seen["refilled"]) == (0, listeners.size, [])
        with np.errstate(over="ignore"):
            _, _, expected, _ = dense_decode(channel, tx, listeners, np.zeros(listeners.size))
        assert_same_bits(decoded, expected)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 4.0, 4.5, 6.0, 7.5])
    def test_root_power_is_within_its_rounding_bound(self, alpha):
        squared = generator_from(4).random(4000) * 10.0 ** generator_from(5).integers(-30, 30, 4000)
        found = sinr_channel._root_power(squared, alpha, np.empty_like(squared))
        reference = np.power(np.sqrt(squared), alpha)
        assert np.all(np.abs(found - reference) <= (alpha + 6) * 2.0**-53 * reference)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 4.0, 4.5, 6.0, 7.5])
    def test_float32_root_power_is_within_its_rounding_bound(self, alpha):
        # Exponents whose powers the float32 range holds at alpha = 7.5.
        scales = 10.0 ** generator_from(5).integers(-8, 8, 4000)
        squared = ((1.0 + 9.0 * generator_from(4).random(4000)) * scales).astype(np.float32)
        found = sinr_channel._root_power(squared, alpha, np.empty_like(squared))
        assert found.dtype == np.float32
        reference = np.power(np.sqrt(squared.astype(np.float64)), alpha)
        assert np.all(np.abs(found - reference) <= (alpha + 6) * 2.0**-24 * reference)


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
