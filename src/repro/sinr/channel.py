"""The SINR channel: per-round reception resolution (Equation 1).

Given a deployment (fixed positions) a round with transmitters ``T`` and
listeners ``L`` needs the gains ``G[i, j] = P / d(i, j)^alpha`` only for
``i`` in ``T`` and ``j`` in ``L``. Those cells are computed from
positions, or gathered once the full ``(n, n)`` matrix has been built
(:attr:`SINRChannel.base_gains`, built on first access); both give the
same bits. Constructing a channel builds no ``(n, n)`` object. Decoding
one round (:meth:`SINRChannel.decode`) is then a handful of vectorised
reductions per listener:

* total arriving power at each listener: ``tot = G[T].sum(axis=0)``
* strongest arriving signal at each listener: ``best = G[T].max(axis=0)``
* listener ``v`` receives the strongest transmitter ``u`` iff
  ``G[u, v] / (noise + tot_v - G[u, v]) >= beta``.

The decode takes the listeners in fixed-size blocks, so no round holds
its ``|T| x |L|`` gains at once: a round's memory is O(n) whatever its
size. :meth:`SINRChannel.gain_rows` returns the whole array for callers
that want it. Under Rayleigh fading each block's gains are multiplied by
fresh exponential draws before the reductions, so faded and deterministic
rounds share the one decode. :meth:`SINRChannel.decide` walks the same
blocks for callers that need only the decisions (the fast path): it
screens each listener with float32 gains, from squared distances of one
small float64 matrix product of augmented coordinates, square roots and
products instead of ``pow``, and recomputes exactly, in float64, only
the rows too close to the threshold to tell.

Because the SINR of a candidate transmitter is monotone increasing in its
arriving signal (each transmitter's own power is excluded from its
interference term), the strongest arriving signal clears the threshold iff
any signal does — for every ``beta``. The channel decodes the strongest
clearing signal (the capture effect), so resolving a round needs only the
per-listener argmax. When ``beta >= 1`` that decode is additionally unique.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import math
import time

import numpy as np

from repro.obs.probe import SINRProbeColumns, get_probe_bus
from repro.obs.registry import get_registry
from repro.radio.channel import round_ids
from repro.sinr.fading import RayleighFading
from repro.sinr.geometry import (
    as_positions,
    cross_distances,
    diameter_of,
    has_colocated_pair,
    pairwise_distances,
    squared_cross_distances,
)
from repro.sinr.jamming import ExternalSource, external_gain_matrix
from repro.sinr.parameters import SINRParameters

__all__ = ["ReceptionReport", "SINRChannel"]

#: Matrix cells per row block when :attr:`SINRChannel.base_gains` is built.
_GAIN_BLOCK_CELLS = 1 << 20

#: Gain cells per listener block when :meth:`SINRChannel.decode` decodes a
#: round (256 KiB of float64 per buffer).
_DECODE_BLOCK_CELLS = 1 << 15

# The screen of SINRChannel.decide. Let u = 2**-24 (half an ulp of a
# float32) and v = 2**-53 (half an ulp of a float64).
#
# Squared distances. The exact fill computes d2 = dx*dx + dy*dy from the
# positions. The screen takes a block's d2 from one float64 matrix
# product: each node's centred coordinates q = p - c (c the midpoint of
# the bounding box) as the listener row [qx, qy, 1, |q|**2] times the
# transmitter column [-2qx, -2qy, |q|**2, 1]. Centring rounds each
# coordinate by at most v of itself, which moves d2 by at most 2v(|l| +
# |t|)**2; each |q|**2 carries at most 2v of its value; and the four-term
# dot product, in any order, fused or not, adds at most 4v (gamma_4) of
# the sum of its terms' magnitudes, at most (|l| + |t|)**2. So the
# product's d2 is d2 * (1 + e) with |e| <= 10v * kappa, where kappa = (|l|
# + |t|)**2 / d2 >= 1 measures the cancellation of points far from c
# compared with their distance. A block bounds it by span / its smallest
# d2, where span = 4 * max |q|**2 >= (|l| + |t|)**2 for every pair of the
# channel.
#
# Gains. The exact fill's float64 P / pow(sqrt(d2), alpha) lies within
# (alpha + 5)v of the real P / d2**(alpha/2): sqrt's v grows alpha-fold
# through the power, pow adds at most 2 ulps (4v), the division v. The
# screen casts each d2 to float32 once (u, which the power makes
# alpha/2 * u) and computes P / (d2**k * root) in float32, root in {1,
# d2**(1/4), d2**(1/2), d2**(3/4)} from one or two square roots: at most
# alpha/2 + 2 roundings of u, P's cast u and the division u, so (alpha +
# 4)u in all, plus the (1 + e)**(alpha/2) of its d2: at most 5.1 * alpha *
# kappa * v while alpha * kappa <= 2**40. A fading multiplier (float64,
# the exact decode's own draw) adds v to the exact gain and u + v to the
# screened one, whose product is rounded back to float32. So every
# screened gain, and its row maximum s, lies within rho = (alpha + 5)u +
# 5.1 * alpha * kappa * v + v of its real value, and every exact one
# within (alpha + 6)v.
#
# Decisions. The screen sums each row in float32 (a BLAS product with
# ones, in any order: (|tx| - 1)u of the sum), then adds the external
# power and computes the threshold and the difference in float64 (four
# roundings of v); the exact decode sums in float64 ((|tx| + 3)v with its
# decision's roundings). With K = s + beta*(N + T) <= (1 + beta)*(s +
# beta*(N + T - s)), the screen's s - beta*(N + (T - s)) therefore lies
# within (2*rho + (|tx| - 1)u + 4v)*K of the real one, and the exact
# decode's within (2*alpha + |tx| + 15)v * K. A listener whose screened
# difference exceeds the sum of the two, under (|tx| + 2*alpha + 11)u +
# 10.2 * alpha * kappa * v for |tx| < 2**28, times K, therefore decides
# as the exact decode does. The margin below is (8*|tx| + 8*alpha + 128)u
# + 32 * alpha * kappa * v: about three times that bound or more, which
# also absorbs the second-order terms and the rounding of the margin
# itself.
#
# Where the bound holds is what the window (SINRChannel._screen_window)
# buys. The screen works in units of an even power of two 2**e near the
# deployment's extent (span < 8), with P in the same units (P *
# 2**(-alpha*e), exact), which changes no gain and no relative error. A
# channel is screened only when 2*alpha is an integer, span**(alpha/2) <=
# 2**120 and P, in those units, lies within [2**-120, 2**120] (so every
# d2, root, power and P is a finite float32), diameter**alpha <= 2**1000
# (no exact denominator overflows) and beta*N >= n * 2**-100 (so K >=
# beta*N dwarfs the at most 2**-149 each that float32 gains, faded
# products and partial sums lose when they fall below the normal range).
# A block is screened only when its smallest float32 d2 has
# d2**(alpha/2) >= 2**-120 (every root and power a normal float32), P /
# d2**(alpha/2) <= 2**120 / n divided by the fading scale if above 1 (so
# no faded gain passes 2**126 / n and no row sum 2**126), an exact
# denominator of at least 2**-1020 and alpha * kappa <= 2**40: one floor
# on the smallest d2. A block's decisions are kept only while its
# strongest (faded) screened gain stays within 2**120 / n.

#: Unit of the screen's margin: a listener is unsure when ``|s - r| <=
#: ((|tx| + alpha + 16) * _MARGIN_UNIT + 4 * alpha * kappa *
#: _PRODUCT_UNIT) * (1 + beta) * (s + r)``, ``r = beta * (N + T - s)``:
#: eight half-ulps of a float32, the precision of the screened gains.
_MARGIN_UNIT = 2.0**-21

#: Unit of the margin's cancellation term: eight half-ulps of a float64,
#: the precision of the matrix product that gives the squared distances.
_PRODUCT_UNIT = 2.0**-50

#: The float32 values the screen computes stay within ``[1 / _SCREEN_RANGE,
#: _SCREEN_RANGE]`` (float32 is normal in ``[2**-126, 2**128)``), save gains
#: and sums too small to matter beside the noise.
_SCREEN_RANGE = 2.0**120


_NO_IDS = np.empty(0, dtype=np.intp)
_NO_IDS.flags.writeable = False
_NO_ENERGY = np.empty(0, dtype=np.float64)
_NO_ENERGY.flags.writeable = False


class ReceptionReport:
    """Outcome of one round on the channel, held as arrays.

    Attributes
    ----------
    tx_ids:
        Sorted node indices that transmitted this round.
    listener_ids:
        Sorted node indices that listened this round. Transmitting nodes
        never listen: a node cannot transmit and listen in the same round
        (Section 2).
    decoded:
        Per listener (aligned with ``listener_ids``), the transmitter it
        decoded, or -1.
    listener_energy:
        Per listener, the total arriving signal power (the sum over all
        transmitters and any external sources on the air; noise
        excluded). This is what a carrier-sensing radio measures;
        protocols that do not sense energy simply ignore it.

    The mappings :attr:`received_from` and :attr:`energy` and the tuple
    :attr:`transmitters` are views of these arrays, built on first access.
    """

    #: SINR listeners perceive no ternary channel observation (see
    #: :class:`repro.radio.channel.RadioReport`).
    observation = None

    def __init__(
        self,
        transmitters: Sequence[int],
        listener_ids: np.ndarray = _NO_IDS,
        decoded: np.ndarray = _NO_IDS,
        listener_energy: np.ndarray = _NO_ENERGY,
    ) -> None:
        self.tx_ids = np.asarray(transmitters, dtype=np.intp)
        self.listener_ids = listener_ids
        self.decoded = decoded
        self.listener_energy = listener_energy

    @cached_property
    def transmitters(self) -> tuple:
        """Sorted node indices that transmitted this round."""
        return tuple(self.tx_ids.tolist())

    @cached_property
    def received_from(self) -> Dict[int, int]:
        """Mapping ``listener -> transmitter`` for every listener that decoded."""
        heard = self.decoded >= 0
        return dict(zip(self.listener_ids[heard].tolist(), self.decoded[heard].tolist()))

    def energy_entries(self) -> List[Optional[float]]:
        """:attr:`energy`'s value per listener position, ``None`` where it has none.

        On a round nobody transmitted, only listeners that sensed an
        external source (:mod:`repro.sinr.jamming`) have an entry.
        """
        values = self.listener_energy.tolist()
        if self.tx_ids.size:
            return values
        return [value if value > 0.0 else None for value in values]

    @cached_property
    def energy(self) -> Dict[int, float]:
        """Mapping ``listener -> total arriving signal power``.

        Empty only when nobody transmitted *and* no external source was on
        the air — on transmitter-free rounds listeners still sense active
        jammers.
        """
        return {
            listener: value
            for listener, value in zip(self.listener_ids.tolist(), self.energy_entries())
            if value is not None
        }

    def _views(self) -> tuple:
        return self.transmitters, self.received_from, self.energy

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._views() == other._views()

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"ReceptionReport(transmitters={self.transmitters!r}, "
            f"received_from={self.received_from!r}, energy={self.energy!r})"
        )


class SINRChannel:
    """Single-hop SINR channel over a fixed deployment.

    Parameters
    ----------
    positions:
        ``(n, 2)`` planar coordinates of the nodes.
    params:
        The SINR model constants. If ``auto_power`` is true (default) the
        transmission power is raised, if necessary, to satisfy the paper's
        single-hop assumption for this deployment's diameter.
    gain_model:
        ``None`` for the deterministic path loss (default), or a
        :class:`~repro.sinr.fading.RayleighFading` whose multipliers
        :meth:`decode` draws every round.
    auto_power:
        Size the power to the deployment per Section 2. Disable to study
        deliberately under-powered (multi-hop) deployments.
    external_sources:
        Uncontrolled transmitters (jammers, co-channel systems) whose
        arriving power is added to every listener's interference and
        measured energy when they are on the air — see
        :mod:`repro.sinr.jamming`. Sources with ``duty_cycle < 1`` require
        an ``rng`` at resolve time.
    """

    #: The SINR channel reports per-listener energy (carrier sensing); the
    #: engine consults this flag when a protocol declares
    #: ``requires_energy_sensing``.
    provides_energy = True

    def __init__(
        self,
        positions,
        params: SINRParameters = SINRParameters(),
        gain_model: Optional[RayleighFading] = None,
        auto_power: bool = True,
        external_sources: Optional[Sequence[ExternalSource]] = None,
    ) -> None:
        self.positions = as_positions(positions)
        self.n = self.positions.shape[0]
        if self.n < 1:
            raise ValueError("a channel needs at least one node")
        #: Longest link, equal to ``distances.max()`` (0 for one node).
        self.diameter = 0.0
        if self.n >= 2:
            if has_colocated_pair(self.positions):
                raise ValueError("co-located nodes are not allowed (zero-length link)")
            self.diameter = diameter_of(self.positions)
            if auto_power and not params.satisfies_single_hop(max(self.diameter, 1e-300)):
                params = params.sized_for(self.diameter)
        self.params = params
        self.gain_model = gain_model
        self.external_sources = tuple(external_sources or ())
        self._external_gains = external_gain_matrix(
            self.external_sources, self.positions, params.alpha
        )
        self._duty_cycles = np.asarray([s.duty_cycle for s in self.external_sources])
        self._always_on = bool(np.all(self._duty_cycles >= 1.0))

    @cached_property
    def distances(self) -> np.ndarray:
        """The ``(n, n)`` distance matrix, built on first access."""
        return pairwise_distances(self.positions)

    @cached_property
    def _gain_matrix(self) -> np.ndarray:
        # G[i, j]: power arriving at j when i transmits, built in row
        # blocks in place: each block's distances become its gains, so no
        # (n, n) temporary is held. Same ufuncs, same bits as
        # `power / distances**alpha`. Self-reception is meaningless;
        # zeroing the diagonal keeps every reduction clean.
        gains = np.empty((self.n, self.n), dtype=np.float64)
        rows = max(1, _GAIN_BLOCK_CELLS // self.n)
        with np.errstate(divide="ignore", over="ignore"):
            for start in range(0, self.n, rows):
                block = slice(start, start + rows)
                distances = cross_distances(self.positions[block], self.positions)
                np.power(distances, self.params.alpha, out=distances)
                np.divide(self.params.power, distances, out=gains[block])
        np.fill_diagonal(gains, 0.0)
        return gains

    @property
    def base_gains(self) -> np.ndarray:
        """The deterministic ``(n, n)`` gain matrix (read-only view).

        Built on first access, without :attr:`distances`, and kept
        for the channel's lifetime; from then on :meth:`gain_rows`
        gathers from it instead of computing gains from positions.
        """
        view = self._gain_matrix.view()
        view.flags.writeable = False
        return view

    @cached_property
    def _screen_window(self) -> Optional[Tuple[float, float, float]]:
        """``(floor, ceiling, power)`` of :meth:`decide`'s screen; ``None`` when it cannot screen.

        A block is screened when its smallest squared distance, in the
        units of ``_screen_coords``, is at least ``floor``, and its
        decisions are kept while its strongest screened gain is at most
        ``ceiling``; ``power`` is the transmission power in those units,
        which leaves every gain as it is. See the derivation beside
        ``_MARGIN_UNIT``.
        """
        params = self.params
        alpha = params.alpha
        if not (
            float(2 * alpha).is_integer()
            and self.diameter > 0.0
            and alpha * math.log2(self.diameter) <= 1000.0
            and params.beta * params.noise >= self.n * 2.0**-100
        ):
            return None
        _, _, span, exponent = self._screen_coords
        # alpha * exponent is an integer: exponent is even.
        shift = round(alpha * exponent)
        top = math.log2(_SCREEN_RANGE)
        log_power, log_ceiling = math.log2(params.power) - shift, top - math.log2(self.n)
        # Fading multipliers, at most 2**6 times their mean, leave the
        # products of unfaded gains up to the ceiling under 2**128 / n.
        log_scale = max(0.0, math.log2(self.gain_model.scale)) if self.gain_model else 0.0
        # The floor is the largest of the smallest d2 with
        log_floor = max(
            # every float32 d2 ** (alpha / 2) >= 2**-top,
            -2.0 * top / alpha,
            # every unfaded gain P / d2 ** (alpha / 2) * scale <= the ceiling,
            2.0 * (log_power + log_scale - log_ceiling) / alpha,
            # every exact float64 denominator >= 2**-1020, in the
            # positions' units,
            -2040.0 / alpha - 2 * exponent,
            # and alpha * kappa <= 2**40.
            math.log2(alpha * span) - 40.0,
        )
        if (
            abs(log_power) > top
            or alpha / 2 * math.log2(span) > top
            or log_floor > math.log2(span)
        ):
            return None
        return 2.0**log_floor, 2.0**log_ceiling, math.ldexp(params.power, -shift)

    @cached_property
    def _screen_coords(self) -> Tuple[np.ndarray, np.ndarray, float, int]:
        """``(rows, columns, span, exponent)``: the augmented coordinates :meth:`decide` screens with.

        With ``q`` each node's position less the midpoint of the
        deployment's bounding box, in units of ``2**exponent`` (even, and
        at most twice the largest ``|qx|`` or ``|qy|``), ``rows[i]`` is
        ``[qx, qy, 1, |q|**2]`` and ``columns[:, j]`` is ``[-2qx, -2qy,
        |q|**2, 1]``, so ``rows[i] @ columns[:, j]`` is the squared
        distance of nodes ``i`` and ``j`` in those units; ``span`` is ``4 *
        max |q|**2`` (under 8), which bounds ``(|l| + |t|)**2`` for every
        pair (see the derivation beside ``_MARGIN_UNIT``). The units are a
        power of two, so they change no bit of the screen's relative
        errors. An ``(n, 4)`` and a ``(4, n)`` array, built on first use
        and kept for the channel's lifetime.
        """
        # One coordinate at a time: numpy reduces a C-order (n, 2) array
        # along its first axis many times slower.
        qx, qy = (axis - (axis.min() / 2 + axis.max() / 2) for axis in self.positions.T)
        exponent = math.frexp(max(np.abs(qx).max(), np.abs(qy).max()))[1]
        exponent += exponent % 2
        qx, qy = np.ldexp(qx, -exponent), np.ldexp(qy, -exponent)
        norms = qx * qx + qy * qy
        ones = np.ones(self.n)
        rows = np.column_stack([qx, qy, ones, norms])
        columns = np.stack([-2.0 * qx, -2.0 * qy, norms, ones])
        return rows, columns, 4.0 * float(norms.max()), exponent

    @cached_property
    def _nearest_start(self):
        from repro.analysis.nearest_active import NearestActiveNeighbours

        return NearestActiveNeighbours(self.positions)

    def nearest_active(self):
        """A tracker of each node's nearest active neighbour, every node active.

        A :class:`~repro.analysis.nearest_active.NearestActiveNeighbours`
        copied, in O(n), from a start state built on the first call and
        kept for the channel's lifetime; the start state itself is never
        handed out, so runs on one channel never see each other's
        removals.
        """
        return self._nearest_start.copy()

    def gain_rows(self, tx: np.ndarray, listeners: np.ndarray) -> np.ndarray:
        """Deterministic gains ``G[tx][:, listeners]`` as a ``(|tx|, |listeners|)`` array.

        ``tx`` and ``listeners`` must be disjoint: a node never listens to
        itself. Gathered from :attr:`base_gains` when the matrix has been
        built, otherwise computed from positions with the matrix's
        elementwise expressions, so both give the same bits; only the
        touched cells cost anything. :meth:`decode` fills its listener
        blocks with the same code.

        The array is column-major, the layout ``G[tx][:, listeners]``
        itself has: each listener's gains are contiguous, in ``tx``
        order. numpy's summation order over transmitters follows the
        layout, so ``rows.sum(axis=0)`` gives the same bits whichever way
        the cells were obtained, and the same bits as :meth:`decode`'s
        totals.
        """
        rows = np.empty((listeners.size, tx.size))
        self._gain_filler(tx)(listeners, rows, np.empty_like(rows))
        return rows.T

    def _gain_filler(self, tx: np.ndarray):
        """``fill(listeners, out, work)``, writing ``G[tx][:, listeners].T`` into ``out``.

        ``out`` is a C-order ``(|listeners|, |tx|)`` buffer: one row of
        gains per listener; ``work``, a C-order buffer of the same shape,
        is scratch. The per-round set-up (the transmitters' coordinates)
        is done once here. ``fill`` writes the exact gains and returns
        ``(out, None)``, the form of :meth:`_screen_filler`'s fill.
        """
        if "_gain_matrix" in self.__dict__:
            matrix = self._gain_matrix

            def gather(listeners, out, work):
                # Only the strip of G[tx] between the lowest and the
                # highest listener is copied, so a round never holds all
                # |tx| rows. The (|tx|, b) take lands in work's memory,
                # then goes transposed into out: one listener per row.
                # "clip" lets take write there directly (the ids are in
                # range).
                first = listeners.min()
                strip = matrix[tx, first : listeners.max() + 1]
                taken = work.reshape(out.shape[::-1])
                np.take(strip, listeners - first, axis=1, out=taken, mode="clip")
                np.copyto(out, taken.T)
                return out, None

            return gather
        positions = self.positions
        # Column-major, so cross_distances' coordinate rows are views.
        points = np.asfortranarray(positions[tx])
        alpha, power = self.params.alpha, self.params.power

        def compute(listeners, out, work):
            # The matrix's ufuncs, in place: the same bits. Swapping the
            # points only negates dx and dy, so no bit changes either.
            squared = squared_cross_distances(positions[listeners], points, out=out, work=work)
            with np.errstate(divide="ignore", over="ignore"):
                np.power(np.sqrt(squared, out=out), alpha, out=out)
                np.divide(power, out, out=out)
            return out, None

        return compute

    def _screen_filler(self, tx: np.ndarray):
        """:meth:`decide`'s ``fill(listeners, out, work) -> (gains, spread)``; the exact fill when it cannot screen.

        Each block's squared distances come from one float64 ``(b, 4) @
        (4, |tx|)`` product of ``_screen_coords`` into ``out``, cast once
        to float32; its gains are ``P / (d2**k * root)`` from float32
        square roots and products, with no ``pow``, in one of the two
        float32 ``(b, |tx|)`` buffers the fill keeps for the round
        (``work`` is left to the fading draws). ``spread`` is the block's
        ``alpha * kappa``, the cancellation its margin is widened by. A
        block whose smallest ``d2`` lies under ``_screen_window``'s floor
        takes :meth:`_gain_filler`'s exact fill instead, and ``fill``
        returns ``(out, None)``. See the derivation beside
        ``_MARGIN_UNIT``.
        """
        window = self._screen_window
        if window is None:
            return self._gain_filler(tx)
        floor, _, power = window
        power = np.float32(power)
        listener_coords, tx_coords, span, _ = self._screen_coords
        points = tx_coords.take(tx, axis=1)
        alpha = self.params.alpha
        # The round's two float32 buffers, made at its first block, the
        # largest.
        buffers = None

        def screen(listeners, out, work):
            nonlocal buffers
            squared = np.matmul(listener_coords.take(listeners, axis=0), points, out=out)
            if buffers is None or buffers.shape[1] < out.shape[0]:
                buffers = np.empty((2, *out.shape), dtype=np.float32)
            gains, roots = buffers[:, : out.shape[0]]
            np.copyto(gains, squared, casting="same_kind")
            smallest = float(np.minimum.reduce(gains, axis=None))
            if smallest < floor:
                return self._gain_filler(tx)(listeners, out, work)
            np.divide(power, _root_power(gains, alpha, out=roots), out=gains)
            return gains, alpha * span / smallest

        return screen

    def _blocks(self, tx, listeners, rng, fill):
        """Walk a round's listeners in blocks: the one loop of :meth:`decode` and :meth:`decide`.

        Yields ``(start, rows, multipliers, spread)`` per block: ``rows``
        holds the gains ``fill`` returned for ``listeners[start : start +
        len(rows)]``, one row per listener, multiplied under Rayleigh
        fading by ``multipliers``, the block's float64 draws (scratch
        otherwise); ``spread`` is what ``fill`` returned beside them. The
        next block reuses both buffers.
        """
        fading = self.gain_model
        if fading is not None and rng is None:
            raise ValueError("a stochastic gain model requires an rng")
        num_tx, num_listeners = tx.size, listeners.size
        block = max(1, min(num_listeners, _DECODE_BLOCK_CELLS // num_tx))
        gains = np.empty((block, num_tx))
        work = np.empty_like(gains)
        for start in range(0, num_listeners, block):
            out = gains[: num_listeners - start]
            scratch = work[: out.shape[0]]
            rows, spread = fill(listeners[start : start + block], out, scratch)
            if fading is not None:
                rng.standard_exponential(out=scratch)
                scratch *= fading.scale
                # Float32 screened gains take the float64 product rounded.
                rows *= scratch
            yield start, rows, scratch, spread

    def _threshold(self, strongest: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """``beta * (noise + interference)``, which ``strongest`` must reach to be decoded.

        SINR_i = s_i / (noise + tot - s_i) is monotone increasing in the
        arriving signal s_i, so the strongest transmitter clears the
        threshold iff any transmitter does — for every beta. With capture
        (decode the strongest signal that clears), checking the argmax is
        therefore exhaustive. External interference sits in the
        denominator alongside the other transmitters.
        """
        params = self.params
        return params.beta * (params.noise + (totals - strongest))

    def decode(
        self,
        tx: np.ndarray,
        listeners: np.ndarray,
        external: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode one round from ``tx`` to ``listeners``.

        ``tx`` and ``listeners`` are sorted, disjoint and non-empty;
        ``external`` is the external power landing on each listener;
        ``rng`` draws the fading multipliers and is required under
        :class:`~repro.sinr.fading.RayleighFading` only.
        Returns, per listener, ``(totals, best, decoded)``: the total
        arriving power, external included; the index in ``tx`` of its
        strongest transmitter, its decode candidate; and whether that
        candidate's SINR clears ``beta``. With the probe bus on, the
        round's :class:`~repro.obs.probe.SINRProbe` is published too.

        The listeners are taken in blocks of about ``_DECODE_BLOCK_CELLS``
        gains, filled in place into two ``(block, |tx|)`` buffers kept for
        the round, so a round of any size holds O(|tx| + |listeners|)
        memory beside them. Each listener's gains form one contiguous
        row in ``tx`` order, reduced by one row reduction: the order
        :meth:`gain_rows`' ``sum(axis=0)`` uses, so totals and decisions
        have the same bits as a decode over the whole ``|tx| x
        |listeners|`` array. A round that fits one block is one pass.

        Under fading, each block's gains are multiplied by ``scale *
        rng.standard_exponential`` drawn into the block's second buffer,
        one listener row after another. Consecutive draws give the values
        of one ``(|listeners|, |tx|)`` draw, so the faded gains, and every
        result, do not depend on the block size either.
        """
        bus = get_probe_bus()
        probe = (
            SINRProbeColumns(tx, listeners, external, self.params.noise)
            if bus.enabled
            else None
        )
        blocks = []
        for start, rows, _, _ in self._blocks(tx, listeners, rng, self._gain_filler(tx)):
            block = slice(start, start + rows.shape[0])
            decoded = np.empty(rows.shape[0], dtype=bool)
            picked, strongest, totals = self._decide_rows(rows, external[block], decoded)
            blocks.append((totals, picked, decoded))
            if probe is not None:
                probe.fill(start, rows, picked, strongest)
        if len(blocks) == 1:
            totals, best, decoded = blocks[0]
        else:
            totals, best, decoded = (np.concatenate(column) for column in zip(*blocks))
        if probe is not None:
            # Flight-recorder probe (repro.obs.probe): per-listener SINR of
            # the decode candidate and its strongest competitor.
            probe.publish(bus, decoded, self.params.beta)
        return totals, best, decoded

    def decide(
        self,
        tx: np.ndarray,
        listeners: np.ndarray,
        external: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """:meth:`decode`'s ``decoded`` alone: whether each listener decodes a sender.

        Same arguments, same draws from ``rng`` and the same decisions as
        :meth:`decode`, but no totals and no probe. Where the channel and
        a block allow it (:meth:`_screen_filler`), the block's squared
        distances come from one small float64 matrix product and its
        gains, in float32, from square roots and products, with no
        ``pow``, and each listener is decided from them unless its
        strongest signal lands within a rounding margin of the threshold
        (derived beside ``_MARGIN_UNIT``), widened by the block's
        cancellation bound. Only those unsure rows are refilled with the
        exact float64 gains, faded by the block's own multipliers, and
        decided again. Blocks the screen does not cover hold the exact
        gains already.
        """
        params = self.params
        base = (tx.size + params.alpha + 16) * _MARGIN_UNIT
        ones = np.ones(tx.size, dtype=np.float32)
        decoded = np.empty(listeners.size, dtype=bool)
        for start, rows, multipliers, spread in self._blocks(
            tx, listeners, rng, self._screen_filler(tx)
        ):
            block = slice(start, start + rows.shape[0])
            if spread is None:
                self._decide_rows(rows, external[block], decoded[block])
                continue
            strongest = rows[np.arange(rows.shape[0]), rows.argmax(axis=1)].astype(np.float64)
            if self.gain_model is not None and strongest.max() > self._screen_window[1]:
                # Faded gains this strong are decided exactly.
                unsure = np.arange(start, block.stop)
            else:
                # Float32 row sums in any order (the margin covers it);
                # the external power, threshold and margin in float64.
                threshold = self._threshold(strongest, external[block] + np.dot(rows, ones))
                difference = strongest - threshold
                np.greater_equal(difference, 0.0, out=decoded[block])
                margin = (base + 4.0 * spread * _PRODUCT_UNIT) * (1.0 + params.beta)
                unsure = np.abs(difference, out=difference) <= margin * (strongest + threshold)
                if not np.count_nonzero(unsure):
                    continue
                unsure = start + np.flatnonzero(unsure)
            refill = np.empty((unsure.size, tx.size))
            self._gain_filler(tx)(listeners[unsure], refill, np.empty_like(refill))
            if self.gain_model is not None:
                refill *= multipliers[unsure - start]
            refilled = np.empty(unsure.size, dtype=bool)
            self._decide_rows(refill, external[unsure], refilled)
            decoded[unsure] = refilled
        return decoded

    def _decide_rows(self, rows: np.ndarray, external: np.ndarray, decoded: np.ndarray):
        """Decide each row of exact gains, one row per listener, into ``decoded``.

        Returns ``(picked, strongest, totals)``: the column of each row's
        strongest gain, that gain, and the row's total with ``external``
        added. A row whose strongest gain is ``inf`` has a NaN threshold
        (``inf - inf``) and is decided by :func:`_overflow_rule` instead,
        at the cost of one ``max`` per block.
        """
        picked = rows.argmax(axis=1)
        strongest = rows[np.arange(rows.shape[0]), picked]
        totals = rows.sum(axis=1)
        totals += external
        if strongest.max() < np.inf:
            np.greater_equal(strongest, self._threshold(strongest, totals), out=decoded)
        else:
            with np.errstate(invalid="ignore"):
                np.greater_equal(strongest, self._threshold(strongest, totals), out=decoded)
            _overflow_rule(rows, strongest, external, decoded)
        return picked, strongest, totals

    def resolve(
        self,
        transmitters: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        listeners: Optional[Sequence[int]] = None,
    ) -> ReceptionReport:
        """Resolve one synchronous round.

        Parameters
        ----------
        transmitters:
            Indices of nodes transmitting this round (duplicates ignored).
        rng:
            Required under fading and for external sources with
            ``duty_cycle < 1``.
        listeners:
            Indices allowed to receive; defaults to every non-transmitter.
            Passing an explicit subset models deactivated nodes that have
            stopped listening (the paper's algorithm does not need them to
            keep listening once knocked out).

        Returns
        -------
        ReceptionReport
            What :meth:`resolve_ids` returns for the validated,
            deduplicated ids (:func:`~repro.radio.channel.round_ids`).
        """
        return self.resolve_ids(*round_ids(transmitters, listeners, self.n), rng)

    def resolve_ids(
        self,
        tx: np.ndarray,
        listener_ids: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> ReceptionReport:
        """Resolve a round given as sorted, disjoint, in-range id arrays.

        The ids are used as given, unchecked: the engine, which already
        holds them in that form, calls this directly.
        """
        obs = get_registry()
        if not obs.enabled:
            return self._resolve_ids(tx, listener_ids, rng)
        started = time.perf_counter()
        report = self._resolve_ids(tx, listener_ids, rng)
        obs.counter("channel.sinr.resolve_calls").inc()
        # Every (transmitter, listener) pair costs one gain-matrix cell
        # evaluation in the reductions.
        obs.counter("channel.sinr.gain_evaluations").inc(
            report.tx_ids.size * report.listener_ids.size
        )
        obs.histogram("channel.sinr.resolve_seconds").observe(
            time.perf_counter() - started
        )
        return report

    def _resolve_ids(
        self,
        tx: np.ndarray,
        listener_ids: np.ndarray,
        rng: Optional[np.random.Generator],
    ) -> ReceptionReport:
        """The uninstrumented body of :meth:`resolve_ids`."""
        if listener_ids.size == 0:
            return ReceptionReport(tx)
        # Duty-cycle coins first, then the fading multipliers (in decode).
        external = self._external_interference(listener_ids, rng)
        if tx.size == 0:
            # Nothing to decode; listeners may still sense external energy.
            return ReceptionReport(
                tx, listener_ids, np.full(listener_ids.size, -1, dtype=np.intp), external
            )
        totals, best, decoded = self.decode(tx, listener_ids, external, rng)
        return ReceptionReport(tx, listener_ids, np.where(decoded, tx[best], -1), totals)

    def _receiver_ids(
        self,
        tx: np.ndarray,
        listener_ids: np.ndarray,
        rng: Optional[np.random.Generator],
    ) -> np.ndarray:
        """The listeners that decode a sender: :meth:`_resolve_ids` without the report.

        The ids of ``report.listener_ids[report.decoded >= 0]``, from the
        same draws, decided by :meth:`decide`.
        """
        if listener_ids.size == 0:
            return listener_ids
        external = self._external_interference(listener_ids, rng)
        if tx.size == 0:
            return _NO_IDS
        return listener_ids[self.decide(tx, listener_ids, external, rng)]

    def _external_interference(
        self, listener_ids: np.ndarray, rng: Optional[np.random.Generator]
    ) -> np.ndarray:
        """Arriving external power per listener for one round."""
        if not self.external_sources:
            return np.zeros(listener_ids.size)
        if self._always_on:
            return self._external_gains[:, listener_ids].sum(axis=0)
        if rng is None:
            raise ValueError("external sources with duty_cycle < 1 require an rng")
        on_air = rng.random(len(self.external_sources)) < self._duty_cycles
        if not on_air.any():
            return np.zeros(listener_ids.size)
        return self._external_gains[on_air][:, listener_ids].sum(axis=0)

    def __repr__(self) -> str:
        return (
            f"SINRChannel(n={self.n}, params={self.params!r}, "
            f"gain_model={self.gain_model!r})"
        )


def _overflow_rule(
    rows: np.ndarray, strongest: np.ndarray, external: np.ndarray, decoded: np.ndarray
) -> None:
    """Decide, in ``decoded``, the rows whose strongest gain overflowed to ``inf``.

    The rule of docs/model.md: a lone infinite gain decodes, since its
    SINR is infinite; a second infinite gain, or infinite external power,
    blocks it.
    """
    overflowed = np.flatnonzero(strongest == np.inf)
    decoded[overflowed] = (np.count_nonzero(rows[overflowed] == np.inf, axis=1) == 1) & (
        external[overflowed] < np.inf
    )


def _root_power(squared: np.ndarray, alpha: float, out: np.ndarray) -> np.ndarray:
    """``squared ** (alpha / 2)`` into ``out`` from square roots and products.

    For ``2 * alpha`` an integer above 4, with ``a = 2 * alpha``:
    ``squared ** (a // 4)`` times the root ``squared ** ((a % 4) / 4)``
    (one or two square roots). At most ``alpha / 2 + 2`` roundings from
    the real power, and no ``pow``.
    """
    pairs, quarters = divmod(round(2 * alpha), 4)
    if quarters:
        np.sqrt(squared, out=out)
        if quarters == 1:
            np.sqrt(out, out=out)
        elif quarters == 3:
            out *= squared
            np.sqrt(out, out=out)
    else:
        np.multiply(squared, squared, out=out)
        pairs -= 2
    for _ in range(pairs):
        out *= squared
    return out
