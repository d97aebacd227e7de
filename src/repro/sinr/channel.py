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
rounds share the one decode.

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
)
from repro.sinr.jamming import ExternalSource, external_gain_matrix
from repro.sinr.parameters import SINRParameters

__all__ = ["ReceptionReport", "SINRChannel"]

#: Matrix cells per row block when :attr:`SINRChannel.base_gains` is built.
_GAIN_BLOCK_CELLS = 1 << 20

#: Gain cells per listener block when :meth:`SINRChannel.decode` decodes a
#: round (256 KiB of float64 per buffer).
_DECODE_BLOCK_CELLS = 1 << 15


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
        with np.errstate(divide="ignore"):
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
        is done once here.
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

            return gather
        positions = self.positions
        # Column-major, so cross_distances' coordinate rows are views.
        points = np.asfortranarray(positions[tx])
        alpha, power = self.params.alpha, self.params.power

        def compute(listeners, out, work):
            # The matrix's ufuncs, in place: the same bits. Swapping the
            # points only negates dx and dy, so no bit changes either.
            cross_distances(positions[listeners], points, out=out, work=work)
            np.power(out, alpha, out=out)
            with np.errstate(divide="ignore"):
                np.divide(power, out, out=out)

        return compute

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
        fading = self.gain_model
        if fading is not None and rng is None:
            raise ValueError("a stochastic gain model requires an rng")
        num_tx, num_listeners = tx.size, listeners.size
        block = max(1, min(num_listeners, _DECODE_BLOCK_CELLS // num_tx))
        gains = np.empty((block, num_tx))
        work = np.empty_like(gains)
        fill = self._gain_filler(tx)
        cols = np.arange(block)
        bus = get_probe_bus()
        probe = (
            SINRProbeColumns(tx, listeners, external, self.params.noise)
            if bus.enabled
            else None
        )
        blocks = []
        for start in range(0, num_listeners, block):
            rows = gains[: num_listeners - start]
            scratch = work[: rows.shape[0]]
            fill(listeners[start : start + block], rows, scratch)
            if fading is not None:
                rng.standard_exponential(out=scratch)
                scratch *= fading.scale
                rows *= scratch
            picked = rows.argmax(axis=1)
            strongest = rows[cols[: rows.shape[0]], picked]
            blocks.append((rows.sum(axis=1), picked, strongest))
            if probe is not None:
                probe.fill(start, rows, picked, strongest)
        if len(blocks) == 1:
            totals, best, strongest = blocks[0]
        else:
            totals, best, strongest = (np.concatenate(column) for column in zip(*blocks))
        totals += external

        # SINR_i = s_i / (noise + tot - s_i) is monotone increasing in the
        # arriving signal s_i, so the strongest transmitter clears the
        # threshold iff any transmitter does — for every beta. With capture
        # (decode the strongest signal that clears), checking the argmax is
        # therefore exhaustive. External interference sits in the
        # denominator alongside the other transmitters.
        params = self.params
        decoded = strongest >= params.beta * (params.noise + (totals - strongest))
        if probe is not None:
            # Flight-recorder probe (repro.obs.probe): per-listener SINR of
            # the decode candidate and its strongest competitor.
            probe.publish(bus, decoded, params.beta)
        return totals, best, decoded

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
        if tx.size == 0:
            # Nothing to decode; listeners may still sense external energy.
            return ReceptionReport(
                tx,
                listener_ids,
                np.full(listener_ids.size, -1, dtype=np.intp),
                self._external_interference(listener_ids, rng),
            )

        # Duty-cycle coins first, then the fading multipliers (in decode).
        external = self._external_interference(listener_ids, rng)
        totals, best, decoded = self.decode(tx, listener_ids, external, rng)
        return ReceptionReport(tx, listener_ids, np.where(decoded, tx[best], -1), totals)

    def _external_interference(
        self, listener_ids: np.ndarray, rng: Optional[np.random.Generator]
    ) -> np.ndarray:
        """Arriving external power per listener for one round."""
        if not self.external_sources:
            return np.zeros(listener_ids.size)
        duty_cycles = np.asarray([s.duty_cycle for s in self.external_sources])
        if np.all(duty_cycles >= 1.0):
            on_air = np.ones(len(self.external_sources), dtype=bool)
        else:
            if rng is None:
                raise ValueError(
                    "external sources with duty_cycle < 1 require an rng"
                )
            on_air = rng.random(len(self.external_sources)) < duty_cycles
        if not on_air.any():
            return np.zeros(listener_ids.size)
        return self._external_gains[on_air][:, listener_ids].sum(axis=0)

    def sinr(self, sender: int, receiver: int, interferers: Sequence[int]) -> float:
        """Point SINR of Equation 1 for explicit sets — used by tests."""
        if sender == receiver:
            raise ValueError("sender and receiver must differ")
        others = [w for w in interferers if w not in (sender, receiver)]
        signal = self._gain_matrix[sender, receiver]
        interference = float(self._gain_matrix[others, receiver].sum()) if others else 0.0
        return self.params.sinr(signal, interference)

    def __repr__(self) -> str:
        return (
            f"SINRChannel(n={self.n}, params={self.params!r}, "
            f"gain_model={self.gain_model!r})"
        )
