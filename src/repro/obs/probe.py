"""Round-level flight recorder: the probe bus and its columnar recorder.

The metrics registry (:mod:`repro.obs.registry`) aggregates — it can say
*how many* knockouts a run produced, never *which receiver's SINR sat just
under beta in round 17*. This module is the round-granular complement:
a **probe bus** that the simulation paths publish per-round records to,
and a :class:`ProbeRecorder` that lays those records out columnar and
writes them as one compressed ``probes.npz`` beside ``metrics.json``.

Three kinds of probes flow over the bus:

:class:`RoundProbe`
    One per executed round — active-set size, transmitter count,
    knockouts (with the knocked node ids, which yield the per-node
    deactivation round), pending (not-yet-awake) nodes, and per-link-class
    ``(class_index, size_before, knocked)`` stats computed on the
    pre-round active set (Section 3.1's partition, the quantity
    Corollary 7 bounds).

:class:`SINRProbe`
    Per listener of one round — the decoded-candidate SINR, its margin to
    ``beta``, whether the message was delivered, and the top interferer
    (the strongest *other* transmitter) with its share of the
    interference sum. Published by :meth:`repro.sinr.SINRChannel.decode`,
    which :meth:`~repro.sinr.SINRChannel.resolve` and the vectorised fast
    path both decode through, and by a fading round's resolve.

:class:`ExecutionProbe`
    One per execution — node count, rounds executed, solving round.

Publication points are the generic engine (:mod:`repro.sim.engine`), the
vectorised fast path (:mod:`repro.sim.fast`) and the SINR channel;
:mod:`repro.sim.parallel` workers record into local buses and ship their
recorder snapshots back for order-preserving merging, so a sharded run's
``probes.npz`` is bit-identical to a serial run's. The engine and the
fast path take each round's link classes from a
:class:`~repro.analysis.nearest_active.NearestActiveNeighbours` tracker
built from the channel's positions (the fast path copies the channel's
start state), which re-answers only the nodes whose nearest neighbour
left, and bin them with
:func:`~repro.analysis.linkclasses.link_class_round_sizes`; probing
never builds the channel's ``(n, n)`` matrices. Both SINR publishers
fill a :class:`SINRProbeColumns` as they decode.

Zero cost when disabled — the same contract as the metrics registry: the
process-global bus defaults to ``enabled = False`` and every hot path
guards on that one attribute read. Enabling is opt-in per run
(``python -m repro.experiments <id> --telemetry-dir DIR --probes``). The
probes-enabled overhead is tracked in ``BENCH_core.json``
(``fast_path_execution_probes`` against ``fast_path_execution``) and by
the ``fast_probed`` workload of ``perfbench/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "PROBES_FILENAME",
    "ExecutionProbe",
    "ProbeBus",
    "ProbeRecorder",
    "RoundProbe",
    "SINRProbe",
    "SINRProbeColumns",
    "get_probe_bus",
    "load_probes",
    "set_probe_bus",
]

PathLike = Union[str, Path]

#: The probe artefact a telemetry session writes beside ``metrics.json``.
PROBES_FILENAME = "probes.npz"

#: Stamped into the ``.npz`` so future layout changes stay detectable.
PROBES_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RoundProbe:
    """What happened in one executed round, engine's-eye view.

    ``class_stats`` holds ``(class_index, size_before, knocked)`` triples
    for the link-class partition of the *pre-round* active set (empty when
    the channel has no geometry, e.g. radio channels). ``pending`` counts
    nodes whose activation round has not arrived yet — the one legitimate
    source of active-set growth.
    """

    trial: int
    round_index: int
    active_before: int
    tx_count: int
    knockouts: int
    pending: int
    knocked_ids: Tuple[int, ...]
    class_stats: Tuple[Tuple[int, int, int], ...]


@dataclass(frozen=True)
class SINRProbe:
    """Per-listener reception physics for one round (vectorised).

    ``sinr`` is the SINR of the strongest arriving signal (the decode
    candidate under capture); ``margin = sinr - beta`` so a delivered
    message has non-negative margin up to float rounding.
    ``top_interferer[i]`` is the strongest *other* transmitter heard by
    ``receivers[i]`` (``-1`` when the round had a single transmitter) and
    ``top_fraction[i]`` its share of the total interference sum.
    """

    trial: int
    round_index: int
    beta: float
    receivers: np.ndarray
    sinr: np.ndarray
    delivered: np.ndarray
    top_interferer: np.ndarray
    top_fraction: np.ndarray

    @property
    def margin(self) -> np.ndarray:
        return self.sinr - self.beta


@dataclass(frozen=True)
class ExecutionProbe:
    """Summary of one finished execution (``solved_round`` may be None)."""

    trial: int
    n: int
    rounds_executed: int
    solved_round: Optional[int]


class ProbeBus:
    """Fan-out point between the simulation paths and probe consumers.

    The bus stamps every probe with the current ``(trial, round)``
    coordinates so publishers that lack them (the channel does not know
    which round it is resolving) stay decoupled. Subscribers implement any
    subset of ``on_round`` / ``on_sinr`` / ``on_execution_end`` /
    ``finish`` / ``absorb``; :class:`ProbeRecorder` implements them all,
    the invariant monitors (:mod:`repro.obs.monitors`) the first three.

    Trial numbering: runners pin the next execution's trial index via
    :meth:`set_trial` (which is what keeps sharded runs mergeable); bare
    :class:`~repro.sim.engine.Simulation` users get a per-bus
    auto-increment.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._subscribers: List[object] = []
        self._pending_trial: Optional[int] = None
        self._next_auto_trial = 0
        self._trial = 0
        self._round = 0
        self._n = 0

    def subscribe(self, subscriber) -> None:
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber) -> None:
        self._subscribers.remove(subscriber)

    # -- coordinates ------------------------------------------------------

    def set_trial(self, trial: int) -> None:
        """Pin the trial index of the *next* execution (runners call this)."""
        self._pending_trial = int(trial)

    def begin_execution(self, n: int) -> int:
        """Mark the start of an execution; returns its trial index."""
        if self._pending_trial is not None:
            trial = self._pending_trial
            self._pending_trial = None
        else:
            trial = self._next_auto_trial
        self._next_auto_trial = trial + 1
        self._trial = trial
        self._n = int(n)
        self._round = 0
        return trial

    def begin_round(self, round_index: int) -> None:
        """Stamp subsequent probes (e.g. the channel's) with this round."""
        self._round = int(round_index)

    # -- publication ------------------------------------------------------

    def emit_round(
        self,
        active_before: int,
        tx_count: int,
        knockouts: int,
        knocked_ids: Sequence[int] = (),
        pending: int = 0,
        class_stats: Tuple[Tuple[int, int, int], ...] = (),
    ) -> None:
        probe = RoundProbe(
            trial=self._trial,
            round_index=self._round,
            active_before=int(active_before),
            tx_count=int(tx_count),
            knockouts=int(knockouts),
            pending=int(pending),
            knocked_ids=tuple(np.asarray(knocked_ids, dtype=np.int64).tolist()),
            class_stats=class_stats,
        )
        for subscriber in self._subscribers:
            handler = getattr(subscriber, "on_round", None)
            if handler is not None:
                handler(probe)

    def emit_sinr(
        self,
        receivers: np.ndarray,
        sinr: np.ndarray,
        delivered: np.ndarray,
        top_interferer: np.ndarray,
        top_fraction: np.ndarray,
        beta: float,
    ) -> None:
        probe = SINRProbe(
            trial=self._trial,
            round_index=self._round,
            beta=float(beta),
            receivers=receivers,
            sinr=sinr,
            delivered=delivered,
            top_interferer=top_interferer,
            top_fraction=top_fraction,
        )
        for subscriber in self._subscribers:
            handler = getattr(subscriber, "on_sinr", None)
            if handler is not None:
                handler(probe)

    def end_execution(
        self, rounds_executed: int, solved_round: Optional[int]
    ) -> None:
        probe = ExecutionProbe(
            trial=self._trial,
            n=self._n,
            rounds_executed=int(rounds_executed),
            solved_round=solved_round,
        )
        for subscriber in self._subscribers:
            handler = getattr(subscriber, "on_execution_end", None)
            if handler is not None:
                handler(probe)

    # -- lifecycle --------------------------------------------------------

    def finish(self) -> None:
        """Give subscribers (monitors) a final chance to flush verdicts."""
        for subscriber in self._subscribers:
            handler = getattr(subscriber, "finish", None)
            if handler is not None:
                handler()

    def absorb(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Fold a worker recorder's snapshot into local recorders.

        Only subscribers exposing ``absorb`` participate — monitors do not
        (they already ran inside the worker and forwarded their warnings
        through the worker's event sink).
        """
        for subscriber in self._subscribers:
            handler = getattr(subscriber, "absorb", None)
            if handler is not None:
                handler(snapshot)


class SINRProbeColumns:
    """One round's :class:`SINRProbe` columns, filled listener block by block.

    ``tx`` are the round's transmitters, ``listeners`` its listeners and
    ``external`` the external power landing on each listener. The decode
    hands each block of listeners to :meth:`fill` and, once every block
    is in, calls :meth:`publish` with its decisions, so the round's probe
    is emitted once and no ``|tx| x |listeners|`` array is needed.
    Consumes no RNG draws.

    Interference is summed directly: every transmitter but the candidate,
    plus ``external``. Subtracting the candidate from the total instead
    cancels catastrophically when it dominates the sum (relative error
    2e-7 at 8 link classes of an exponential chain, 100% at 48).
    """

    def __init__(
        self, tx: np.ndarray, listeners: np.ndarray, external: np.ndarray, noise: float
    ) -> None:
        self.tx = tx
        self.listeners = listeners
        self.external = external
        self.noise = noise
        self.sinr = np.empty(listeners.size)
        self.top_interferer = np.full(listeners.size, -1, dtype=np.int64)
        self.top_fraction = np.zeros(listeners.size)

    def fill(
        self, start: int, rows: np.ndarray, best: np.ndarray, strongest: np.ndarray
    ) -> None:
        """Fill the columns of ``listeners[start : start + len(rows)]``.

        ``rows`` holds those listeners' gains, one listener per row in
        ``tx`` order, and is overwritten; ``best`` is each row's decode
        candidate (an index into ``tx``) and ``strongest`` its gain.
        """
        stop = start + rows.shape[0]
        cols = np.arange(rows.shape[0])
        rows[cols, best] = 0.0
        interference = rows.sum(axis=1)
        interference += self.external[start:stop]
        denom = self.noise + interference
        sinr = self.sinr[start:stop]
        sinr.fill(np.inf)
        # A second infinite gain makes inf / inf: that listener's SINR and
        # top fraction are NaN.
        with np.errstate(invalid="ignore"):
            np.divide(strongest, denom, out=sinr, where=denom > 0.0)
            if self.tx.size > 1:
                rows[cols, best] = -np.inf
                second_rows = rows.argmax(axis=1)
                self.top_interferer[start:stop] = self.tx[second_rows]
                np.divide(
                    rows[cols, second_rows],
                    interference,
                    out=self.top_fraction[start:stop],
                    where=interference > 0.0,
                )

    def publish(self, bus: "ProbeBus", delivered: np.ndarray, beta: float) -> None:
        """Emit the round's :class:`SINRProbe`; ``delivered`` is the decode."""
        bus.emit_sinr(
            receivers=self.listeners.astype(np.int64),
            sinr=self.sinr,
            delivered=delivered,
            top_interferer=self.top_interferer,
            top_fraction=self.top_fraction,
            beta=beta,
        )


#: ``snapshot()`` column names and dtypes — the ``probes.npz`` layout.
_COLUMNS: Tuple[Tuple[str, object], ...] = (
    ("rounds_trial", np.int64),
    ("rounds_round", np.int64),
    ("rounds_active", np.int64),
    ("rounds_tx", np.int64),
    ("rounds_knockouts", np.int64),
    ("rounds_pending", np.int64),
    ("sinr_trial", np.int64),
    ("sinr_round", np.int64),
    ("sinr_receiver", np.int64),
    ("sinr_value", np.float64),
    ("sinr_margin", np.float64),
    ("sinr_beta", np.float64),
    ("sinr_delivered", np.bool_),
    ("sinr_top_interferer", np.int64),
    ("sinr_top_fraction", np.float64),
    ("class_trial", np.int64),
    ("class_round", np.int64),
    ("class_index", np.int64),
    ("class_size", np.int64),
    ("class_knocked", np.int64),
    ("deact_trial", np.int64),
    ("deact_node", np.int64),
    ("deact_round", np.int64),
    ("exec_trial", np.int64),
    ("exec_n", np.int64),
    ("exec_rounds", np.int64),
    ("exec_solved", np.int64),
)


class _Column:
    """One ``probes.npz`` column: numpy chunks plus an open list of scalars.

    Scalars (one per round or execution) append to the open list; arrays
    close it into a chunk first, so rows keep their publication order.
    """

    __slots__ = ("dtype", "chunks", "tail")

    def __init__(self, dtype) -> None:
        self.dtype = dtype
        self.chunks: List[np.ndarray] = []
        self.tail: List = []

    def append(self, value) -> None:
        self.tail.append(value)

    def extend(self, values) -> None:
        if self.tail:
            self.chunks.append(np.asarray(self.tail, dtype=self.dtype))
            self.tail = []
        self.chunks.append(np.array(values, dtype=self.dtype))

    def __len__(self) -> int:
        return sum(chunk.size for chunk in self.chunks) + len(self.tail)

    def array(self) -> np.ndarray:
        chunks = self.chunks
        if self.tail:
            chunks = chunks + [np.asarray(self.tail, dtype=self.dtype)]
        if not chunks:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(chunks)


class ProbeRecorder:
    """Columnar accumulator for every probe kind — the flight recorder.

    Rows are appended in publication order; :meth:`snapshot` materialises
    them as numpy arrays keyed by the ``probes.npz`` column names (row
    groups: ``rounds_*``, ``sinr_*``, ``class_*``, ``deact_*``,
    ``exec_*``; ``exec_solved`` is ``-1`` for unsolved executions).
    Columns are kept as numpy chunks that :meth:`snapshot` concatenates,
    so recording copies each probe's arrays once and loops over no
    element. :meth:`absorb` extends with another recorder's snapshot,
    which is how the parallel runner reassembles worker shards (workers
    own contiguous ascending trial ranges, so absorbing in worker order
    preserves the serial row order exactly).
    """

    def __init__(self) -> None:
        self._columns: Dict[str, _Column] = {
            name: _Column(dtype) for name, dtype in _COLUMNS
        }

    # -- bus subscriber interface ----------------------------------------

    def on_round(self, probe: RoundProbe) -> None:
        cols = self._columns
        trial, round_index = probe.trial, probe.round_index
        cols["rounds_trial"].append(trial)
        cols["rounds_round"].append(round_index)
        cols["rounds_active"].append(probe.active_before)
        cols["rounds_tx"].append(probe.tx_count)
        cols["rounds_knockouts"].append(probe.knockouts)
        cols["rounds_pending"].append(probe.pending)
        if probe.class_stats:
            stats = np.array(probe.class_stats, dtype=np.int64)
            count = stats.shape[0]
            cols["class_trial"].extend(np.full(count, trial))
            cols["class_round"].extend(np.full(count, round_index))
            cols["class_index"].extend(stats[:, 0])
            cols["class_size"].extend(stats[:, 1])
            cols["class_knocked"].extend(stats[:, 2])
        if probe.knocked_ids:
            count = len(probe.knocked_ids)
            cols["deact_trial"].extend(np.full(count, trial))
            cols["deact_node"].extend(probe.knocked_ids)
            cols["deact_round"].extend(np.full(count, round_index))

    def on_sinr(self, probe: SINRProbe) -> None:
        cols = self._columns
        count = len(probe.receivers)
        cols["sinr_trial"].extend(np.full(count, probe.trial))
        cols["sinr_round"].extend(np.full(count, probe.round_index))
        cols["sinr_receiver"].extend(probe.receivers)
        cols["sinr_value"].extend(probe.sinr)
        cols["sinr_margin"].extend(probe.margin)
        cols["sinr_beta"].extend(np.full(count, probe.beta))
        cols["sinr_delivered"].extend(probe.delivered)
        cols["sinr_top_interferer"].extend(probe.top_interferer)
        cols["sinr_top_fraction"].extend(probe.top_fraction)

    def on_execution_end(self, probe: ExecutionProbe) -> None:
        cols = self._columns
        cols["exec_trial"].append(probe.trial)
        cols["exec_n"].append(probe.n)
        cols["exec_rounds"].append(probe.rounds_executed)
        cols["exec_solved"].append(
            -1 if probe.solved_round is None else int(probe.solved_round)
        )

    # -- materialisation --------------------------------------------------

    @property
    def executions_recorded(self) -> int:
        return len(self._columns["exec_trial"])

    @property
    def rounds_recorded(self) -> int:
        return len(self._columns["rounds_trial"])

    def snapshot(self) -> Dict[str, np.ndarray]:
        """All columns as typed numpy arrays (empty columns included)."""
        return {name: column.array() for name, column in self._columns.items()}

    def absorb(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Append another recorder's snapshot (shard reassembly)."""
        for name, column in self._columns.items():
            values = snapshot.get(name)
            if values is not None:
                column.extend(values)

    def write(self, path: PathLike) -> Path:
        """Write the recorder as a compressed ``probes.npz``.

        The archive is laid out as :func:`numpy.savez_compressed` lays it
        out, one ``<column>.npy`` member each, but deflated at level 1:
        about twice as fast to write as the default level, for a file ~4%
        larger. Serialised to memory first and placed with
        :func:`repro.obs.atomic.atomic_write_bytes`, so a kill mid-write
        cannot leave a truncated archive at ``path``.
        """
        import io
        import zipfile

        from repro.obs.atomic import atomic_write_bytes

        path = Path(path)
        buffer = io.BytesIO()
        columns = {"format_version": np.int64(PROBES_FORMAT_VERSION), **self.snapshot()}
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as archive:
            for name, values in columns.items():
                with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, np.asanyarray(values))
        atomic_write_bytes(path, buffer.getvalue())
        return path


def load_probes(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a ``probes.npz`` back as a ``{column: array}`` mapping."""
    with np.load(Path(path)) as archive:
        version = int(archive.get("format_version", -1))
        if version != PROBES_FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported probe format version {version}"
            )
        missing = [name for name, _ in _COLUMNS if name not in archive]
        if missing:
            raise ValueError(f"{path}: probe columns missing: {missing}")
        return {name: archive[name] for name, _ in _COLUMNS}


#: The process-global probe bus. Disabled by default — simulations publish
#: nothing until a probes-enabled TelemetrySession (or an explicit
#: ``set_probe_bus``) switches it on.
_default_bus = ProbeBus(enabled=False)


def get_probe_bus() -> ProbeBus:
    """The process-global probe bus the simulation hot paths consult."""
    return _default_bus


def set_probe_bus(bus: ProbeBus) -> ProbeBus:
    """Install ``bus`` globally; returns the previous bus for restoration."""
    global _default_bus
    previous = _default_bus
    _default_bus = bus
    return previous
