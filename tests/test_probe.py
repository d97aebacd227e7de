"""Probe bus + recorder: publication, trial numbering, npz round-trips.

The flight recorder's contract has three legs: the bus stamps probes with
correct (trial, round) coordinates, the recorder lays them out in the
stable 27-column ``probes.npz`` schema, and an enabled bus never perturbs
simulation results (no extra RNG draws). The last leg is what makes
``--probes`` safe to flip on for any reproduction run.
"""

import numpy as np
import pytest

from repro.deploy.topologies import uniform_disk
from repro.obs.probe import (
    PROBES_FILENAME,
    ProbeBus,
    ProbeRecorder,
    get_probe_bus,
    load_probes,
    set_probe_bus,
)
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel
from tests.dense_geometry import link_class_round_stats

N = 24
MAX_ROUNDS = 4_000


def _channel(seed=5):
    return SINRChannel(uniform_disk(N, generator_from(seed)))


def _run_engine(channel, seed=6):
    nodes = FixedProbabilityProtocol(p=0.2).build(channel.n)
    return Simulation(
        channel, nodes, rng=generator_from(seed), max_rounds=MAX_ROUNDS
    ).run()


def _recorded(run, *, bus=None):
    bus = bus if bus is not None else ProbeBus(enabled=True)
    recorder = ProbeRecorder()
    bus.subscribe(recorder)
    previous = set_probe_bus(bus)
    try:
        result = run()
    finally:
        set_probe_bus(previous)
    return result, recorder


class TestBusCoordinates:
    def test_disabled_by_default(self):
        assert ProbeBus().enabled is False
        assert get_probe_bus().enabled is False

    def test_set_trial_pins_next_execution(self):
        bus = ProbeBus(enabled=True)
        bus.set_trial(7)
        assert bus.begin_execution(n=4) == 7
        # After the pinned execution, auto-increment continues from it.
        assert bus.begin_execution(n=4) == 8

    def test_auto_increment_for_bare_simulations(self):
        bus = ProbeBus(enabled=True)
        assert bus.begin_execution(n=4) == 0
        assert bus.begin_execution(n=4) == 1
        assert bus.begin_execution(n=4) == 2

    def test_set_probe_bus_returns_previous(self):
        original = get_probe_bus()
        replacement = ProbeBus(enabled=True)
        assert set_probe_bus(replacement) is original
        try:
            assert get_probe_bus() is replacement
        finally:
            set_probe_bus(original)

    def test_unsubscribe(self):
        bus = ProbeBus(enabled=True)
        recorder = ProbeRecorder()
        bus.subscribe(recorder)
        bus.unsubscribe(recorder)
        bus.emit_round(active_before=3, tx_count=1, knockouts=0)
        assert recorder.rounds_recorded == 0


class TestEnginePublication:
    def test_engine_records_rounds_and_execution(self):
        trace, recorder = _recorded(lambda: _run_engine(_channel()))
        snap = recorder.snapshot()
        assert recorder.executions_recorded == 1
        assert snap["exec_n"][0] == N
        assert snap["exec_rounds"][0] == trace.rounds_executed
        assert snap["exec_solved"][0] == (
            trace.solved_round if trace.solved else -1
        )
        assert recorder.rounds_recorded == trace.rounds_executed
        # Round indices are consecutive from zero for a single execution.
        assert snap["rounds_round"].tolist() == list(range(trace.rounds_executed))
        assert (snap["rounds_trial"] == 0).all()

    def test_deactivation_rounds_cover_knocked_nodes(self):
        trace, recorder = _recorded(lambda: _run_engine(_channel()))
        snap = recorder.snapshot()
        # Every knockout the rounds stream counts appears as one
        # per-node deactivation row, and no node deactivates twice.
        assert snap["deact_node"].size == snap["rounds_knockouts"].sum()
        assert np.unique(snap["deact_node"]).size == snap["deact_node"].size

    def test_sinr_probe_margins_and_delivery_agree(self):
        _, recorder = _recorded(lambda: _run_engine(_channel()))
        snap = recorder.snapshot()
        assert snap["sinr_receiver"].size > 0
        np.testing.assert_allclose(
            snap["sinr_margin"], snap["sinr_value"] - snap["sinr_beta"]
        )
        delivered = snap["sinr_delivered"]
        # Delivered implies SINR >= beta (up to rounding) — the monitor's
        # invariant, checked here directly on the recorded stream.
        assert (snap["sinr_value"][delivered] >= snap["sinr_beta"][delivered] * (1 - 1e-9)).all()

    def test_class_stats_sizes_sum_to_active(self):
        _, recorder = _recorded(lambda: _run_engine(_channel()))
        snap = recorder.snapshot()
        first_round = snap["class_round"] == 0
        assert snap["class_size"][first_round].sum() == snap["rounds_active"][0]

    def test_probes_do_not_change_engine_results(self):
        bare = _run_engine(_channel())
        probed, _ = _recorded(lambda: _run_engine(_channel()))
        assert probed.rounds_executed == bare.rounds_executed
        assert probed.solved_round == bare.solved_round


class TestFastPathPublication:
    def test_fast_path_records_and_matches_bare_run(self):
        channel = _channel()
        bare = fast_fixed_probability_run(
            channel, 0.2, generator_from(11), max_rounds=MAX_ROUNDS
        )
        probed, recorder = _recorded(
            lambda: fast_fixed_probability_run(
                channel, 0.2, generator_from(11), max_rounds=MAX_ROUNDS
            )
        )
        assert probed.rounds_executed == bare.rounds_executed
        assert probed.rounds_to_solve == bare.rounds_to_solve
        snap = recorder.snapshot()
        assert snap["exec_rounds"][0] == probed.rounds_executed
        assert snap["rounds_active"].tolist() == [
            int(c) for c in probed.active_counts
        ]


class TestRecorderRoundTrip:
    def test_npz_round_trip(self, tmp_path):
        _, recorder = _recorded(lambda: _run_engine(_channel()))
        path = recorder.write(tmp_path / PROBES_FILENAME)
        loaded = load_probes(path)
        snap = recorder.snapshot()
        assert set(loaded) == set(snap)
        for column in snap:
            assert np.array_equal(loaded[column], snap[column]), column
            assert loaded[column].dtype == snap[column].dtype, column

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, format_version=np.int64(999))
        with pytest.raises(ValueError, match="version"):
            load_probes(path)

    def test_load_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez_compressed(
            path, format_version=np.int64(1), rounds_trial=np.zeros(1, np.int64)
        )
        with pytest.raises(ValueError, match="columns missing"):
            load_probes(path)

    def test_absorb_preserves_row_order(self):
        first = ProbeRecorder()
        second = ProbeRecorder()
        bus = ProbeBus(enabled=True)
        bus.subscribe(first)
        bus.set_trial(0)
        bus.begin_execution(n=4)
        bus.emit_round(active_before=4, tx_count=2, knockouts=1, knocked_ids=(3,))
        bus.end_execution(5, None)
        bus.unsubscribe(first)
        bus.subscribe(second)
        bus.set_trial(1)
        bus.begin_execution(n=4)
        bus.emit_round(active_before=3, tx_count=1, knockouts=0)
        bus.end_execution(2, 1)

        merged = ProbeRecorder()
        merged.absorb(first.snapshot())
        merged.absorb(second.snapshot())
        snap = merged.snapshot()
        assert snap["rounds_trial"].tolist() == [0, 1]
        assert snap["exec_trial"].tolist() == [0, 1]
        assert snap["exec_solved"].tolist() == [-1, 1]
        assert snap["deact_node"].tolist() == [3]

    def test_empty_recorder_snapshot_types(self):
        snap = ProbeRecorder().snapshot()
        assert all(array.size == 0 for array in snap.values())
        assert snap["sinr_value"].dtype == np.float64
        assert snap["sinr_delivered"].dtype == np.bool_


class TestLinkClassRoundStats:
    def test_matches_partition_sizes(self):
        from repro.analysis.linkclasses import link_class_partition
        from repro.sinr.geometry import pairwise_distances

        positions = uniform_disk(N, generator_from(5))
        distances = pairwise_distances(positions)
        mask = np.ones(N, dtype=bool)
        stats = link_class_round_stats(distances, mask, knocked_ids=(0, 1))
        partition = link_class_partition(positions, active=mask)
        assert {index: size for index, size, _ in stats} == {
            index: len(members) for index, members in partition.members.items()
        }
        knocked_total = sum(knocked for _, _, knocked in stats)
        assert knocked_total == 2


class _ListRecorder:
    """The recorder's row order as plain per-element lists: the reference."""

    def __init__(self):
        self.rows = {name: [] for name in ProbeRecorder().snapshot()}

    def on_round(self, probe):
        rows = self.rows
        for name, value in (
            ("rounds_trial", probe.trial),
            ("rounds_round", probe.round_index),
            ("rounds_active", probe.active_before),
            ("rounds_tx", probe.tx_count),
            ("rounds_knockouts", probe.knockouts),
            ("rounds_pending", probe.pending),
        ):
            rows[name].append(value)
        for index, size, knocked in probe.class_stats:
            for name, value in (
                ("class_trial", probe.trial),
                ("class_round", probe.round_index),
                ("class_index", index),
                ("class_size", size),
                ("class_knocked", knocked),
            ):
                rows[name].append(value)
        for node in probe.knocked_ids:
            rows["deact_trial"].append(probe.trial)
            rows["deact_node"].append(node)
            rows["deact_round"].append(probe.round_index)

    def on_sinr(self, probe):
        for i in range(len(probe.receivers)):
            for name, value in (
                ("sinr_trial", probe.trial),
                ("sinr_round", probe.round_index),
                ("sinr_receiver", int(probe.receivers[i])),
                ("sinr_value", float(probe.sinr[i])),
                ("sinr_margin", float(probe.sinr[i]) - probe.beta),
                ("sinr_beta", probe.beta),
                ("sinr_delivered", bool(probe.delivered[i])),
                ("sinr_top_interferer", int(probe.top_interferer[i])),
                ("sinr_top_fraction", float(probe.top_fraction[i])),
            ):
                self.rows[name].append(value)

    def on_execution_end(self, probe):
        for name, value in (
            ("exec_trial", probe.trial),
            ("exec_n", probe.n),
            ("exec_rounds", probe.rounds_executed),
            ("exec_solved", -1 if probe.solved_round is None else probe.solved_round),
        ):
            self.rows[name].append(value)

    def absorb(self, snapshot):
        for name, values in snapshot.items():
            self.rows[name].extend(values.tolist())


class TestRecorderRowOrder:
    def test_interleaved_publication_and_absorb_keep_row_order(self):
        bus = ProbeBus(enabled=True)
        recorder, reference = ProbeRecorder(), _ListRecorder()
        bus.subscribe(recorder)
        bus.subscribe(reference)
        rng = np.random.default_rng(2)

        def worker_snapshot(trial):
            worker_bus = ProbeBus(enabled=True)
            worker = ProbeRecorder()
            worker_bus.subscribe(worker)
            worker_bus.set_trial(trial)
            worker_bus.begin_execution(n=9)
            worker_bus.emit_round(
                active_before=9, tx_count=2, knockouts=1, knocked_ids=(4,),
                class_stats=((0, 6, 1), (2, 3, 0)),
            )
            worker_bus.end_execution(1, None)
            return worker.snapshot()

        for trial in range(4):
            bus.set_trial(trial)
            bus.begin_execution(n=8)
            for round_index in range(3):
                bus.begin_round(round_index)
                count = int(rng.integers(0, 5))
                bus.emit_sinr(
                    receivers=rng.integers(0, 8, count),
                    sinr=rng.random(count) * 3.0,
                    delivered=rng.random(count) < 0.5,
                    top_interferer=rng.integers(-1, 8, count),
                    top_fraction=rng.random(count),
                    beta=1.5,
                )
                knocked = tuple(int(i) for i in rng.choice(8, int(rng.integers(0, 3)), replace=False))
                bus.emit_round(
                    active_before=8 - round_index,
                    tx_count=2,
                    knockouts=len(knocked),
                    knocked_ids=knocked,
                    pending=round_index % 2,
                    class_stats=((0, 5, len(knocked)), (1, 2, 0)) if round_index else (),
                )
            bus.end_execution(3, 2 if trial % 2 else None)
            bus.absorb(worker_snapshot(100 + trial))

        snap = recorder.snapshot()
        assert set(snap) == set(reference.rows)
        for name, values in reference.rows.items():
            expected = np.asarray(values, dtype=snap[name].dtype)
            assert snap[name].dtype == ProbeRecorder().snapshot()[name].dtype, name
            assert np.array_equal(snap[name], expected), name
        assert recorder.rounds_recorded == len(reference.rows["rounds_trial"])
        assert recorder.executions_recorded == 8


class TestSINRProbeNumerics:
    """Probe SINRs against an exactly rounded reference on a 48-class chain.

    On an exponential chain the candidate's signal dwarfs the rest of the
    sum, so ``total - best`` would lose every digit of the interference.
    """

    @staticmethod
    def _probes(run):
        probes = []

        class Collect:
            def on_sinr(self, probe):
                probes.append(probe)

        bus = ProbeBus(enabled=True)
        bus.subscribe(Collect())
        previous = set_probe_bus(bus)
        try:
            run()
        finally:
            set_probe_bus(previous)
        return probes

    @staticmethod
    def _check(channel, tx, probe):
        import math

        gains = channel.base_gains
        noise = channel.params.noise
        for col, listener in enumerate(probe.receivers.tolist()):
            column = gains[tx, listener]
            best = int(np.argmax(column))
            others = [float(g) for i, g in enumerate(column) if i != best]
            interference = math.fsum(others)
            sinr = float(column[best]) / (noise + interference)
            assert abs(probe.sinr[col] - sinr) <= 1e-12 * sinr
            top = max(others)
            assert abs(probe.top_fraction[col] - top / interference) <= 1e-12 * (
                top / interference
            )

    def test_channel_resolve(self):
        from repro.deploy.topologies import exponential_chain

        channel = SINRChannel(exponential_chain(48, 2))
        tx = np.arange(0, channel.n, 2)
        (probe,) = self._probes(lambda: channel.resolve(tx.tolist()))
        self._check(channel, tx, probe)

    def test_fast_path(self):
        from repro.deploy.topologies import exponential_chain

        channel = SINRChannel(exponential_chain(48, 2))
        tx = np.arange(0, channel.n, 2)

        class EvenNodesTransmit:
            """Coin flips that make exactly the even nodes transmit."""

            def random(self, size):
                return (np.arange(size) % 2).astype(float)

        probes = self._probes(
            lambda: fast_fixed_probability_run(channel, 0.5, EvenNodesTransmit(), max_rounds=1)
        )
        assert len(probes) == 1
        self._check(channel, tx, probes[0])
