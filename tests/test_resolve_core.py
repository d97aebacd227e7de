"""Each channel's public ``resolve`` against its id-array core ``resolve_ids``.

``resolve`` validates and deduplicates a round's ids
(:func:`repro.radio.channel.round_ids`) and hands them to
``resolve_ids``, which the engine calls directly with its own sorted,
disjoint ids. On the same ids the two must give bit-identical reports,
leave the generator in the same state and feed the same ``channel.*``
counters; only the public call checks its ids.
"""

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry, set_registry
from repro.radio.channel import RadioChannel, round_ids
from repro.sim.seeding import generator_from
from tests.test_matrix_free import DEPLOYMENTS
from tests.test_report_oracles import SINR_CHANNELS, _rounds

_POSITIONS = DEPLOYMENTS["clustered"]

CHANNELS = {
    **{name: (lambda make=make: make(_POSITIONS)) for name, make in SINR_CHANNELS.items()},
    "radio": lambda: RadioChannel(len(_POSITIONS)),
    "radio_cd": lambda: RadioChannel(len(_POSITIONS), collision_detection=True),
}


def _fields(report):
    """Every array a report holds, plus the radio observation."""
    names = ("tx_ids", "listener_ids", "decoded", "listener_energy")
    return {
        **{name: getattr(report, name) for name in names if hasattr(report, name)},
        "observation": report.observation,
    }


def _assert_same_report(report, expected):
    fields, wanted = _fields(report), _fields(expected)
    assert fields.keys() == wanted.keys()
    for name, value in wanted.items():
        if isinstance(value, np.ndarray):
            assert fields[name].dtype == value.dtype, name
            assert fields[name].tobytes() == value.tobytes(), name
        else:
            assert fields[name] is value, name


class TestPublicResolveValidates:
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize(
        "tx,listeners,role",
        [
            ([-1], None, "transmitter"),
            ([0, "n"], None, "transmitter"),
            ([0], [1, -1], "listener"),
            ([0], [1, "n"], "listener"),
        ],
    )
    def test_out_of_range_ids_raise(self, channel, tx, listeners, role):
        built = CHANNELS[channel]()

        def ids(values):
            return None if values is None else [built.n if i == "n" else i for i in values]

        with pytest.raises(IndexError, match=f"{role} index out of range"):
            built.resolve(ids(tx), rng=generator_from(0), listeners=ids(listeners))

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_duplicates_are_ignored(self, channel):
        built = CHANNELS[channel]()
        for tx, listeners in ([[3, 3, 5], [1, 1, 2, 5, 2]], [[7, 7], None], [[], [4, 4]]):
            report = built.resolve(tx, rng=generator_from(1), listeners=listeners)
            expected = built.resolve_ids(
                np.unique(np.asarray(tx, dtype=np.intp)),
                np.setdiff1d(
                    np.arange(built.n) if listeners is None else listeners, tx
                ).astype(np.intp),
                generator_from(1),
            )
            _assert_same_report(report, expected)


def _resolve_all(channel, rounds, core):
    """Every round's report through ``resolve`` or ``resolve_ids``, and the generator."""
    rng = generator_from(17)
    reports = []
    for tx, listeners in rounds:
        if core:
            reports.append(channel.resolve_ids(*round_ids(tx, listeners, channel.n), rng))
        else:
            reports.append(channel.resolve(tx, rng=rng, listeners=listeners))
    return reports, rng.bit_generator.state


class TestCoreEqualsPublic:
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_reports_and_generator_state(self, channel):
        built = CHANNELS[channel]()
        rounds = list(_rounds(built.n, seed=5, count=36))
        public, public_state = _resolve_all(built, rounds, core=False)
        core, core_state = _resolve_all(built, rounds, core=True)
        for report, expected in zip(core, public):
            _assert_same_report(report, expected)
        assert core_state == public_state

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_counters(self, channel):
        def snapshot(core):
            registry = MetricsRegistry(enabled=True)
            previous = set_registry(registry)
            try:
                _resolve_all(CHANNELS[channel](), rounds, core)
            finally:
                set_registry(previous)
            # Timings differ; the number of timed calls may not.
            return {
                name: entry["count"] if name.endswith("_seconds") else entry
                for name, entry in registry.snapshot().items()
            }

        rounds = list(_rounds(len(_POSITIONS), seed=6, count=24))
        public = snapshot(core=False)
        kind = "radio" if channel.startswith("radio") else "sinr"
        assert public[f"channel.{kind}.resolve_calls"]["value"] == len(rounds)
        assert public[f"channel.{kind}.resolve_seconds"] == len(rounds)
        assert snapshot(core=True) == public
