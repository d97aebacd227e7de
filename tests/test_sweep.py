"""Crash-tolerant sweeps: atomic writes, checkpoints, resume, interrupts.

The load-bearing tests are the parity ones: an interrupted-then-resumed
sweep must produce reports and metrics identical (modulo wall-clock
timings) to an uninterrupted run — the ``--resume`` contract of
`repro.experiments.sweep`. The crash-injection tests pin the failure
paths themselves: no truncated JSON after a simulated kill, manifests
finalised with ``status="interrupted"``, corrupt checkpoints ignored.
"""

import dataclasses
import json
import os
import signal

import numpy as np
import pytest

from repro.experiments.__main__ import main
from repro.experiments.common import ExperimentResult, json_safe
from repro.experiments.sweep import (
    CHECKPOINT_FORMAT,
    CheckpointStore,
    SweepInterrupted,
    config_key,
    isolated_metrics,
    termination_signals_as_interrupts,
)
from repro.obs.atomic import atomic_write_json, atomic_write_text
from repro.obs.events import read_events
from repro.obs.manifest import RunManifest
from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.reporting.markdown import render_result_markdown, strip_cost_tables


@dataclasses.dataclass(frozen=True)
class _Config:
    sizes: tuple = (8, 16)
    trials: int = 4
    seed: int = 7


class TestAtomicWrites:
    def test_writes_content_with_trailing_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"a": 1})
        assert path.read_text() == '{\n  "a": 1\n}\n'

    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"version": 1})
        atomic_write_json(path, {"version": 2})
        assert json.loads(path.read_text()) == {"version": 2}

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_json(tmp_path / "doc.json", {"a": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_serialisation_error_touches_nothing(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"ok": True})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()}, default=None)
        assert json.loads(path.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_crash_during_replace_preserves_destination(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"generation": 1})

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr("repro.obs.atomic.os.replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_json(path, {"generation": 2})
        monkeypatch.undo()
        # Old content intact, no temp litter.
        assert json.loads(path.read_text()) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_text_helper_round_trips_unicode(self, tmp_path):
        path = tmp_path / "note.txt"
        atomic_write_text(path, "β ≥ 1\n")
        assert path.read_text(encoding="utf-8") == "β ≥ 1\n"

    def test_manifest_and_metrics_writes_are_atomic(self, tmp_path, monkeypatch):
        """The telemetry artifacts route through the atomic helper."""
        calls = []

        def recording_write(path, document, **kwargs):
            calls.append(os.path.basename(str(path)))
            return path

        monkeypatch.setattr(
            "repro.obs.manifest.atomic_write_json", recording_write
        )
        monkeypatch.setattr(
            "repro.obs.telemetry.atomic_write_json", recording_write
        )
        from repro.obs.telemetry import TelemetrySession

        session = TelemetrySession(tmp_path / "run", seed=1)
        session.start()
        session.finish()
        assert "manifest.json" in calls
        assert "metrics.json" in calls


class TestJsonSafe:
    def test_numpy_scalars_become_python(self):
        converted = json_safe(
            {"f": np.float64(1.5), "i": np.int64(3), "b": np.bool_(True)}
        )
        assert converted == {"f": 1.5, "i": 3, "b": True}
        assert type(converted["f"]) is float
        assert type(converted["i"]) is int
        assert type(converted["b"]) is bool

    def test_nested_tuples_become_lists(self):
        assert json_safe(((1, 2), [3, (4,)])) == [[1, 2], [3, [4]]]

    def test_arrays_become_lists(self):
        assert json_safe(np.arange(3)) == [0, 1, 2]

    def test_floats_round_trip_bit_exactly(self):
        values = [0.1, 1 / 3, 2.0 ** -40, 1e300, float(np.float64(np.pi))]
        restored = json.loads(json.dumps(json_safe(values)))
        assert all(a == b for a, b in zip(values, restored))


class TestConfigKey:
    def test_stable_across_calls(self):
        assert config_key("E1", "quick", _Config()) == config_key(
            "E1", "quick", _Config()
        )

    def test_seed_changes_key(self):
        assert config_key("E1", "quick", _Config(seed=7)) != config_key(
            "E1", "quick", _Config(seed=8)
        )

    def test_preset_and_id_change_key(self):
        base = config_key("E1", "quick", _Config())
        assert config_key("E1", "full", _Config()) != base
        assert config_key("E2", "quick", _Config()) != base

    def test_real_experiment_configs_are_hashable(self):
        from repro.experiments import REGISTRY

        keys = {
            experiment_id: config_key(
                experiment_id, "quick", REGISTRY[experiment_id].Config.quick()
            )
            for experiment_id in REGISTRY
        }
        assert len(set(keys.values())) == len(keys)


class TestResultRoundTrip:
    def _result(self):
        result = ExperimentResult(
            experiment_id="EX",
            title="round trip",
            header=["n", "mean", "ok"],
            rows=[
                [np.int64(8), np.float64(1 / 3), np.bool_(True)],
                [16, 0.1, False],
            ],
            checks={"shape_holds": np.bool_(True)},
            notes=["fitted c = 1.234"],
        )
        result.add_timing("n=8", 0.5, 1234.5)
        return result

    def test_format_identical_after_round_trip(self):
        original = self._result()
        restored = ExperimentResult.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert restored.format() == original.format()

    def test_markdown_identical_after_round_trip(self):
        original = self._result()
        restored = ExperimentResult.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert render_result_markdown(restored) == render_result_markdown(original)

    def test_checks_and_pass_preserved(self):
        restored = ExperimentResult.from_dict(self._result().to_dict())
        assert restored.checks == {"shape_holds": True}
        assert restored.passed


class TestCheckpointStore:
    def _result(self):
        return ExperimentResult("E1", "t", ["a"], rows=[[1]], checks={"ok": True})

    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        key = config_key("E1", "quick", _Config())
        store.save("E1", key, "quick", self._result(), 1.5, metrics={"m": {"type": "counter", "value": 3}})
        checkpoint = store.load("E1", key)
        assert checkpoint is not None
        assert checkpoint.result.format() == self._result().format()
        assert checkpoint.elapsed_s == 1.5
        assert checkpoint.metrics == {"m": {"type": "counter", "value": 3}}

    def test_key_mismatch_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("E1", "aaaa", "quick", self._result(), 1.0)
        assert store.load("E1", "bbbb") is None

    def test_missing_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("E1", "aaaa") is None

    def test_corrupt_file_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path_for("E1").write_text('{"format": "repro-sweep-checkpo')
        assert store.load("E1", "aaaa") is None

    def test_truncated_checkpoint_never_exists_after_kill(self, tmp_path, monkeypatch):
        """A crash mid-save leaves either no checkpoint or a complete one."""
        store = CheckpointStore(tmp_path)

        def exploding_replace(src, dst):
            raise OSError("killed")

        monkeypatch.setattr("repro.obs.atomic.os.replace", exploding_replace)
        with pytest.raises(OSError):
            store.save("E1", "aaaa", "quick", self._result(), 1.0)
        monkeypatch.undo()
        assert not store.path_for("E1").exists()
        assert list(tmp_path.iterdir()) == []

    def test_foreign_format_and_version_skew_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path_for("E1").write_text(json.dumps({"format": "other", "key": "k"}))
        assert store.load("E1", "k") is None
        store.path_for("E2").write_text(
            json.dumps({"format": CHECKPOINT_FORMAT, "version": 999, "key": "k",
                        "experiment": "E2"})
        )
        assert store.load("E2", "k") is None


class TestIsolatedMetrics:
    def test_delta_captured_and_merged_back(self):
        parent = MetricsRegistry(enabled=True)
        previous = set_registry(parent)
        try:
            parent.counter("runner.trials").inc(5)
            with isolated_metrics(True) as capture:
                get_registry().counter("runner.trials").inc(2)
            delta = capture()
        finally:
            set_registry(previous)
        assert delta["runner.trials"]["value"] == 2
        assert parent.counter("runner.trials").value == 7

    def test_partial_metrics_merged_on_exception(self):
        parent = MetricsRegistry(enabled=True)
        previous = set_registry(parent)
        try:
            with pytest.raises(RuntimeError):
                with isolated_metrics(True):
                    get_registry().counter("sim.rounds").inc(3)
                    raise RuntimeError("mid-experiment crash")
        finally:
            set_registry(previous)
        assert parent.counter("sim.rounds").value == 3

    def test_disabled_isolation_is_a_no_op(self):
        parent = get_registry()
        with isolated_metrics(False) as capture:
            assert get_registry() is parent
        assert capture() is None


class TestTerminationSignals:
    def test_sigterm_raises_sweep_interrupted(self):
        with pytest.raises(SweepInterrupted) as excinfo:
            with termination_signals_as_interrupts():
                os.kill(os.getpid(), signal.SIGTERM)
        assert excinfo.value.signum == signal.SIGTERM

    def test_sigint_raises_sweep_interrupted(self):
        with pytest.raises(SweepInterrupted):
            with termination_signals_as_interrupts():
                os.kill(os.getpid(), signal.SIGINT)

    def test_handlers_restored_after_block(self):
        before_term = signal.getsignal(signal.SIGTERM)
        before_int = signal.getsignal(signal.SIGINT)
        with termination_signals_as_interrupts():
            assert signal.getsignal(signal.SIGTERM) is not before_term
        assert signal.getsignal(signal.SIGTERM) is before_term
        assert signal.getsignal(signal.SIGINT) is before_int

    def test_sweep_interrupted_is_keyboard_interrupt(self):
        # `except Exception` in experiment code must never swallow it.
        assert issubclass(SweepInterrupted, KeyboardInterrupt)
        assert not issubclass(SweepInterrupted, Exception)


#: A pair of sub-second quick experiments used by the CLI-level tests.
SWEEP_IDS = "E5,E7"


def _strip_seconds(metrics_path):
    """metrics.json minus the ``*_seconds`` timing histograms."""
    with open(metrics_path) as handle:
        snapshot = json.load(handle)
    return {
        name: entry
        for name, entry in snapshot.items()
        if not name.endswith("_seconds")
    }


class TestCliCheckpointResume:
    def _run(self, tmp_path, label, extra=()):
        base = tmp_path / label
        argv = [
            SWEEP_IDS,
            "--checkpoint-dir", str(base / "ckpt"),
            "--telemetry-dir", str(base / "telemetry"),
            "--report", str(base / "report.md"),
            *extra,
        ]
        return main(argv), base

    def test_interrupted_then_resumed_equals_uninterrupted(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.experiments.e7_hitting_game as e7

        # Uninterrupted reference run.
        exit_code, reference = self._run(tmp_path, "reference")
        assert exit_code == 0

        # Interrupted run: the signal lands while E7 executes.
        original_run = e7.run

        def interrupted_run(config):
            raise SweepInterrupted(signal.SIGTERM)

        monkeypatch.setattr(e7, "run", interrupted_run)
        exit_code, partial = self._run(tmp_path, "partial")
        assert exit_code == 130
        capsys.readouterr()

        manifest = RunManifest.load(partial / "telemetry" / "manifest.json")
        assert manifest.status == "interrupted"
        events = read_events(partial / "telemetry" / "events.jsonl")
        assert events[-1]["event"] == "session_end"
        assert events[-1]["status"] == "interrupted"
        assert any(e["event"] == "sweep_interrupted" for e in events)
        # E5 completed and is checkpointed; E7 never finished.
        ckpt = partial / "ckpt"
        assert (ckpt / "E5.checkpoint.json").exists()
        assert not (ckpt / "E7.checkpoint.json").exists()
        # No report was written for the interrupted run.
        assert not (partial / "report.md").exists()

        # Resume with the real E7 into the same checkpoint directory.
        monkeypatch.setattr(e7, "run", original_run)
        argv = [
            SWEEP_IDS,
            "--checkpoint-dir", str(ckpt),
            "--resume",
            "--telemetry-dir", str(partial / "telemetry_resumed"),
            "--report", str(partial / "report.md"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out

        # Report parity: byte-identical modulo the Cost (timing) tables.
        reference_report = (reference / "report.md").read_text()
        resumed_report = (partial / "report.md").read_text()
        assert strip_cost_tables(resumed_report) == strip_cost_tables(
            reference_report
        )
        # Metrics parity: byte-identical modulo *_seconds histograms.
        assert _strip_seconds(
            partial / "telemetry_resumed" / "metrics.json"
        ) == _strip_seconds(reference / "telemetry" / "metrics.json")

    def test_resume_skips_nothing_on_key_mismatch(self, tmp_path, capsys, monkeypatch):
        import repro.experiments.e7_hitting_game as e7

        # Checkpoint under the quick preset...
        exit_code, base = self._run(tmp_path, "quick")
        assert exit_code == 0
        capsys.readouterr()
        # ...then resume E7 under --full: keys differ, so it re-runs. The
        # "full" preset here is the quick one under another seed, so the
        # key differs by both preset and config without E7's full cost.
        quick = e7.Config.quick()
        monkeypatch.setattr(
            e7.Config,
            "full",
            classmethod(lambda cls: dataclasses.replace(quick, seed=quick.seed + 1)),
        )
        argv = [
            "E7",
            "--full",
            "--checkpoint-dir", str(base / "ckpt"),
            "--resume",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" not in out

    def test_resume_ignores_corrupt_checkpoint(self, tmp_path, capsys):
        exit_code, base = self._run(tmp_path, "seed")
        assert exit_code == 0
        capsys.readouterr()
        (base / "ckpt" / "E5.checkpoint.json").write_text("{truncated")
        argv = [
            "E5",
            "--checkpoint-dir", str(base / "ckpt"),
            "--resume",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" not in out
        # The re-run rewrote a valid checkpoint.
        assert json.loads(
            (base / "ckpt" / "E5.checkpoint.json").read_text()
        )["format"] == CHECKPOINT_FORMAT

    def test_checkpointing_leaves_metrics_unchanged(self, tmp_path):
        """--checkpoint-dir must not perturb metrics.json vs a plain run."""
        plain = tmp_path / "plain"
        assert main([
            "E5", "--telemetry-dir", str(plain / "telemetry"),
        ]) == 0
        exit_code, checkpointed = self._run(tmp_path, "checkpointed_e5")
        assert exit_code == 0
        plain_metrics = _strip_seconds(plain / "telemetry" / "metrics.json")
        sweep_metrics = _strip_seconds(
            checkpointed / "telemetry" / "metrics.json"
        )
        # The sweep ran E5 and E7; restrict to E5's footprint by
        # comparing the shared keys' E5-only counters is impossible —
        # instead re-run just E5 through the sweep path.
        del sweep_metrics
        exit_code = main([
            "E5",
            "--checkpoint-dir", str(tmp_path / "solo_ckpt"),
            "--telemetry-dir", str(tmp_path / "solo_telemetry"),
        ])
        assert exit_code == 0
        assert _strip_seconds(tmp_path / "solo_telemetry" / "metrics.json") == \
            plain_metrics

    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["E5", "--resume"])
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_probes_incompatible_with_resume(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "E5", "--probes",
                "--telemetry-dir", str(tmp_path / "t"),
                "--checkpoint-dir", str(tmp_path / "c"),
                "--resume",
            ])
        assert "--probes cannot be combined" in capsys.readouterr().err


class TestCommaSeparatedIds:
    def test_runs_subset_in_given_order(self, capsys):
        assert main(["E7,E5"]) == 0
        out = capsys.readouterr().out
        assert out.index("== E7") < out.index("== E5")
        assert "== scoreboard ==" in out

    def test_unknown_id_in_list_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["E5,E99"])
        assert "unknown experiment" in capsys.readouterr().err

    def test_duplicates_deduped(self, capsys):
        assert main(["E7,e7"]) == 0
        assert capsys.readouterr().out.count("== E7") == 1


class TestStripCostTables:
    def test_removes_cost_sections_only(self):
        result = ExperimentResult(
            "E1", "t", ["a"], rows=[[1]], checks={"ok": True}, notes=["n"]
        )
        result.add_timing("stage", 1.23, 456.0)
        with_cost = render_result_markdown(result)
        result_no_cost = ExperimentResult(
            "E1", "t", ["a"], rows=[[1]], checks={"ok": True}, notes=["n"]
        )
        without_cost = render_result_markdown(result_no_cost)
        assert strip_cost_tables(with_cost).rstrip() == without_cost.rstrip()
        assert "wall_time_s" not in strip_cost_tables(with_cost)

    def test_identity_without_cost_tables(self):
        text = "# title\n\n| a |\n|---|\n| 1 |\n"
        assert strip_cost_tables(text) == text
