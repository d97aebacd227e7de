"""Tests for the ``python -m repro.experiments`` command-line interface."""

import signal

import pytest

from repro.experiments import REGISTRY
from repro.experiments.__main__ import SweepInterrupted, main
from repro.experiments.common import ExperimentResult


class TestArgumentHandling:
    def test_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["E99"])
        assert "unknown experiment" in capsys.readouterr().err

    def test_case_insensitive_id(self, capsys):
        exit_code = main(["e13"])
        out = capsys.readouterr().out
        assert "E13" in out
        assert exit_code == 0

    def test_single_run_prints_table_and_checks(self, capsys):
        exit_code = main(["E7"])
        out = capsys.readouterr().out
        assert "check" in out
        assert "PASS" in out
        assert exit_code == 0

    def test_failed_check_exits_one(self, monkeypatch, capsys):
        class Failing:
            class Config:
                @classmethod
                def quick(cls):
                    return cls()

            @staticmethod
            def run(config):
                return ExperimentResult("E1", "stub", ["x"], [[1]], {"holds": False})

        monkeypatch.setitem(REGISTRY, "E1", Failing)
        exit_code = main(["E1,E13"])
        out = capsys.readouterr().out
        assert "E1   FAIL" in out and "E13  PASS" in out
        assert exit_code == 1

    def test_probes_without_telemetry_dir_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["E5", "--probes"])
        assert "--probes requires --telemetry-dir" in capsys.readouterr().err


class TestInterrupts:
    def test_interrupted_sweep_finalises_telemetry(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import e7_hitting_game as e7
        from repro.obs.events import read_events
        from repro.obs.manifest import RunManifest

        def interrupted_run(config):
            raise SweepInterrupted(signal.SIGTERM)

        # The signal lands while E7 executes, after E5 has completed.
        monkeypatch.setattr(e7, "run", interrupted_run)
        telemetry = tmp_path / "telemetry"
        report = tmp_path / "report.md"
        exit_code = main(
            ["E5,E7", "--telemetry-dir", str(telemetry), "--report", str(report)]
        )
        assert exit_code == 130
        assert "interrupted after 1/2" in capsys.readouterr().err

        manifest = RunManifest.load(telemetry / "manifest.json")
        assert manifest.status == "interrupted"
        events = read_events(telemetry / "events.jsonl")
        assert events[-1]["event"] == "session_end"
        assert events[-1]["status"] == "interrupted"
        interrupted = [e for e in events if e["event"] == "sweep_interrupted"]
        assert len(interrupted) == 1
        assert interrupted[0]["signum"] == signal.SIGTERM
        assert not report.exists()


class TestProbesFlag:
    def test_probes_run_writes_npz_and_analyzes(self, tmp_path, capsys):
        from repro.obs.analyze import main as analyze_main
        from repro.obs.probe import load_probes

        directory = tmp_path / "telemetry"
        exit_code = main(["E5", "--telemetry-dir", str(directory), "--probes"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "probes recorded" in out
        probes = load_probes(directory / "probes.npz")
        # E5 quick: one single-round execution per (size, trial) pair.
        from repro.experiments.e5_knockout import Config

        config = Config.quick()
        assert probes["exec_trial"].size == len(config.sizes) * config.trials
        # The recorded run must analyze cleanly end to end.
        assert analyze_main([str(directory)]) == 0
        assert "knockout fractions" in capsys.readouterr().out

    def test_probes_run_emits_no_warnings(self, tmp_path, capsys):
        from repro.obs.events import read_events

        directory = tmp_path / "telemetry"
        assert main(["E5", "--telemetry-dir", str(directory), "--probes"]) == 0
        capsys.readouterr()
        events = read_events(directory / "events.jsonl")
        assert [e for e in events if e.get("event") == "warning"] == []
        written = [e for e in events if e.get("event") == "probes_written"]
        assert len(written) == 1 and written[0]["executions"] > 0


class TestProfileFlag:
    def test_profile_prints_report(self, capsys):
        exit_code = main(["E5", "--profile"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "profile (cProfile)" in out
        assert "per-phase exclusive time" in out

    def test_profile_lands_in_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import RunManifest

        directory = tmp_path / "telemetry"
        exit_code = main(["E5", "--telemetry-dir", str(directory), "--profile"])
        capsys.readouterr()
        assert exit_code == 0
        manifest = RunManifest.load(directory / "manifest.json")
        assert manifest.profile is not None
        assert manifest.profile["tool"] == "cProfile"
        assert set(manifest.profile["phases"]) == {
            "geometry",
            "gain_matrix",
            "round_loop",
            "hitting",
            "stats",
            "other",
        }
        assert manifest.profile["hot_functions"]
