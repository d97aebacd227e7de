"""Tests for the top-level public API surface."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name}"

    def test_version_present(self):
        assert repro.__version__

    def test_core_classes_exported(self):
        for name in (
            "SINRChannel",
            "RadioChannel",
            "FixedProbabilityProtocol",
            "Simulation",
            "ClassBoundSchedule",
            "AdaptiveReferee",
        ):
            assert name in repro.__all__


class TestImportCost:
    def test_import_loads_no_experiment(self):
        # The experiments import every E1-E18 module; the library must not
        # pay for them on `import repro`.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pathlib.Path(repro.__file__).resolve().parent.parent), env.get("PYTHONPATH", "")]
        )
        script = (
            "import sys, repro; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert loaded.stdout.strip() == "[]"


class TestQuickstartFromDocstring:
    def test_module_docstring_example_runs(self):
        rng = repro.generator_from(0)
        positions = repro.uniform_disk(32, rng=rng)
        channel = repro.SINRChannel(positions)
        nodes = repro.FixedProbabilityProtocol(p=0.1).build(channel.n)
        trace = repro.Simulation(channel, nodes, rng=rng).run()
        assert trace.solved
        assert trace.rounds_to_solve >= 1

    def test_run_trials_facade(self):
        stats = repro.run_trials(
            lambda rng: repro.SINRChannel(repro.uniform_disk(16, rng)),
            repro.FixedProbabilityProtocol(),
            trials=5,
            seed=1,
        )
        assert stats.solve_rate == 1.0

    def test_hitting_game_facade(self):
        rng = repro.generator_from(2)
        result = repro.play_hitting_game(
            repro.BitSplittingPlayer(16), repro.AdaptiveReferee(16), rng
        )
        assert result.rounds_to_win == 4


class TestDocstrings:
    @pytest.mark.parametrize(
        "obj",
        [
            repro.SINRChannel,
            repro.SINRParameters,
            repro.RadioChannel,
            repro.FixedProbabilityProtocol,
            repro.DecayProtocol,
            repro.JurdzinskiStachowiakProtocol,
            repro.Simulation,
            repro.ExecutionTrace,
            repro.ClassBoundSchedule,
            repro.AdaptiveReferee,
            repro.ContentionResolutionPlayer,
            repro.run_trials,
            repro.link_class_partition,
            repro.uniform_disk,
            repro.exponential_chain,
        ],
    )
    def test_public_items_documented(self, obj):
        assert obj.__doc__ and obj.__doc__.strip()
