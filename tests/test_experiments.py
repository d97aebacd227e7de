"""Tests for the experiments package: common infrastructure + micro runs.

Each experiment is exercised with a *micro* config (far smaller than even
its quick preset) to verify the plumbing — configs, tables, notes — without
asserting the statistical checks, which need the quick/full presets'
sample sizes: ``python -m repro.experiments all`` runs those and exits 1
on any FAIL.
"""

import os
import pickle
import signal

import numpy as np
import pytest

from repro.experiments import REGISTRY
from repro.experiments import (
    e13_interference_bounds,
    e14_carrier_sense,
    e15_staggered_wakeup,
    e16_jamming,
    e17_large_scale,
    e18_schedule_families,
    e1_scaling_n,
    e2_scaling_r,
    e3_protocol_comparison,
    e4_good_nodes,
    e5_knockout,
    e6_class_bounds,
    e7_hitting_game,
    e8_two_player,
    e9_p_ablation,
    e10_alpha_ablation,
    e11_radio_anchors,
    e12_rayleigh,
)
from repro.experiments.__main__ import (
    SweepInterrupted,
    main,
    termination_signals_as_interrupts,
)
from repro.experiments.common import ExperimentResult, format_table
from repro.reporting.markdown import render_result_markdown, strip_cost_tables


class TestFormatTable:
    def test_column_alignment(self):
        table = format_table(["a", "long_header"], [[1, 2.5], [333, True]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "long_header" in lines[0]
        assert "yes" in lines[3]

    def test_float_formatting(self):
        table = format_table(["x"], [[3.14159265]])
        assert "3.142" in table

    def test_bool_rendering(self):
        table = format_table(["ok"], [[False]])
        assert "no" in table

    def test_numpy_scalars_render_as_python(self):
        # A np.bool_ is not a bool: without the conversion it prints "True".
        header = ["ok", "mean", "n"]
        live = ExperimentResult(
            "EX", "t", header, rows=[[np.bool_(True), np.float64(1 / 3), np.int64(8)]]
        )
        plain = ExperimentResult("EX", "t", header, rows=[[True, 1 / 3, 8]])
        assert format_table(header, live.rows) == format_table(header, plain.rows)
        assert render_result_markdown(live) == render_result_markdown(plain)
        assert "True" not in live.format()


class TestExperimentResult:
    def test_passed_requires_all_checks(self):
        result = ExperimentResult("EX", "t", ["c"], checks={"a": True, "b": False})
        assert not result.passed
        result.checks["b"] = True
        assert result.passed

    def test_no_checks_is_vacuous_pass(self):
        assert ExperimentResult("EX", "t", ["c"]).passed

    def test_format_contains_sections(self):
        result = ExperimentResult(
            "EX",
            "title here",
            ["col"],
            rows=[[1]],
            checks={"shape": True},
            notes=["observation"],
        )
        text = result.format()
        assert "EX: title here" in text
        assert "check shape: PASS" in text
        assert "note: observation" in text

    def test_failed_check_rendered(self):
        result = ExperimentResult("EX", "t", ["c"], checks={"shape": False})
        assert "FAIL" in result.format()


class TestRegistry:
    def test_all_experiments_registered(self):
        assert sorted(REGISTRY, key=lambda e: int(e[1:])) == [
            f"E{i}" for i in range(1, 19)
        ]

    def test_modules_expose_interface(self):
        for module in REGISTRY.values():
            assert hasattr(module, "run")
            assert hasattr(module, "Config")
            assert hasattr(module, "TITLE")
            assert hasattr(module.Config, "quick")
            assert hasattr(module.Config, "full")


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


def _micro_runs():
    """(id, config) pairs small enough for the unit-test suite."""
    return [
        ("E1", e1_scaling_n.Config(sizes=[16, 32, 64], trials=4)),
        ("E2", e2_scaling_r.Config(class_counts=[2, 4], total_nodes=16, trials=3)),
        ("E3", e3_protocol_comparison.Config(sizes=[16, 32], trials=3, include_beb=False)),
        ("E4", e4_good_nodes.Config(sizes=[48], deployments_per_size=1)),
        ("E5", e5_knockout.Config(sizes=[32, 48], trials=5)),
        ("E6", e6_class_bounds.Config(trials=1)),
        ("E7", e7_hitting_game.Config(ks=[4, 8, 16], trials=5)),
        (
            "E8",
            e8_two_player.Config(
                budgets=[1, 2, 4], trials=60, reduction_ks=[4, 8], reduction_trials=2
            ),
        ),
        ("E9", e9_p_ablation.Config(probabilities=[0.05, 0.1, 0.3], n=32, trials=4)),
        ("E10", e10_alpha_ablation.Config(alphas=[2.5, 3.0, 4.0], n=32, trials=4)),
        (
            "E11",
            e11_radio_anchors.Config(
                sizes=[16, 64, 256], trials=5, tail_sizes=[16, 64], tail_trials_per_n=6
            ),
        ),
        ("E12", e12_rayleigh.Config(sizes=[16, 32, 64], trials=4)),
        ("E13", e13_interference_bounds.Config(sizes=[64], deployments_per_size=1)),
        (
            "E14",
            e14_carrier_sense.Config(
                sizes=[16, 32], chain_classes=[2, 4], chain_total=16, trials=4
            ),
        ),
        (
            "E15",
            e15_staggered_wakeup.Config(
                n=32, window_multipliers=[0.0, 2.0], trials=4
            ),
        ),
        (
            "E16",
            e16_jamming.Config(
                n=24, power_factors=[0.0, 100.0], duty_cycles=[1.0], trials=4
            ),
        ),
        ("E17", e17_large_scale.Config(sizes=[64, 128, 256], trials=8)),
        ("E18", e18_schedule_families.Config(sizes=[8, 16, 32], trials=6)),
    ]


@pytest.mark.parametrize("experiment_id,config", _micro_runs())
def test_experiment_micro_run(experiment_id, config):
    module = REGISTRY[experiment_id]
    result = module.run(config)
    assert result.experiment_id == experiment_id
    assert result.rows, "experiment produced no table rows"
    assert result.checks, "experiment produced no shape checks"
    assert all(len(row) == len(result.header) for row in result.rows)
    # The formatted report renders without error.
    assert experiment_id in result.format()


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_experiment_micro_run_is_deterministic(experiment_id):
    micro = dict(_micro_runs())
    config = micro[experiment_id]
    module = REGISTRY[experiment_id]
    first = module.run(config)
    second = module.run(config)
    assert first.rows == second.rows
    assert first.checks == second.checks


@pytest.mark.parametrize("experiment_id", ["E1", "E9", "E10", "E17"])
def test_trial_batches_pickle(experiment_id, monkeypatch):
    # ``--workers`` under ``spawn`` (macOS, Windows) pickles each batch.
    from repro.sim import parallel

    batches = []
    run_batch = parallel.run_batch

    def spy(work, trials, seed, workers):
        batches.append(work)
        return run_batch(work, trials, seed, workers)

    monkeypatch.setattr(parallel, "run_batch", spy)
    REGISTRY[experiment_id].run(dict(_micro_runs())[experiment_id])
    assert batches
    for work in batches:
        pickle.dumps(work)
