"""Profiling hooks: phase classification and the condensed cProfile report.

The report is manifest-bound (must be JSON-safe) and its phase breakdown
uses exclusive time, so phases plus ``other`` must account for the whole
profile exactly — that accounting identity is the main thing checked on
a real profiled run.
"""

import cProfile
import json

import pytest

from repro.deploy.topologies import uniform_disk
from repro.obs.profiling import (
    OTHER_PHASE,
    PHASES,
    build_profile_report,
    classify_phase,
    format_profile_report,
)
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel


class TestClassifyPhase:
    @pytest.mark.parametrize(
        "filename,funcname,expected",
        [
            ("src/repro/sinr/geometry.py", "pairwise_distances", "geometry"),
            ("src/repro/deploy/topologies.py", "uniform_disk", "geometry"),
            ("src/repro/sinr/fading.py", "sample", "gain_matrix"),
            ("src/repro/sinr/channel.py", "__init__", "gain_matrix"),
            ("src/repro/sinr/channel.py", "resolve", "round_loop"),
            ("src/repro/sim/engine.py", "run", "round_loop"),
            ("src/repro/radio/channel.py", "_resolve", "round_loop"),
            ("src/repro/sim/fast.py", "fast_fixed_probability_run", "round_loop"),
            ("src/repro/hitting/game.py", "judge", "hitting"),
            ("src/repro/hitting/reduction.py", "propose", "hitting"),
            ("src/repro/sim/runner.py", "run_trials", "stats"),
            ("src/repro/analysis/linkclasses.py", "link_class_partition", "stats"),
            ("~", "<built-in method numpy.array>", OTHER_PHASE),
            ("/usr/lib/python3.10/json/encoder.py", "encode", OTHER_PHASE),
        ],
    )
    def test_known_locations(self, filename, funcname, expected):
        assert classify_phase(filename, funcname) == expected

    def test_windows_paths_normalised(self):
        assert (
            classify_phase("src\\repro\\sinr\\geometry.py", "f") == "geometry"
        )

    def test_phase_names_are_unique(self):
        names = [name for name, _ in PHASES]
        assert len(names) == len(set(names))
        assert OTHER_PHASE not in names


@pytest.fixture(scope="module")
def profiled_report():
    profile = cProfile.Profile()
    profile.enable()
    channel = SINRChannel(uniform_disk(48, generator_from(31)))
    nodes = FixedProbabilityProtocol(p=0.15).build(channel.n)
    Simulation(channel, nodes, rng=generator_from(32), max_rounds=2_000).run()
    profile.disable()
    return build_profile_report(profile, top_n=5)


class TestBuildProfileReport:
    def test_phases_account_for_total(self, profiled_report):
        phase_total = sum(
            entry["seconds"] for entry in profiled_report["phases"].values()
        )
        # Exclusive times are disjoint by construction; rounding of each
        # phase to 6 decimals is the only slack.
        assert phase_total == pytest.approx(
            profiled_report["total_seconds"], abs=1e-5
        )

    def test_hitting_game_lands_in_its_phase(self):
        from repro.hitting import AdaptiveReferee, UniformSubsetPlayer, play_hitting_game

        profile = cProfile.Profile()
        profile.enable()
        for seed in range(20):
            play_hitting_game(
                UniformSubsetPlayer(64), AdaptiveReferee(64), generator_from(seed)
            )
        profile.disable()
        phases = build_profile_report(profile)["phases"]
        assert phases["hitting"]["seconds"] > 0
        assert phases["round_loop"]["seconds"] == 0

    def test_round_loop_dominates_simulation_code(self, profiled_report):
        phases = profiled_report["phases"]
        assert phases["round_loop"]["seconds"] > 0
        assert phases["round_loop"]["seconds"] >= phases["stats"]["seconds"]

    def test_top_n_respected_and_sorted(self, profiled_report):
        hot = profiled_report["hot_functions"]
        assert 0 < len(hot) <= 5
        times = [row["tottime_s"] for row in hot]
        assert times == sorted(times, reverse=True)

    def test_report_is_json_safe(self, profiled_report):
        round_tripped = json.loads(json.dumps(profiled_report))
        assert round_tripped["tool"] == "cProfile"
        assert round_tripped["total_calls"] > 0

    def test_format_renders_every_phase(self, profiled_report):
        text = format_profile_report(profiled_report)
        assert "per-phase exclusive time" in text
        for name, _ in PHASES:
            assert name in text
        assert "top 5 functions" in text
