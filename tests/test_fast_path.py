"""Tests for the vectorised fast path: restrictions + equivalence."""

import numpy as np
import pytest

from repro.deploy.topologies import uniform_disk
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from, spawn_generators
from repro.sinr.channel import SINRChannel
from repro.sinr.fading import RayleighFading
from repro.sinr.jamming import ExternalSource


class TestRestrictions:
    def test_accepts_continuous_jammer(self, rng):
        jammer = ExternalSource((0.5, 50.0), power=10.0, duty_cycle=1.0)
        channel = SINRChannel(
            [(0.0, 0.0), (1.0, 0.0)], external_sources=[jammer]
        )
        result = fast_fixed_probability_run(channel, p=0.5, rng=rng)
        assert result.solved

    def test_parameter_validation(self, small_channel, rng):
        with pytest.raises(ValueError, match="probability"):
            fast_fixed_probability_run(small_channel, p=0.0, rng=rng)
        with pytest.raises(ValueError, match="max_rounds"):
            fast_fixed_probability_run(small_channel, p=0.1, rng=rng, max_rounds=0)


class TestBehaviour:
    def test_solves_and_reports_rounds(self, small_channel, rng):
        result = fast_fixed_probability_run(small_channel, p=0.1, rng=rng)
        assert result.solved
        assert result.rounds_to_solve == result.solved_round + 1
        assert len(result.active_counts) == result.rounds_executed

    def test_active_counts_monotone(self, small_channel, rng):
        result = fast_fixed_probability_run(small_channel, p=0.1, rng=rng)
        counts = result.active_counts
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_budget_exhaustion(self, rng):
        # p = 1 on two nodes can never produce a solo round.
        channel = SINRChannel([(0.0, 0.0), (1.0, 0.0)])
        result = fast_fixed_probability_run(channel, p=1.0, rng=rng, max_rounds=20)
        assert not result.solved
        assert result.rounds_executed == 20

    def test_single_node(self, rng):
        channel = SINRChannel([(0.0, 0.0)])
        result = fast_fixed_probability_run(channel, p=0.5, rng=rng)
        assert result.solved

    def test_deterministic_under_seed(self, small_positions):
        channel = SINRChannel(small_positions)
        a = fast_fixed_probability_run(channel, p=0.1, rng=generator_from(5))
        b = fast_fixed_probability_run(channel, p=0.1, rng=generator_from(5))
        assert a.solved_round == b.solved_round
        assert a.active_counts == b.active_counts


class TestEngineExactParity:
    """E1's fast-path conversion contract: bit-identical, not just equal in
    distribution.

    For the paper's fixed-``p`` algorithm on an SINR channel,
    ``run_fast_trials`` consumes the identical ``(seed, trial)`` generator
    tree and the identical coin-flip (and, under fading, multiplier)
    stream as ``FixedProbabilityProtocol`` through the generic engine, and
    computes the identical decode — so the per-trial round counts match
    exactly. E1 and E12 rely on this to switch runners without changing a
    single deterministic number."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_run_trials_matches_run_fast_trials_exactly(self, n):
        from repro.sim.parallel import run_fast_trials
        from repro.sim.runner import high_probability_budget, run_trials
        from repro.sinr.parameters import SINRParameters

        params = SINRParameters(alpha=3.0)
        trials, p, seed = 6, 0.1, (101, n)
        budget = high_probability_budget(n)

        def factory(rng, n=n):
            return SINRChannel(uniform_disk(n, rng), params=params)

        engine = run_trials(
            factory,
            FixedProbabilityProtocol(p),
            trials,
            seed=seed,
            max_rounds=budget,
        )
        fast = run_fast_trials(
            factory, p, trials=trials, seed=seed, max_rounds=budget
        )
        assert engine.rounds == fast.rounds
        assert engine.failures == fast.failures
        assert engine.total_rounds_executed == fast.total_rounds_executed

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_fading_trials_match_the_engine(self, n):
        """Under Rayleigh fading both draw a round's coins, then its
        multipliers, from the trial's generator: same seed, same trial."""
        p = 0.1
        for seed in range(8):
            positions = uniform_disk(n, generator_from((n, seed)))
            fast_channel = SINRChannel(positions, gain_model=RayleighFading())
            engine_channel = SINRChannel(positions, gain_model=RayleighFading())
            fast = fast_fixed_probability_run(
                fast_channel, p, generator_from(seed), max_rounds=5_000
            )
            trace = Simulation(
                engine_channel,
                FixedProbabilityProtocol(p),
                rng=generator_from(seed),
                max_rounds=5_000,
            ).run()
            assert fast.rounds_to_solve == trace.rounds_to_solve
            assert fast.rounds_executed == trace.rounds_executed
            # Neither path builds the (n, n) matrix for a faded round.
            assert "_gain_matrix" not in vars(fast_channel)
            assert "_gain_matrix" not in vars(engine_channel)


    def test_duty_cycled_jammer_trials_match_the_engine(self):
        """A duty-0.5 jammer's on-air coin is drawn by the channel's resolve
        core on both paths, after the round's coins and before any fading
        multipliers: same seed, same rounds, same active counts."""
        n, p = 48, 0.1
        for gain_model in (None, RayleighFading()):
            outcomes = set()
            for seed in range(6):
                positions = uniform_disk(n, generator_from((n, seed)))
                power = SINRChannel(positions).params.power
                centre = positions.mean(axis=0) + (0.31, 0.17)
                jammer = ExternalSource(
                    (float(centre[0]), float(centre[1])), 100.0 * power, duty_cycle=0.5
                )
                channels = [
                    SINRChannel(positions, gain_model=gain_model, external_sources=[jammer])
                    for _ in range(2)
                ]
                fast = fast_fixed_probability_run(
                    channels[0], p, generator_from(seed), max_rounds=3_000
                )
                trace = Simulation(
                    channels[1],
                    FixedProbabilityProtocol(p),
                    rng=generator_from(seed),
                    max_rounds=3_000,
                    keep_records=True,
                ).run()
                assert fast.rounds_to_solve == trace.rounds_to_solve
                assert fast.rounds_executed == trace.rounds_executed
                assert fast.active_counts == [
                    len(record.active_before) for record in trace.records
                ]
                outcomes.add(fast.rounds_to_solve)
            assert len(outcomes) > 1


class TestEquivalenceWithGenericEngine:
    def test_distributions_agree(self):
        """Fast path and generic engine must produce the same statistics.

        The two consume randomness differently, so traces differ per seed;
        agreement is distributional: matched trial counts, means within a
        few combined standard errors.
        """
        n, trials, p = 48, 60, 0.1
        fast_rounds = []
        slow_rounds = []
        generators = spawn_generators(77, 3 * trials)
        for trial in range(trials):
            deploy_rng = generators[3 * trial]
            fast_rng = generators[3 * trial + 1]
            slow_rng = generators[3 * trial + 2]
            positions = uniform_disk(n, deploy_rng)
            channel = SINRChannel(positions)

            fast = fast_fixed_probability_run(channel, p, fast_rng, max_rounds=20_000)
            fast_rounds.append(fast.rounds_to_solve)

            nodes = FixedProbabilityProtocol(p).build(n)
            trace = Simulation(
                channel, nodes, rng=slow_rng, max_rounds=20_000, keep_records=False
            ).run()
            slow_rounds.append(trace.rounds_to_solve)

        fast_mean = np.mean(fast_rounds)
        slow_mean = np.mean(slow_rounds)
        pooled_se = np.sqrt(
            np.var(fast_rounds, ddof=1) / trials + np.var(slow_rounds, ddof=1) / trials
        )
        assert abs(fast_mean - slow_mean) < 4 * pooled_se + 0.5


def _probed_run(channel, seed):
    """A fast-path run with the probe bus on, which decodes every round exactly."""
    from repro.obs.probe import ProbeBus, ProbeRecorder, set_probe_bus

    bus = ProbeBus(enabled=True)
    bus.subscribe(ProbeRecorder())
    previous = set_probe_bus(bus)
    try:
        return fast_fixed_probability_run(channel, 0.1, generator_from(seed))
    finally:
        set_probe_bus(previous)


def _screen_channels():
    from tests.test_matrix_free import DEPLOYMENTS

    disk = uniform_disk(400, generator_from(40))
    power = SINRChannel(disk).params.power
    jammer = ExternalSource((0.3, 0.2), 20.0 * power, duty_cycle=0.5)
    return {
        "uniform_disk": lambda: SINRChannel(disk),
        "clustered": lambda: SINRChannel(DEPLOYMENTS["clustered"]),
        "exponential_chain": lambda: SINRChannel(DEPLOYMENTS["exponential_chain"]),
        "rayleigh": lambda: SINRChannel(disk, gain_model=RayleighFading()),
        "faded_jammer": lambda: SINRChannel(
            disk, gain_model=RayleighFading(), external_sources=[jammer]
        ),
    }


SCREEN_CHANNELS = _screen_channels()


class TestScreenedRounds:
    """Unprobed runs decide rounds with ``SINRChannel.decide``'s screen;
    probed runs, like the engine, decode them exactly. Every run must be
    the same either way."""

    @pytest.mark.parametrize("name", sorted(SCREEN_CHANNELS))
    def test_unprobed_runs_equal_probed_runs(self, name):
        channel = SCREEN_CHANNELS[name]()
        assert channel._screen_window is not None
        for seed in range(4):
            unprobed = fast_fixed_probability_run(channel, 0.1, generator_from(seed))
            assert unprobed == _probed_run(channel, seed)
        assert "_gain_matrix" not in vars(channel)

    @pytest.mark.parametrize("name", sorted(SCREEN_CHANNELS))
    def test_an_infinite_margin_changes_no_run(self, monkeypatch, name):
        from repro.sinr import channel as sinr_channel

        channel = SCREEN_CHANNELS[name]()
        default = [
            fast_fixed_probability_run(channel, 0.1, generator_from(seed)) for seed in range(3)
        ]
        monkeypatch.setattr(sinr_channel, "_MARGIN_UNIT", np.inf)
        exact = [
            fast_fixed_probability_run(channel, 0.1, generator_from(seed)) for seed in range(3)
        ]
        assert exact == default

    def test_unprobed_runs_build_no_report(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an unprobed round built a ReceptionReport")

        monkeypatch.setattr(SINRChannel, "_resolve_ids", refuse)
        monkeypatch.setattr(SINRChannel, "decode", refuse)
        for name in ("uniform_disk", "faded_jammer"):
            result = fast_fixed_probability_run(SCREEN_CHANNELS[name](), 0.1, generator_from(1))
            assert result.rounds_executed > 1
