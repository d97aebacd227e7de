"""Micro-benchmark: the vectorised fast path vs the generic engine.

Not a paper table — this tracks the speedup that makes E17's large-``n``
sweeps affordable. Both benchmarks run the paper's algorithm on the same
512-node deployment; pytest-benchmark's comparison column shows the gap
(typically 1-2 orders of magnitude). The probes variant runs the same
fast-path workload with the round-level flight recorder enabled, so the
probes-disabled/enabled gap stays visible next to the engine/fast gap
(the committed record of both lives in ``BENCH_core.json``).
"""

from repro.deploy.topologies import uniform_disk
from repro.obs.probe import ProbeBus, ProbeRecorder, set_probe_bus
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.fast import fast_fixed_probability_run
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel

N = 512
P = 0.1


def _channel():
    return SINRChannel(uniform_disk(N, generator_from(2002)))


def test_generic_engine_full_run(benchmark):
    channel = _channel()

    def run():
        return Simulation(
            channel,
            FixedProbabilityProtocol(p=P),
            rng=generator_from(2003),
            max_rounds=50_000,
            keep_records=False,
        ).run()

    trace = benchmark(run)
    assert trace.solved


def test_fast_path_full_run(benchmark):
    channel = _channel()

    def run():
        return fast_fixed_probability_run(
            channel, P, generator_from(2003), max_rounds=50_000
        )

    result = benchmark(run)
    assert result.solved


def test_fast_path_full_run_probes_enabled(benchmark):
    channel = _channel()

    def run():
        bus = ProbeBus(enabled=True)
        bus.subscribe(ProbeRecorder())
        previous = set_probe_bus(bus)
        try:
            return fast_fixed_probability_run(
                channel, P, generator_from(2003), max_rounds=50_000
            )
        finally:
            set_probe_bus(previous)

    result = benchmark(run)
    assert result.solved
