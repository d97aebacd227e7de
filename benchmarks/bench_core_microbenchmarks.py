"""Micro-benchmarks of the library's hot paths.

Not tied to a paper table — these track the performance of the simulation
substrate itself so regressions in the vectorised kernels are caught:

* gain-matrix construction (the one O(n^2) setup cost, paid on the
  first read of ``SINRChannel.base_gains``);
* a single channel ``resolve`` (the per-round cost);
* a full execution of the paper's algorithm;
* a link-class partition from positions.
"""

from repro.analysis.linkclasses import link_class_partition
from repro.deploy.topologies import uniform_disk
from repro.protocols.simple import FixedProbabilityProtocol
from repro.sim.engine import Simulation
from repro.sim.seeding import generator_from
from repro.sinr.channel import SINRChannel

N = 512


def _positions():
    return uniform_disk(N, generator_from(1001))


def test_gain_matrix_construction(benchmark):
    # A channel builds no matrix until base_gains is read, so time both.
    positions = _positions()
    gains = benchmark(lambda: SINRChannel(positions).base_gains)
    assert gains.shape == (N, N)


def test_single_round_resolve(benchmark):
    channel = SINRChannel(_positions())
    rng = generator_from(1002)
    transmitters = sorted(rng.choice(N, size=N // 10, replace=False).tolist())

    report = benchmark(channel.resolve, transmitters)
    assert len(report.transmitters) == N // 10


def test_full_execution_simple_protocol(benchmark):
    positions = _positions()
    channel = SINRChannel(positions)

    def execute():
        return Simulation(
            channel,
            FixedProbabilityProtocol(p=0.1),
            rng=generator_from(1003),
            max_rounds=50_000,
            keep_records=False,
        ).run()

    trace = benchmark(execute)
    assert trace.solved


def test_link_class_partition_cost(benchmark):
    positions = _positions()

    partition = benchmark(link_class_partition, positions)
    assert len(partition.class_of) == N
