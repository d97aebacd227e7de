"""repro — a reproduction of *Contention Resolution on a Fading Channel*.

Fineman, Gilbert, Kuhn & Newport, PODC 2016. The paper shows that the
simplest conceivable contention-resolution algorithm — broadcast with a
fixed constant probability, deactivate on first reception — solves the
problem on an SINR (fading) channel in ``O(log n + log R)`` rounds w.h.p.,
beating the ``Omega(log^2 n)`` barrier of the classical radio network
model, and complements it with an ``Omega(log n)`` lower bound via a
hitting-game reduction.

This package provides:

* the SINR and classical-radio channel substrates (:mod:`repro.sinr`,
  :mod:`repro.radio`);
* deployment generators with controllable ``n`` and ``R``
  (:mod:`repro.deploy`);
* the paper's algorithm and every baseline it is compared against
  (:mod:`repro.protocols`);
* a deterministic round-based simulation engine (:mod:`repro.sim`);
* the proof machinery as executable analysis — link classes, good nodes,
  class-bound vectors, scaling-law fits (:mod:`repro.analysis`);
* the lower-bound games and reductions (:mod:`repro.hitting`);
* ready-made experiments reproducing each quantitative claim
  (:mod:`repro.experiments`).

Quickstart::

    import repro

    rng = repro.generator_from(seed=0)
    positions = repro.uniform_disk(n=128, rng=rng)
    channel = repro.SINRChannel(positions)
    protocol = repro.FixedProbabilityProtocol(p=0.1)
    trace = repro.Simulation(channel, protocol, rng=rng).run()
    print(f"solved in {trace.rounds_to_solve} rounds")
"""

from repro.analysis import (
    ClassBoundSchedule,
    ComparisonResult,
    FitResult,
    LinkClassPartition,
    cliffs_delta,
    compare_round_counts,
    fit_models,
    fit_scaling_law,
    good_nodes,
    link_class_history,
    link_class_partition,
    mann_whitney_u,
    well_separated_subset,
)
from repro.deploy import (
    clustered,
    deployment_stats,
    exponential_chain,
    grid,
    line,
    link_ratio,
    uniform_disk,
)
from repro.obs import MetricsRegistry, TelemetrySession, get_registry
from repro.reporting import ascii_histogram, ascii_plot
from repro.sinr.jamming import ExternalSource
from repro.hitting import (
    AdaptiveReferee,
    BitSplittingPlayer,
    ContentionResolutionPlayer,
    FixedTargetReferee,
    UniformSubsetPlayer,
    play_hitting_game,
    two_player_trials,
)
from repro.protocols import (
    Action,
    BinaryExponentialBackoffProtocol,
    CarrierSenseTournamentProtocol,
    CollisionDetectionTournamentProtocol,
    carrier_sense_threshold,
    DecayProtocol,
    Feedback,
    FixedProbabilityProtocol,
    JurdzinskiStachowiakProtocol,
    NodeProtocol,
    ProtocolFactory,
    SawtoothBackoffProtocol,
    SlottedAlohaProtocol,
)
from repro.radio import RadioChannel
from repro.sim import (
    ExecutionTrace,
    FastRunResult,
    RoundRecord,
    Simulation,
    StaticDeploymentFactory,
    TrialStats,
    UniformDiskFactory,
    fast_fixed_probability_run,
    generator_from,
    high_probability_budget,
    run_fast_trials,
    run_trials,
    spawn_generators,
    spawn_seed_sequences,
)
from repro.sinr import (
    RayleighFading,
    SINRChannel,
    SINRParameters,
)

__version__ = "1.0.0"

__all__ = [
    "Action",
    "AdaptiveReferee",
    "BinaryExponentialBackoffProtocol",
    "BitSplittingPlayer",
    "CarrierSenseTournamentProtocol",
    "ClassBoundSchedule",
    "CollisionDetectionTournamentProtocol",
    "ComparisonResult",
    "ContentionResolutionPlayer",
    "DecayProtocol",
    "ExecutionTrace",
    "ExternalSource",
    "FastRunResult",
    "Feedback",
    "FitResult",
    "FixedProbabilityProtocol",
    "FixedTargetReferee",
    "JurdzinskiStachowiakProtocol",
    "LinkClassPartition",
    "MetricsRegistry",
    "NodeProtocol",
    "ProtocolFactory",
    "RadioChannel",
    "RayleighFading",
    "RoundRecord",
    "SINRChannel",
    "SINRParameters",
    "SawtoothBackoffProtocol",
    "Simulation",
    "SlottedAlohaProtocol",
    "StaticDeploymentFactory",
    "TelemetrySession",
    "TrialStats",
    "UniformDiskFactory",
    "UniformSubsetPlayer",
    "ascii_histogram",
    "ascii_plot",
    "carrier_sense_threshold",
    "cliffs_delta",
    "clustered",
    "compare_round_counts",
    "deployment_stats",
    "exponential_chain",
    "fast_fixed_probability_run",
    "fit_models",
    "fit_scaling_law",
    "generator_from",
    "get_registry",
    "good_nodes",
    "grid",
    "high_probability_budget",
    "line",
    "link_class_history",
    "link_class_partition",
    "link_ratio",
    "mann_whitney_u",
    "play_hitting_game",
    "run_fast_trials",
    "run_trials",
    "spawn_generators",
    "spawn_seed_sequences",
    "two_player_trials",
    "uniform_disk",
    "well_separated_subset",
]
