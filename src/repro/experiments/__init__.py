"""Ready-made experiments reproducing the paper's quantitative claims.

Each module implements one row of the DESIGN.md experiment index: it owns a
config dataclass (with a ``quick()`` preset sized for CI and a ``full()``
preset for real measurement) and a pure ``run(config) -> ExperimentResult``
function.

Run experiments from the command line, the one entry point; it prints
each table and exits 1 when any check fails::

    python -m repro.experiments E1          # quick preset
    python -m repro.experiments E3 --full   # full preset
    python -m repro.experiments all         # every quick preset

The registry maps experiment ids to modules.
"""

from repro.experiments import (
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
    e13_interference_bounds,
    e14_carrier_sense,
    e15_staggered_wakeup,
    e16_jamming,
    e17_large_scale,
    e18_schedule_families,
)
from repro.experiments.common import ExperimentResult

#: Experiment id -> module. Every module exposes ``run``, a config class
#: named ``Config`` with ``quick()`` / ``full()`` presets, and ``TITLE``.
REGISTRY = {
    "E1": e1_scaling_n,
    "E2": e2_scaling_r,
    "E3": e3_protocol_comparison,
    "E4": e4_good_nodes,
    "E5": e5_knockout,
    "E6": e6_class_bounds,
    "E7": e7_hitting_game,
    "E8": e8_two_player,
    "E9": e9_p_ablation,
    "E10": e10_alpha_ablation,
    "E11": e11_radio_anchors,
    "E12": e12_rayleigh,
    "E13": e13_interference_bounds,
    "E14": e14_carrier_sense,
    "E15": e15_staggered_wakeup,
    "E16": e16_jamming,
    "E17": e17_large_scale,
    "E18": e18_schedule_families,
}

__all__ = ["REGISTRY", "ExperimentResult"]
