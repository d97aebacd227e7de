"""Analysis toolkit mirroring the paper's proof machinery.

The upper-bound proof (Section 3) is built from concrete combinatorial
objects, and this package implements each of them so experiments can test
the proof's *mechanism*, not just its endpoint:

``linkclasses``
    The Section 3.1 partition of active nodes into classes ``d_i`` by
    nearest-active-neighbor distance, plus the round-by-round class sizes
    of an execution, replayed from its trace.
``goodness``
    Definition 1's good-node test (annulus population budgets with the
    paper's constant 96 and ``epsilon = alpha/2 - 1``) and the
    well-separated subset ``S_i`` of Lemma 2.
``class_bounds``
    The Section 3.3 class-bound vectors ``q_t``, with the paper's
    ``gamma_slow``, ``rho`` and ``l`` schedule.
``interference``
    The Lemma 3/4 interference accounting: Claim 1's ``c_max`` constant,
    the separation/interference trade-off, and measured interference sums
    over the gain matrix.
``fits``
    Scaling-law regression: fit measured rounds against ``a log n + b``,
    ``a log^2 n + b`` and friends, with AIC/R^2 model selection — the tool
    that turns round counts into "the growth is log, not log-squared".
``stats``
    Bootstrap confidence intervals and summary helpers.
"""

from repro.analysis.class_bounds import ClassBoundSchedule
from repro.analysis.comparison import (
    ComparisonResult,
    cliffs_delta,
    compare_round_counts,
    mann_whitney_u,
)
from repro.analysis.fits import FitResult, fit_models, fit_scaling_law
from repro.analysis.goodness import good_nodes, is_good, well_separated_subset
from repro.analysis.interference import (
    claim1_bound,
    claim1_constant,
    lemma4_bound,
    lemma4_constant,
    lemma4_separation,
)
from repro.analysis.linkclasses import (
    LinkClassPartition,
    link_class_history,
    link_class_partition,
)
from repro.analysis.stats import bootstrap_ci, bootstrap_mean_ci

__all__ = [
    "ClassBoundSchedule",
    "ComparisonResult",
    "cliffs_delta",
    "compare_round_counts",
    "mann_whitney_u",
    "FitResult",
    "LinkClassPartition",
    "bootstrap_ci",
    "bootstrap_mean_ci",
    "claim1_bound",
    "claim1_constant",
    "fit_models",
    "fit_scaling_law",
    "good_nodes",
    "is_good",
    "lemma4_bound",
    "lemma4_constant",
    "lemma4_separation",
    "link_class_history",
    "link_class_partition",
    "well_separated_subset",
]
