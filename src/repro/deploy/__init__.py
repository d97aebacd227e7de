"""Deployment generators and link-length statistics.

Every experiment starts from a *deployment*: a set of planar positions. The
paper's bound ``O(log n + log R)`` has two knobs — the node count ``n`` and
the link-length ratio ``R`` — and the generators here let each be swept
independently:

* :func:`uniform_disk` — the "most feasible deployments" regime where
  ``R`` is polynomial in ``n`` (footnote 1).
* :func:`exponential_chain` — a deployment engineered so ``log R`` is an
  explicit parameter while ``n`` stays fixed (drives experiment E2).
* :func:`grid` — the minimum-``R`` regime (one or few link classes).
* :func:`clustered` — many nodes per link class, several classes
  (stress-tests the class-migration machinery of Section 3.3).

All generators return an ``(n, 2)`` float64 array and guarantee pairwise
distinct positions with a configurable minimum separation.
"""

from repro.deploy.metrics import (
    DeploymentStats,
    deployment_stats,
    link_ratio,
    log_link_ratio,
)
from repro.deploy.topologies import (
    clustered,
    exponential_chain,
    grid,
    line,
    ring,
    uniform_disk,
)

__all__ = [
    "DeploymentStats",
    "clustered",
    "deployment_stats",
    "exponential_chain",
    "grid",
    "line",
    "link_ratio",
    "log_link_ratio",
    "ring",
    "uniform_disk",
]
