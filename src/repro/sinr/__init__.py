"""SINR (physical / fading) channel substrate.

This subpackage implements the communication model from Section 2 of the
paper: nodes deployed in the two-dimensional Euclidean plane, a fixed
transmission power ``P``, and reception governed by the signal to
interference and noise ratio (SINR) equation

    SINR(u, v, I) = (P / d(u, v)^alpha)
                    / (N + sum_{w in I} P / d(w, v)^alpha)  >=  beta,

where ``alpha > 2`` is the path-loss exponent, ``beta`` the reception
threshold, ``N >= 0`` the ambient noise, and ``I`` the set of concurrent
interferers.

Modules
-------
``parameters``
    :class:`SINRParameters` — validated model constants and derived
    quantities (communication range, single-hop power sizing).
``geometry``
    Vectorised planar geometry: pairwise distances, the diameter,
    exponential-annulus populations, greedy circle packings.
``channel``
    :class:`SINRChannel` — the path-loss channel: per-round reception
    resolution over the gains each round touches (one decode, faded or
    not), and a gain matrix built on demand.
``fading``
    :class:`RayleighFading` — the optional fading model; the channel's
    decode draws its per-round multipliers.
"""

from repro.sinr.channel import ReceptionReport, SINRChannel
from repro.sinr.fading import RayleighFading
from repro.sinr.jamming import ExternalSource, external_gain_matrix
from repro.sinr.geometry import (
    annulus_counts,
    pairwise_distances,
)
from repro.sinr.parameters import SINRParameters, single_hop_power

__all__ = [
    "ExternalSource",
    "RayleighFading",
    "ReceptionReport",
    "SINRChannel",
    "SINRParameters",
    "annulus_counts",
    "external_gain_matrix",
    "pairwise_distances",
    "single_hop_power",
]
