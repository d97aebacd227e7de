"""Rayleigh fading layered on the path-loss channel.

The paper analyses the deterministic path-loss model (``gain = P / d^alpha``)
but its title — a *fading* channel — refers to the whole SINR family. As an
extension experiment (E12 in DESIGN.md) we also support Rayleigh fading, the
standard stochastic model in which every link's power gain is multiplied each
round by an independent exponential random variable. The paper's algorithm
needs no modification to run under Rayleigh fading; E12 measures how its
round complexity responds.

:class:`RayleighFading` only names the model and its mean;
:meth:`repro.sinr.channel.SINRChannel.decode` draws the multipliers for the
``(transmitter, listener)`` pairs a round touches.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RayleighFading"]


@dataclass(frozen=True)
class RayleighFading:
    """Rayleigh block fading: i.i.d. exponential power gains with mean ``scale``.

    Under Rayleigh fading the amplitude of each link is Rayleigh
    distributed, so the *power* gain is exponentially distributed. ``scale``
    sets the mean of the multiplier; the default 1.0 preserves the average
    link budget of the deterministic model, which keeps E12 an
    apples-to-apples robustness comparison.
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive (got {self.scale})")
