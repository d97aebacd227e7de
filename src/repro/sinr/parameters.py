"""Model constants for the SINR channel (Section 2 of the paper).

The paper's model is parameterised by four constants:

``alpha``
    The path-loss exponent. The analysis requires ``alpha > 2`` — the gap
    between the quadratic growth of the number of interferers in an annulus
    and the super-quadratic decay of their signals is exactly what enables
    spatial reuse (Section 3.2). The paper defines ``epsilon = alpha/2 - 1``
    and relies on ``epsilon > 0`` throughout.
``beta``
    The SINR reception threshold. ``beta > 1`` in realistic deployments; the
    fast reception path in :mod:`repro.sinr.channel` exploits ``beta >= 1``.
``noise``
    The ambient noise power ``N >= 0``.
``power``
    The fixed transmission power ``P``. The paper's single-hop assumption
    requires ``P > c * beta * N * d(u, v)^alpha`` for every node pair and a
    constant ``c >= 4`` (Section 2), so that every pair could communicate in
    the absence of interference with a constant-factor margin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SINRParameters", "single_hop_power"]

#: The constant ``c`` from the paper's single-hop assumption
#: ``P > c * beta * N * d(u, v)^alpha``; the paper notes ``c >= 4`` suffices.
SINGLE_HOP_MARGIN = 4.0


@dataclass(frozen=True)
class SINRParameters:
    """Validated constants of the SINR model.

    Instances are immutable; use :meth:`with_power` to derive a copy with a
    different transmission power (e.g. after sizing the power to a
    deployment's diameter with :func:`single_hop_power`).

    Parameters
    ----------
    alpha:
        Path-loss exponent, must satisfy ``alpha > 2``.
    beta:
        SINR reception threshold, must be positive.
    noise:
        Ambient noise ``N``, must be non-negative.
    power:
        Transmission power ``P``, must be positive.
    """

    alpha: float = 3.0
    beta: float = 1.5
    noise: float = 1.0
    power: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 2.0:
            raise ValueError(
                f"path-loss exponent alpha must exceed 2 (got {self.alpha}); "
                "the paper's analysis requires super-quadratic fading"
            )
        if not self.beta > 0.0:
            raise ValueError(f"SINR threshold beta must be positive (got {self.beta})")
        if self.noise < 0.0:
            raise ValueError(f"noise must be non-negative (got {self.noise})")
        if not self.power > 0.0:
            raise ValueError(f"transmission power must be positive (got {self.power})")

    @property
    def epsilon(self) -> float:
        """The paper's ``epsilon = alpha/2 - 1`` (Definition 1).

        Strictly positive because ``alpha > 2``. It controls how fast the
        good-node annulus budget ``96 * 2^{t(alpha - 1 - epsilon)}`` grows.
        """
        return self.alpha / 2.0 - 1.0

    def satisfies_single_hop(self, diameter: float, margin: float = SINGLE_HOP_MARGIN) -> bool:
        """Check the paper's single-hop assumption for a given ``diameter``.

        Requires ``P > margin * beta * N * diameter^alpha`` (Section 2).
        Trivially satisfied on a noiseless channel.
        """
        if diameter <= 0.0:
            raise ValueError(f"diameter must be positive (got {diameter})")
        return self.power > margin * self.beta * self.noise * diameter**self.alpha

    def with_power(self, power: float) -> "SINRParameters":
        """Return a copy of these parameters with a different power ``P``."""
        return replace(self, power=power)

    def sized_for(self, diameter: float, margin: float = SINGLE_HOP_MARGIN) -> "SINRParameters":
        """Return a copy whose power satisfies single-hop for ``diameter``."""
        return self.with_power(single_hop_power(self, diameter, margin=margin))


def single_hop_power(
    params: SINRParameters, diameter: float, margin: float = SINGLE_HOP_MARGIN
) -> float:
    """Smallest power (with 1% headroom) making a deployment single-hop.

    The paper (Section 2) requires ``P > c * beta * N * d(u, v)^alpha`` for
    every pair ``u, v``; it suffices to size against the deployment
    ``diameter`` (the longest link). On a noiseless channel any positive
    power works, and the current power is returned unchanged.
    """
    if diameter <= 0.0:
        raise ValueError(f"diameter must be positive (got {diameter})")
    if params.noise == 0.0:
        return params.power
    floor = margin * params.beta * params.noise * diameter**params.alpha
    return 1.01 * floor
