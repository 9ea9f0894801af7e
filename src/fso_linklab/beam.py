"""Gaussian-beam propagation geometry and obstacle blockage classification.

Whether an obstacle in front of the receiver blocks the whole beam or only
its coherent core depends on two length scales at the receiver plane: the
turbulence-widened beam radius and the transverse coherence radius. This
module computes both from a link scenario and classifies an obstacle
diameter against them.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

from .errors import DomainError


class PlaneWaveValidityWarning(UserWarning):
    """The coherence-radius formula assumes a receiver far from the transmitter.

    Emitted when the link length is under 5 k W0^2; the value is still
    computed and returned.
    """


class BlockageClass(enum.Enum):
    NONE = "none"
    LOS = "los"
    TOTAL = "total"


@dataclass(frozen=True)
class BeamScenario:
    """Link geometry, all SI units.

    w0: transmitter beam radius. f0: phase-front curvature radius at the
    transmitter, math.inf for a collimated beam. wavelength: optical
    wavelength. cn2: refractive-index structure parameter (m^-2/3), 0 for
    vacuum. length: propagation distance. obstacle_d: obstacle diameter,
    optional; only classify_blockage requires it.
    """

    w0: float
    wavelength: float
    length: float
    cn2: float = 0.0
    f0: float = math.inf
    obstacle_d: float | None = None

    def __post_init__(self) -> None:
        # chained comparisons: NaN fails each, and inf fails the upper bound
        if not 0.0 < self.w0 < math.inf:
            raise DomainError(f"w0 must be finite and > 0, got {self.w0}")
        if not 0.0 < self.wavelength < math.inf:
            raise DomainError(f"wavelength must be finite and > 0, got {self.wavelength}")
        if not 0.0 < self.length < math.inf:
            raise DomainError(f"length must be finite and > 0, got {self.length}")
        if not 0.0 <= self.cn2 < math.inf:
            raise DomainError(f"cn2 must be finite and >= 0, got {self.cn2}")
        if not self.f0 > 0.0:
            raise DomainError(f"f0 must be > 0 (math.inf = collimated), got {self.f0}")
        if self.obstacle_d is not None and not 0.0 <= self.obstacle_d < math.inf:
            raise DomainError(f"obstacle_d must be finite and >= 0, got {self.obstacle_d}")

    @property
    def wave_number(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def collimated(self) -> bool:
        return math.isinf(self.f0)


def beam_radius(s: BeamScenario) -> float:
    """Diffraction-spread beam radius at the receiver plane."""
    k = s.wave_number
    diffraction = 2.0 * s.length / (k * s.w0 * s.w0)
    focus = 1.0 if s.collimated else 1.0 - s.length / s.f0
    return s.w0 * math.hypot(focus, diffraction)


def rytov_variance(s: BeamScenario) -> float:
    """Weak-turbulence strength metric for the scenario."""
    k = s.wave_number
    return 1.23 * s.cn2 * k ** (7.0 / 6.0) * s.length ** (11.0 / 6.0)


def effective_beam_radius(s: BeamScenario) -> float:
    """Beam radius including the long-term turbulence widening."""
    w = beam_radius(s)
    if s.cn2 == 0.0:
        return w
    var = rytov_variance(s)
    fresnel = 2.0 * s.length / (s.wave_number * w * w)
    return w * math.sqrt(1.0 + 1.625 * var ** 1.2 * fresnel)


def coherence_radius(s: BeamScenario) -> float:
    """Transverse coherence radius of the field at the receiver.

    Returns math.inf for cn2 = 0 (nothing degrades spatial coherence).
    Warns when the link is too short for the underlying plane-wave
    assumption; the value is computed regardless.
    """
    if s.length < 5.0 * s.wave_number * s.w0 * s.w0:
        warnings.warn(
            "link shorter than 5 k w0^2: the receiver is not in the "
            "plane-wave regime the coherence-radius formula assumes",
            PlaneWaveValidityWarning, stacklevel=2)
    if s.cn2 == 0.0:
        return math.inf
    return (1.46 * s.cn2 * s.wave_number ** 2 * s.length) ** -0.6


def classify_blockage(s: BeamScenario) -> BlockageClass:
    """Place the obstacle diameter against the two beam scales.

    TOTAL at or above the effective beam diameter, LOS from the coherence
    diameter up to it, NONE below the coherence diameter.
    """
    if s.obstacle_d is None:
        raise DomainError("classify_blockage needs obstacle_d in the scenario")
    d = s.obstacle_d
    if d >= 2.0 * effective_beam_radius(s):
        return BlockageClass.TOTAL
    if d >= 2.0 * coherence_radius(s):
        return BlockageClass.LOS
    return BlockageClass.NONE
