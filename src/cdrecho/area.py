"""Pulse-area propagation through a resonant absorber.

The area of a plane-wave pulse obeys d(phi)/dz = -(alpha/2) sin(phi) in an
absorbing medium: weak pulses decay as phi0 exp(-alpha z / 2) (Beer's law for
the field), a pi area is an unstable stationary point, and 0 and 2pi are
stable. Integrated with fixed-step RK4 for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PropagationConfig", "propagate_area"]

MAX_AREA_STEPS = 10**6  # the (z, phi) table holds 16 B per step: 16 MB


@dataclass(frozen=True)
class PropagationConfig:
    """Initial area (radians), absorption coefficient alpha (1/length),
    propagation depth z_max and step dz (same length unit); z_max/dz rounded
    up is at most MAX_AREA_STEPS."""

    phi0: float
    alpha: float
    z_max: float
    dz: float

    def __post_init__(self):
        if not math.isfinite(self.phi0):
            raise ValueError("phi0 must be finite")
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError("alpha must be finite and >= 0")
        if not math.isfinite(self.z_max) or self.z_max < 0:
            raise ValueError("z_max must be finite and >= 0")
        if not math.isfinite(self.dz) or self.dz <= 0:
            raise ValueError("dz must be positive")
        if self.z_max / self.dz > MAX_AREA_STEPS:  # ceil(x) > N exactly when x > N
            raise ValueError(f"z_max/dz must be at most {MAX_AREA_STEPS} steps")


def _slope(phi: float, alpha: float) -> float:
    return -0.5 * alpha * math.sin(phi)


def propagate_area(config: PropagationConfig) -> np.ndarray:
    """Propagate the pulse area from z = 0 to z_max.

    Returns an (n, 2) array of (z, phi) samples including both endpoints.
    The number of steps is z_max/dz rounded up, so the final row is exactly
    at z_max.
    """
    if config.z_max == 0.0:
        return np.array([[0.0, config.phi0]])
    n = max(1, math.ceil(config.z_max / config.dz - 1e-12))
    h = config.z_max / n
    a = config.alpha
    out = np.empty((n + 1, 2))
    out[0] = (0.0, config.phi0)
    phi = config.phi0
    for i in range(n):
        k1 = _slope(phi, a)
        k2 = _slope(phi + 0.5 * h * k1, a)
        k3 = _slope(phi + 0.5 * h * k2, a)
        k4 = _slope(phi + h * k3, a)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = ((i + 1) * h, phi)
    out[n, 0] = config.z_max
    return out
