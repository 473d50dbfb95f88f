"""Pulse-area propagation through a resonant absorber.

The area of a plane-wave pulse obeys phi'(z) = -(alpha/2) sin(phi(z)) in an
absorbing medium (the McCall-Hahn area theorem), solved exactly by
tan(phi/2) = tan(phi0/2) exp(-alpha z / 2): weak pulses decay as
phi0 exp(-alpha z / 2) (Beer's law for the field), a pi area is an unstable
stationary point, and 0 and 2pi are stable. `propagate_area` evaluates this
closed form, so it is exact at any optical depth.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["propagate_area"]

_DEPTHS = 1001  # rows of the (z, phi) table: 1000 even steps from 0 to z_max


def propagate_area(phi0: float, alpha: float, z_max: float) -> np.ndarray:
    """Propagate the area phi0 (radians) through absorption alpha (1/length)
    from z = 0 to z_max (same length unit).

    Returns an (n, 2) array of (z, phi) rows at 1001 evenly spaced depths,
    both endpoints included, or the single row (0, phi0) when z_max is 0.
    phi moves monotonically from phi0 toward the nearest multiple of 2pi.
    It keeps phi0 bit for bit where exp(-alpha z / 2) rounds to 1, and at
    every depth when phi0 is k * math.pi for |k| <= 4.
    """
    if not math.isfinite(phi0):
        raise ValueError("phi0 must be finite")
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError("alpha must be finite and >= 0")
    if not math.isfinite(z_max) or z_max < 0:
        raise ValueError("z_max must be finite and >= 0")
    if z_max == 0.0:
        return np.array([[0.0, phi0]])
    z = np.linspace(0.0, z_max, _DEPTHS)
    with np.errstate(over="ignore"):  # alpha z = inf is full absorption: decay 0
        decay = np.exp(-0.5 * alpha * z)
    # phi0 = 2 pi k + psi exactly, with psi in [-pi, pi]; phi tends to 2 pi k.
    # tan(psi/2) enters as the ratio sin(psi/2) / sin((pi - |psi|)/2), whose
    # denominator is exact near +-pi, so the float pi, not the real one, is
    # the unstable point.
    psi = math.remainder(phi0, 2.0 * math.pi)
    offset = 2.0 * np.arctan2(
        math.sin(0.5 * psi) * decay, math.sin(0.5 * (math.pi - abs(psi)))
    )
    # Rows where decay is 1 keep phi0 itself (tan then arctan can miss psi by
    # an ulp), and psi = +-pi stays put also where decay underflows to 0.
    still = (decay == 1.0) | (abs(psi) == math.pi)
    phi = np.where(still, phi0, (phi0 - psi) + offset)
    return np.column_stack((z, phi))
