"""Closed-form resonant states after each pulse of the echo protocols.

The protocols act on a ground-state atom with a weak data pulse D, optical
rephasing pulses R1/R2, and a control pair C1/C2 that shelves the excited
amplitude on the spin level between rephasings. On resonance each stage has
an exact solution parametrized only by accumulated pulse areas:

* consecutive pulses on one channel add their areas,
* the control pair scales the optical coherence by cos((c1+c2)/2), which is
  -1 for two pi pulses and is what flips absorption into emission,
* the final rephasing mixes the optical block while leaving the shelved
  population untouched.

Every after_* function is one stage's closed form: it takes areas, as
floats or as arrays that broadcast against each other, and returns the full
(..., 3, 3) states, including the spin coherences produced by composing the
control stage with the final optical rotation. A whole sweep is one call.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "StageAreas",
    "after_data",
    "after_r1",
    "after_r2_dr",
    "after_c1",
    "after_c2",
    "after_r2_cdr",
    "stage_chain",
    "observables",
    "COLUMNS",
    "STAGES",
    "CANONICAL",
    "HALF_PI",
]

@dataclass(frozen=True)
class StageAreas:
    """Pulse areas (radians) for the five-pulse protocol, in firing order."""

    phi_d: float
    phi_r1: float
    phi_c1: float
    phi_c2: float
    phi_r2: float

    def __post_init__(self):
        for name in ("phi_d", "phi_r1", "phi_c1", "phi_c2", "phi_r2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # the closed forms add the optical areas and the control areas
        if not math.isfinite(self.phi_d + self.phi_r1 + self.phi_r2):
            raise ValueError("phi_d + phi_r1 + phi_r2 must be finite")
        if not math.isfinite(self.phi_c1 + self.phi_c2):
            raise ValueError("phi_c1 + phi_c2 must be finite")


# the canonical protocol: pi rephasing and control pulses after a weak
# (0.1 pi) or a pi/2 data pulse
CANONICAL = StageAreas(0.1 * math.pi, math.pi, math.pi, math.pi, math.pi)
HALF_PI = replace(CANONICAL, phi_d=0.5 * math.pi)


def _hermitian(r11, r22, r33, r12, r13, r23) -> np.ndarray:
    # (..., 3, 3) states from the broadcast diagonal and upper triangle
    parts = np.broadcast_arrays(
        r11, r12, r13, np.conj(r12), r22, r23, np.conj(r13), np.conj(r23), r33
    )
    m = np.stack(parts, axis=-1, dtype=complex)
    return m.reshape(m.shape[:-1] + (3, 3))


def _optical_block(theta) -> np.ndarray:
    # state after total optical area theta applied to the ground state
    return _hermitian(
        np.square(np.cos(theta / 2.0)),
        np.square(np.sin(theta / 2.0)),
        0.0,
        -0.5j * np.sin(theta),
        0.0,
        0.0,
    )


def _shelved(theta, control_total) -> np.ndarray:
    # optical preparation of area theta followed by control area control_total
    half = control_total / 2.0
    excited = np.square(np.sin(theta / 2.0))
    return _hermitian(
        np.square(np.cos(theta / 2.0)),
        np.square(np.cos(half)) * excited,
        np.square(np.sin(half)) * excited,
        -0.5j * np.cos(half) * np.sin(theta),
        -0.5 * np.sin(half) * np.sin(theta),
        -0.5j * np.sin(control_total) * excited,
    )


def _rephased(theta, control_total, phi_r2) -> np.ndarray:
    # the shelved state of _shelved(theta, control_total) rotated by phi_r2
    half_c = control_total / 2.0
    c = np.cos(phi_r2 / 2.0)
    s = np.sin(phi_r2 / 2.0)
    ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
    cosh_c = np.cos(half_c)

    r11 = np.square(c * ct - s * cosh_c * st)
    r22 = np.square(s * ct + c * cosh_c * st)
    r33 = np.square(np.sin(half_c)) * np.square(st)
    im12 = -0.5 * (
        cosh_c * np.sin(theta) * np.cos(phi_r2)
        + np.sin(phi_r2) * (np.square(ct) - np.square(cosh_c) * np.square(st))
    )
    r13_prev = -0.5 * np.sin(half_c) * np.sin(theta)
    i23_prev = -0.5 * np.sin(control_total) * np.square(st)
    r13 = c * r13_prev - s * i23_prev
    i23 = s * r13_prev + c * i23_prev
    return _hermitian(r11, r22, r33, 1j * im12, r13, 1j * i23)


COLUMNS = ("im_rho12", "re_rho13", "rho11", "rho22", "rho33")


def observables(m: np.ndarray) -> np.ndarray:
    """The COLUMNS of (..., 3, 3) states as a (..., 5) float array."""
    diagonal = [m[..., k, k].real for k in range(3)]
    return np.stack([m[..., 0, 1].imag, m[..., 0, 2].real, *diagonal], axis=-1)


def after_data(phi_d) -> np.ndarray:
    """Ground state hit by the data pulse: rho12 = -(i/2) sin(phi_d)."""
    return _optical_block(phi_d)


def after_r1(phi_d, phi_r1) -> np.ndarray:
    """After the first rephasing pulse; optical areas simply add."""
    return _optical_block(phi_d + phi_r1)


def after_r2_dr(phi_d, phi_r1, phi_r2) -> np.ndarray:
    """Double-rephasing protocol without control pulses: one optical rotation
    of total area phi_d + phi_r1 + phi_r2."""
    return _optical_block(phi_d + phi_r1 + phi_r2)


def after_c1(phi_d, phi_r1, phi_c1) -> np.ndarray:
    """First control pulse: scales rho12 by cos(phi_c1/2) and moves the rest
    of the excited amplitude onto the spin level."""
    return _shelved(phi_d + phi_r1, phi_c1)


def after_c2(phi_d, phi_r1, phi_c1, phi_c2) -> np.ndarray:
    """Second control pulse; control areas add, so a pi-pi pair gives the
    coherence scale cos(pi) = -1 and restores the excited population."""
    return _shelved(phi_d + phi_r1, phi_c1 + phi_c2)


def after_r2_cdr(phi_d, phi_r1, phi_c1, phi_c2, phi_r2) -> np.ndarray:
    """Full controlled-double-rephasing state after the final optical pulse.

    Composes the post-C2 state with an optical rotation of area phi_r2. The
    shelved population sin^2((c1+c2)/2) sin^2(theta/2) is untouched; the
    spin coherences mix as (rho13, rho23) -> (c rho13 + i s rho23,
    i s rho13 + c rho23) with c = cos(phi_r2/2), s = sin(phi_r2/2).
    """
    return _rephased(phi_d + phi_r1, phi_c1 + phi_c2, phi_r2)


# stage name -> (area names in call order, the stage's closed form)
STAGES: dict[str, tuple[tuple[str, ...], Callable[..., np.ndarray]]] = {
    name: (tuple(inspect.signature(form).parameters), form)
    for name, form in (
        ("data", after_data),
        ("r1", after_r1),
        ("r2_dr", after_r2_dr),
        ("c1", after_c1),
        ("c2", after_c2),
        ("r2_cdr", after_r2_cdr),
    )
}


def stage_chain(areas: StageAreas) -> list[tuple[str, np.ndarray]]:
    """States after each of D, R1, C1, C2, R2 in firing order."""
    chain = []
    for label, stage in (("D", "data"), ("R1", "r1"), ("C1", "c1"), ("C2", "c2"), ("R2", "r2_cdr")):
        names, form = STAGES[stage]
        chain.append((label, form(*(getattr(areas, n) for n in names))))
    return chain
