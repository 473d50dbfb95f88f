"""State and pulse value types for the three-level echo simulator.

Level ordering is |1> ground, |2> optically excited, |3> auxiliary spin. A
state is a 3x3 complex density-matrix array; the pulse types here are
immutable values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Channel",
    "Pulse",
    "PulseSequence",
    "PulseOverlapError",
    "AtomParams",
    "ground_state",
]


class Channel(enum.Enum):
    """Which transition a pulse drives."""

    OPTICAL12 = "optical12"
    CONTROL23 = "control23"


def _as_state_array(elements) -> np.ndarray:
    """A read-only complex copy of a 3x3 array-like with finite entries."""
    arr = np.asarray(elements, dtype=complex)
    if arr.shape != (3, 3):
        raise ValueError(f"density matrix must be 3x3, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("density matrix contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def ground_state() -> np.ndarray:
    """All population in |1>, no coherences, as a read-only 3x3 array."""
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    return _as_state_array(rho)


@dataclass(frozen=True)
class Pulse:
    """One square pulse on one transition.

    area is the time-integrated Rabi frequency in radians; duration 0 means a
    hard pulse (instantaneous rotation). Times and durations are seconds.
    """

    channel: Channel
    area: float
    t_start: float
    duration: float = 0.0

    def __post_init__(self):
        if not isinstance(self.channel, Channel):
            raise ValueError(f"channel must be a Channel, got {self.channel!r}")
        if not math.isfinite(self.area):
            raise ValueError("pulse area must be finite")
        if not math.isfinite(self.t_start) or self.t_start < 0:
            raise ValueError("pulse t_start must be finite and >= 0")
        if not math.isfinite(self.duration) or self.duration < 0:
            raise ValueError("pulse duration must be finite and >= 0")
        if self.duration > 0 and self.t_end == self.t_start:
            raise ValueError(
                f"pulse duration {self.duration!r} s is too short to move "
                f"t_start {self.t_start!r} s"
            )

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    @property
    def is_hard(self) -> bool:
        return self.duration == 0.0

    @property
    def rabi_frequency(self) -> float:
        """Implied square-envelope Rabi frequency, rad/s. Finite pulses only."""
        if self.duration == 0.0:
            raise ValueError("a hard pulse has no finite Rabi frequency")
        return self.area / self.duration


class PulseOverlapError(ValueError):
    """A pulse starts before the previous one has ended."""


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered pulses plus the simulation window [0, t_end]."""

    pulses: tuple[Pulse, ...]
    t_end: float

    def __post_init__(self):
        pulses = tuple(self.pulses)
        object.__setattr__(self, "pulses", pulses)
        for p in pulses:
            if not isinstance(p, Pulse):
                raise ValueError(f"expected Pulse, got {p!r}")
        for a, b in zip(pulses, pulses[1:]):
            if b.t_start < a.t_start:
                raise ValueError("pulses must be sorted by t_start")
            if b.t_start < a.t_end:
                raise PulseOverlapError(
                    f"pulses overlap: one ends at {a.t_end}, next starts at {b.t_start}"
                )
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        last = max((p.t_end for p in pulses), default=0.0)
        if self.t_end < last:
            raise ValueError(f"t_end {self.t_end} precedes last pulse end {last}")


@dataclass(frozen=True)
class AtomParams:
    """Single-atom parameters: detunings in rad/s, per-level decay rates in 1/s.

    delta detunes the optical level |2>; delta_s detunes the spin level |3>.
    gamma enters only through the anticommutator damping term.
    """

    delta: float = 0.0
    delta_s: float = 0.0
    gamma: tuple[float, float, float] = field(default=(0.0, 0.0, 0.0))

    def __post_init__(self):
        if not math.isfinite(self.delta) or not math.isfinite(self.delta_s):
            raise ValueError("detunings must be finite")
        gamma = tuple(float(g) for g in self.gamma)
        if len(gamma) != 3:
            raise ValueError("gamma must have one rate per level")
        if any(not math.isfinite(g) or g < 0 for g in gamma):
            raise ValueError("decay rates must be finite and >= 0")
        object.__setattr__(self, "gamma", gamma)
