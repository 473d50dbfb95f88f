"""Density-matrix and pulse value types for the three-level echo simulator.

Level ordering is |1> ground, |2> optically excited, |3> auxiliary spin.
All types here are immutable values; every operation returns a new object.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Channel",
    "DensityMatrix",
    "Pulse",
    "PulseSequence",
    "PulseOverlapError",
    "AtomParams",
    "ValidationReport",
    "Violation",
    "ground_state",
    "validate",
    "max_element_distance",
    "purity",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9


class Channel(enum.Enum):
    """Which transition a pulse drives."""

    OPTICAL12 = "optical12"
    CONTROL23 = "control23"


def _as_state_array(elements) -> np.ndarray:
    arr = np.asarray(elements, dtype=complex)
    if arr.shape != (3, 3):
        raise ValueError(f"density matrix must be 3x3, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("density matrix contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """3x3 complex density matrix. The backing array is read-only."""

    elements: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "elements", _as_state_array(self.elements))

    def population(self, level: int) -> float:
        """Real occupation of a level, 1-based index."""
        if level not in (1, 2, 3):
            raise IndexError(f"level index must be 1, 2 or 3, got {level}")
        return float(self.elements[level - 1, level - 1].real)

    def trace(self) -> float:
        return float(self.elements.trace().real)

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return bool(np.array_equal(self.elements, other.elements))

    def __hash__(self):
        return hash(self.elements.tobytes())


def ground_state() -> DensityMatrix:
    """All population in |1>, no coherences."""
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    return DensityMatrix(rho)


def max_element_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Largest elementwise absolute difference between two states."""
    return float(np.abs(a.elements - b.elements).max())


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 for pure states, >= 1/3 for any valid 3-level state."""
    m = rho.elements
    return float((m @ m).trace().real)


@dataclass(frozen=True)
class Violation:
    """One failed physicality check and how badly it failed."""

    name: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def magnitude(self, name: str) -> float:
        for v in self.violations:
            if v.name == name:
                return v.magnitude
        return 0.0


def validate(rho: DensityMatrix) -> ValidationReport:
    """Check hermiticity, unit trace and positivity. Reports, never raises.

    Tolerances: hermiticity 1e-12, trace 1e-10, smallest eigenvalue >= -1e-9.
    """
    m = rho.elements
    violations = []
    herm = float(np.abs(m - m.conj().T).max())
    if herm > HERMITICITY_TOL:
        violations.append(Violation("hermiticity", herm))
    tr = float(abs(m.trace() - 1.0))
    if tr > TRACE_TOL:
        violations.append(Violation("trace", tr))
    # eigvalsh needs a Hermitian input; symmetrize so a hermiticity breach
    # does not poison the positivity check as well
    sym = (m + m.conj().T) / 2.0
    lam = float(np.linalg.eigvalsh(sym).min())
    if lam < -EIGENVALUE_TOL:
        violations.append(Violation("positivity", -lam))
    return ValidationReport(ok=not violations, violations=tuple(violations))


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
