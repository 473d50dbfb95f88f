"""Fixed-step RK4 integration of the driven three-level master equation.

The right-hand side is written out element by element from the rate
equations rather than assembled as a matrix commutator, so tests can pin it
against an independently built commutator oracle. Fixed-step classical RK4
keeps trajectories bit-reproducible across runs; adaptive steppers are
deliberately not used. With no decay a square pulse has an exact propagator,
which the ensemble engine uses; RK4 stays as the independent oracle that
verify and the tests check the exact routes against.

Between pulse edges the drive is constant, so the equation is linear with a
fixed 9x9 generator L on vec(rho), built by applying the element-wise
right-hand side to the nine unit matrices. One classical RK4 step of length
h is then exactly the step polynomial T(hL) = 1 + hL + (hL)^2/2 + (hL)^3/6 +
(hL)^4/24 (the same method and O(h^4) error, not the exact exponential), and
integrate_sequence advances from one output sample to the next by a single
matrix power of T. T is held as E = T - 1, and T^k as T^k - 1, so rounding
stays relative to the step's own change rather than to 1 and does not pile
up over thousands of steps.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator

import numpy as np

from .states import AtomParams, Channel, PulseSequence, _as_state_array

__all__ = ["integrate_sequence"]

# The most states one run may emit, about 3.2 million: tracemalloc puts its
# peak at 630 to 672 B per emitted state, so a run stays in an echo run's 2 GiB
_MAX_STATES = 2 * 1024**3 // 672


def _rhs_elements(rho: np.ndarray, omega_j, omega_k, atom: AtomParams) -> np.ndarray:
    """Elementwise master-equation derivative; broadcasts over leading axes.

    The Rabi frequencies omega_j and omega_k (rad/s) are scalars or arrays
    shaped like rho's leading axes, one drive per state."""
    oj = 0.5j * omega_j
    ok = 0.5j * omega_k
    d = atom.delta
    ds = atom.delta_s
    g1, g2, g3 = atom.gamma

    r11 = rho[..., 0, 0]
    r12 = rho[..., 0, 1]
    r13 = rho[..., 0, 2]
    r21 = rho[..., 1, 0]
    r22 = rho[..., 1, 1]
    r23 = rho[..., 1, 2]
    r31 = rho[..., 2, 0]
    r32 = rho[..., 2, 1]
    r33 = rho[..., 2, 2]

    out = np.empty_like(rho)
    out[..., 0, 0] = -oj * (r12 - r21) - g1 * r11
    out[..., 1, 1] = -oj * (r21 - r12) - ok * (r23 - r32) - g2 * r22
    out[..., 2, 2] = -ok * (r32 - r23) - g3 * r33
    out[..., 0, 1] = -oj * (r11 - r22) - ok * r13 + 1j * d * r12 - 0.5 * (g1 + g2) * r12
    out[..., 0, 2] = -ok * r12 + oj * r23 + 1j * ds * r13 - 0.5 * (g1 + g3) * r13
    out[..., 1, 2] = (
        -ok * (r22 - r33) + oj * r13 + 1j * (ds - d) * r23 - 0.5 * (g2 + g3) * r23
    )
    out[..., 1, 0] = oj * (r11 - r22) + ok * r31 - 1j * d * r21 - 0.5 * (g1 + g2) * r21
    out[..., 2, 0] = ok * r21 - oj * r32 - 1j * ds * r31 - 0.5 * (g1 + g3) * r31
    out[..., 2, 1] = (
        ok * (r22 - r33) - oj * r31 - 1j * (ds - d) * r32 - 0.5 * (g2 + g3) * r32
    )
    return out


def _hermitian_checked(rho: np.ndarray) -> np.ndarray:
    # re-symmetrize to stop roundoff from drifting rho off Hermitian
    rho = 0.5 * (rho + rho.conj().T)
    if not np.isfinite(rho).all():
        raise FloatingPointError("integration produced non-finite state")
    return rho


def _step_minus_one(omega_j: float, omega_k: float, atom: AtomParams, h: float) -> np.ndarray:
    """E = T(hL) - 1 = hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24 for one RK4 step
    T of the constant-drive generator L acting on the row-major vec(rho).

    E is kept apart from the identity, so its entries round relative to
    their own size, not to 1."""
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    x = h * _rhs_elements(units, omega_j, omega_k, atom).reshape(9, 9).T
    e = np.zeros((9, 9), dtype=complex)
    for k in (4, 3, 2, 1):
        e = (x + x @ e) / k
    return e


def _power_minus_one(e: np.ndarray, k: int) -> np.ndarray:
    """T^k - 1 for T = 1 + e and k >= 1, by binary powers of T, each held as
    its difference from 1: (1 + a)(1 + b) - 1 = a + b + a b."""
    out = None
    while True:
        if k & 1:
            out = e if out is None else out + e + out @ e
        k >>= 1
        if not k:
            return out
        e = 2.0 * e + e @ e


def _segments(seq: PulseSequence) -> Iterator[tuple[float, float, float, float]]:
    """Walk [0, t_end] as the gap before each pulse, the pulse, then the tail,
    yielding (start, end, omega_j, omega_k): the drive is constant on each
    piece and zero in the gaps. A gap may be empty."""
    now = 0.0
    for p in seq.pulses:
        yield now, p.t_start, 0.0, 0.0
        if p.channel is Channel.OPTICAL12:
            yield p.t_start, p.t_end, p.rabi_frequency, 0.0
        else:
            yield p.t_start, p.t_end, 0.0, p.rabi_frequency
        now = p.t_end
    yield now, seq.t_end, 0.0, 0.0


def integrate_sequence(
    rho0,
    seq: PulseSequence,
    atom: AtomParams,
    dt: float,
    sample_stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a finite-duration pulse sequence over [0, t_end] from rho0,
    any 3x3 array-like.

    Requires every pulse duration > 0 with a finite Rabi frequency, and dt no
    coarser than a hundredth of the shortest pulse. Segment lengths are
    divided into whole steps, so the trajectory lands exactly on every pulse
    edge. Returns (times, states):
    the (n,) sample times and the read-only (n, 3, 3) states, one every
    sample_stride steps plus all segment edges, starting with (0, rho0).

    Each segment takes its RK4 step matrix once and reaches each emitted
    sample by one matrix power of it, applied as rho + (T^k - 1) rho. Every
    emitted state is re-symmetrized to Hermitian and checked for non-finite
    entries, which raise FloatingPointError; an overflow between two samples
    cannot turn finite again under the matrix products, so it is caught at
    the next sample. A run that would emit more than _MAX_STATES states is
    refused with ValueError before its first step.
    """
    rho = _as_state_array(rho0)
    if dt <= 0 or not math.isfinite(dt):
        raise ValueError("dt must be positive and finite")
    if not isinstance(sample_stride, numbers.Integral):
        raise ValueError(f"sample_stride must be an integer, got {sample_stride!r}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    durations = [p.duration for p in seq.pulses]
    if any(d == 0.0 for d in durations):
        raise ValueError("integrate_sequence requires finite pulse durations")
    if durations:
        limit = min(durations) / 100
        if dt > limit:
            raise ValueError(f"dt={dt} too coarse; need <= {limit} (shortest pulse / 100)")
    if not all(math.isfinite(p.rabi_frequency) for p in seq.pulses):
        raise ValueError("drive amplitudes must be finite")
    if not math.isfinite(seq.t_end / dt):
        raise ValueError(f"need finite t_end / dt, got {seq.t_end:g} / {dt:g}")

    pieces = []  # (start, end, omega_j, omega_k, steps) of every non-empty segment
    for a, b, omega_j, omega_k in _segments(seq):
        span = b - a
        if span > 0:
            pieces.append((a, b, omega_j, omega_k, max(1, math.ceil(span / dt - 1e-9))))
    emitted = 1 + sum(-(-n // min(sample_stride, n)) for *_, n in pieces)
    if emitted > _MAX_STATES:
        raise ValueError(
            f"the run would emit {emitted} states, past the bound of {_MAX_STATES}; "
            "raise dt or sample_stride"
        )

    times, states = [0.0], [rho]
    for a, b, omega_j, omega_k, n in pieces:
        h = (b - a) / n
        step = _step_minus_one(omega_j, omega_k, atom, h)
        stride = min(sample_stride, n)
        by_stride = _power_minus_one(step, stride)
        for start in range(0, n, stride):
            end = min(start + stride, n)
            k = end - start
            power = by_stride if k == stride else _power_minus_one(step, k)
            vec = rho.reshape(9)
            rho = _hermitian_checked((vec + power @ vec).reshape(3, 3))
            # land exactly on the segment edge despite float accumulation
            times.append(b if end == n else a + end * h)
            states.append(rho)
    states = np.stack(states)
    states.setflags(write=False)
    return np.array(times), states
