"""Inhomogeneous-ensemble polarization traces and echo bookkeeping.

A discrete Gaussian comb of detunings stands in for the inhomogeneous line.
The ensemble polarization P(t) is the weighted sum of rho12 over the comb;
it collapses by dephasing after each optical pulse and revives wherever the
per-atom phases realign. Echo times follow a simple phase ledger: the
optical phase slope is +1 per unit time, every odd-pi optical pulse negates
the accumulated phase, and the phase stands still while the coherence is
shelved on the spin level between the two control pulses.

The comb walks the sequence through `unitary.stretches`, the same exact
propagators that `run_sequence_hard` runs for one atom, for hard and square
pulses alike; this module keeps only the weighted comb sums. The `engine`
name only states which pulses a sequence may hold; the RK4 integrator is the
independent oracle.

Sign convention: Im P < 0 is an absorptive signal, Im P > 0 emissive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import Channel, PulseSequence
from .unitary import stretches

__all__ = [
    "DEFAULT_SIGMA",
    "DEFAULT_N_ATOMS",
    "DEFAULT_SPAN",
    "EnsembleSpec",
    "EchoEvent",
    "EchoReport",
    "EnsembleTrace",
    "TRACE_BUDGET_BYTES",
    "trace_bytes",
    "time_grid",
    "simulate_ensemble",
    "predict_echo_times",
    "detect_echoes",
]

TWO_PI = 2.0 * math.pi

DEFAULT_SIGMA = TWO_PI * 1.0e6  # rad/s, 1 MHz Gaussian width
DEFAULT_N_ATOMS = 201
DEFAULT_SPAN = 5.0

_ODD_PI_TOL = 1e-6


@dataclass(frozen=True)
class EnsembleSpec:
    """Gaussian detuning comb: width sigma (rad/s), n_atoms odd grid points
    spanning [-span*sigma, +span*sigma]."""

    sigma: float = DEFAULT_SIGMA
    n_atoms: int = DEFAULT_N_ATOMS
    span: float = DEFAULT_SPAN

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.n_atoms < 3 or self.n_atoms % 2 == 0:
            raise ValueError("n_atoms must be odd and >= 3")
        if not math.isfinite(self.span) or self.span < 0:
            raise ValueError("span must be finite and >= 0")


def _grid(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Detunings of the comb and their Gaussian weights, normalized to sum 1."""
    half = spec.span * spec.sigma
    deltas = np.linspace(-half, half, spec.n_atoms)
    weights = np.exp(-(deltas**2) / (2.0 * spec.sigma**2))
    weights /= weights.sum()
    return deltas, weights


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform sample times from 0 in n = max(1, round(t_end/dt)) steps of dt.

    The grid is not stretched onto t_end: its last sample n*dt lies within
    dt/2 of t_end (for t_end >= dt/2; a shorter window still gets one step).
    """
    if dt <= 0 or t_end < 0:
        raise ValueError("need dt > 0 and t_end >= 0")
    n = max(1, round(t_end / dt))
    return np.linspace(0.0, n * dt, n + 1)


@dataclass(frozen=True)
class EnsembleTrace:
    """Sampled ensemble observables: complex P(t) and mean level populations."""

    times: np.ndarray
    polarization: np.ndarray
    pop_ground: np.ndarray
    pop_excited: np.ndarray
    pop_spin: np.ndarray

    def __post_init__(self):
        # frozen copies: the caller's arrays stay as they were
        for name in ("times", "polarization", "pop_ground", "pop_excited", "pop_spin"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def population_at(self, t: float) -> tuple[float, float, float]:
        """Mean populations at the sample nearest to t."""
        i = int(np.argmin(np.abs(self.times - t)))
        return (
            float(self.pop_ground[i]),
            float(self.pop_excited[i]),
            float(self.pop_spin[i]),
        )


@dataclass(frozen=True)
class EchoEvent:
    time: float
    amplitude: float
    im_sign: int
    label: str


@dataclass(frozen=True)
class EchoReport:
    events: tuple[EchoEvent, ...]

    def labeled(self, label: str) -> tuple[EchoEvent, ...]:
        return tuple(e for e in self.events if e.label == label)


_TABLE_GAP_RAD = 1e-10  # largest phase error the ladder tables may add


def _table(t0: float, h: float, k: int, f: np.ndarray) -> np.ndarray:
    """The table exp(i (t0 + r h) f_m), shape (k, len(f)), built by doubling.

    Row 0 is exp(i t0 f), then rows [j, 2j) are rows [0, j) times exp(i j h f):
    about log2(k) exp rows plus k len(f) complex products.
    """
    table = np.empty((k, f.size), dtype=complex)
    table[0] = np.exp(1j * t0 * f)
    j = 1
    while j < k:
        m = min(j, k - j)
        np.multiply(table[:m], np.exp(1j * (j * h) * f), out=table[j : j + m])
        j *= 2
    return table


def _phase_sum(tau: np.ndarray, f: np.ndarray, c: np.ndarray) -> np.ndarray:
    """S[k, q] = sum_m c[m, q] exp(i tau_k f_m) over increasing tau, in bounded memory.

    Samples go in blocks of B = ceil(sqrt(n)). When tau lies on its ladder
    tau_0 + k h (h through the end points) to within _TABLE_GAP_RAD of phase,
    as time_grid stretches do, the sum is the ladder's: an in-block table
    exp(i r h f) times one column exp(i (tau_0 + b B h) f) c per block, in one
    matrix product. Other times take the dense exp(i tau f) c one block at a
    time. Memory is O(sqrt(n) len(f) q) either way.
    """
    n = tau.size
    size = math.isqrt(n - 1) + 1
    n_blocks = -(-n // size)
    h = (tau[-1] - tau[0]) / max(n - 1, 1)
    gap = np.abs(tau - (tau[0] + h * np.arange(n))).max() * np.abs(f).max(initial=0.0)
    if gap > _TABLE_GAP_RAD:
        out = np.empty((n, c.shape[1]), dtype=complex)
        for i in range(0, n, size):
            out[i : i + size] = np.exp(1j * np.multiply.outer(tau[i : i + size], f)) @ c
        return out
    cols = _table(tau[0], size * h, n_blocks, f).T[:, :, None] * c[:, None]
    out = _table(0.0, h, size, f) @ cols.reshape(f.size, -1)
    return out.reshape(size, n_blocks, -1).swapaxes(0, 1).reshape(n_blocks * size, -1)[:n]


TRACE_BUDGET_BYTES = 2 * 1024**3  # the largest trace_bytes an echo run may take on


def trace_bytes(n_atoms: float, n_t: float, pulse_samples: float) -> float:
    """Estimated peak bytes of an echo run, from its sizes alone.

    The run takes n_t samples over n_atoms atoms, and its longest square pulse
    spans pulse_samples samples (0 for hard pulses). Per sample: the times, P,
    populations, the trace's copies and the echo CSV rendered from them (about
    0.56 kB measured). Per atom: the comb and its states. On top, the larger
    _phase_sum peak: an in-block table of B x F and per-block columns of
    F x n/B x q complex entries, copied once to reshape when q > 1, with B and
    n/B at most sqrt(n) + 1. F = n_atoms and q = 1 over a free stretch of up to
    n_t samples; F = 9 n_atoms and q = 9, plus the coefficients, inside a
    square pulse. All in floats, so a grid of 1e300 samples is simply too large.
    """

    def phase_sum(n: float, f: float, q: int) -> float:
        s = math.sqrt(n) + 1.0
        return 16.0 * (f * s * (1 + q * (2 if q > 1 else 1)) + f * q + 2.0 * n * q)

    pulse = phase_sum(pulse_samples, 9.0 * n_atoms, 9) if pulse_samples > 0 else 0.0
    return 640.0 * n_t + 1024.0 * n_atoms + max(phase_sum(n_t, n_atoms, 1), pulse)


def _trace(
    seq: PulseSequence,
    deltas: np.ndarray,
    delta_s: np.ndarray,
    weights: np.ndarray,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted comb sums of P(t) and the mean populations along the exact walk.

    On a free stretch rho12 advances at +delta; inside a square pulse the
    mean rho_ab(tau) = sum_n w_n sum_kl v_ak v_bl r_kl exp(-i beat_kl tau).
    """
    ground = np.zeros((deltas.size, 3, 3), dtype=complex)
    ground[:, 0, 0] = 1.0
    diag = (np.arange(3), np.arange(3))
    pol = np.empty(times.size, dtype=complex)
    pops = np.empty((times.size, 3))
    idx = 0
    for start, end, rho, pulse in stretches(seq, deltas, delta_s, ground):
        j = int(np.searchsorted(times, end, side="left"))
        if j == idx:
            continue
        tau = times[idx:j] - start
        if pulse is None:
            coef = (weights * rho[:, 0, 1])[:, None]
            pol[idx:j] = _phase_sum(tau, deltas, coef)[:, 0]
            pops[idx:j] = weights @ rho[:, diag[0], diag[1]].real
        else:
            v, beat = pulse
            coef = np.einsum("n,nak,nbl,nkl->nklab", weights, v, v, rho).reshape(-1, 9)
            mean = _phase_sum(tau, -beat.ravel(), coef).reshape(-1, 3, 3)
            pol[idx:j] = mean[:, 0, 1]
            pops[idx:j] = mean[:, diag[0], diag[1]].real
        idx = j
    return pol, pops


def simulate_ensemble(
    seq: PulseSequence,
    spec: EnsembleSpec,
    times: np.ndarray,
    engine: str = "hard",
) -> EnsembleTrace:
    """Sample P(t) and mean populations for the whole comb.

    engine="hard" treats every pulse as an instantaneous rotation (requires
    zero durations); engine="ode" propagates square envelopes exactly
    (requires finite durations). Both run the same piecewise-exact trace.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and >= 0")
    deltas, weights = _grid(spec)
    delta_s = np.zeros_like(deltas)
    if engine == "hard":
        if any(not p.is_hard for p in seq.pulses):
            raise ValueError("hard engine requires zero-duration pulses")
    elif engine == "ode":
        if any(p.is_hard for p in seq.pulses):
            raise ValueError("ode engine requires finite pulse durations")
    else:
        raise ValueError(f"unknown engine {engine!r}")
    pol, pops = _trace(seq, deltas, delta_s, weights, times)
    return EnsembleTrace(
        times=times,
        polarization=pol,
        pop_ground=pops[:, 0],
        pop_excited=pops[:, 1],
        pop_spin=pops[:, 2],
    )


def _is_odd_pi(area: float) -> bool:
    k = area / math.pi
    r = round(k)
    return abs(k - r) < _ODD_PI_TOL and r % 2 == 1


def predict_echo_times(seq: PulseSequence) -> list[float]:
    """Echo times from the phase ledger, in order, within [0, t_end].

    The ledger starts at the first optical pulse (coherence birth). Slope is
    +1 on the optical transition and 0 while shelved between odd-pi control
    pulses; every later odd-pi optical pulse negates the ledger. An echo is
    each upward zero crossing after the first such negation. Finite-duration
    pulses count from their centers. No optical pulses means no echoes.
    """
    centers = [(p.t_start + 0.5 * p.duration, p) for p in seq.pulses]
    optical = [(t, p) for t, p in centers if p.channel is Channel.OPTICAL12]
    if not optical:
        return []
    t0, data_pulse = optical[0]

    s = 0.0
    slope = 1.0
    shelved = False
    seen_flip = False
    prev = t0
    echoes: list[float] = []

    def advance(to: float):
        nonlocal s, prev
        s_new = s + slope * (to - prev)
        if seen_flip and slope > 0.0 and s < 0.0 <= s_new:
            echoes.append(prev - s)
        s = s_new
        prev = to

    for tc, p in centers:
        if p is data_pulse or tc < t0:
            continue
        advance(tc)
        if p.channel is Channel.OPTICAL12 and _is_odd_pi(p.area):
            s = -s
            seen_flip = True
        elif p.channel is Channel.CONTROL23 and _is_odd_pi(p.area):
            shelved = not shelved
            slope = 0.0 if shelved else 1.0
    if seen_flip and slope > 0.0 and s < 0.0:
        t_cross = prev - s
        if t_cross <= seq.t_end:
            echoes.append(t_cross)
    return echoes


def detect_echoes(
    times: np.ndarray,
    polarization: np.ndarray,
    seq: PulseSequence,
    threshold_fraction: float = 0.2,
) -> EchoReport:
    """Label local |P| maxima outside pulse intervals as echo events.

    A sample is a peak if it tops both neighbors (ties broken leftward),
    clears threshold_fraction of the largest out-of-pulse |P|, and sits more
    than one grid step from every pulse interval. Peaks within three grid
    steps plus the longest pulse duration of a ledger prediction are labeled
    E1/E2 by prediction order, anything else "other"; the ledger counts from
    pulse centres, so finite pulses shift echoes by up to about a duration.
    im_sign is the sign of Im P at the peak.
    """
    times = np.asarray(times, dtype=float)
    pol = np.asarray(polarization, dtype=complex)
    if times.shape != pol.shape or times.ndim != 1:
        raise ValueError("times and polarization must be matching 1-d arrays")
    if not 0.0 < threshold_fraction <= 1.0:
        raise ValueError("threshold_fraction must be in (0, 1]")
    if times.size < 3:
        return EchoReport(())

    dt = float(np.median(np.diff(times)))
    pad = dt * (1.0 + 1e-9)
    excluded = np.zeros(times.size, dtype=bool)
    for p in seq.pulses:
        excluded |= (times >= p.t_start - pad) & (times <= p.t_end + pad)

    mag = np.abs(pol)
    open_mag = mag[~excluded]
    if open_mag.size == 0:
        return EchoReport(())
    ref = float(open_mag.max())
    if ref == 0.0:
        return EchoReport(())
    thr = threshold_fraction * ref

    predicted = predict_echo_times(seq)
    window = 3.0 * dt + max((p.duration for p in seq.pulses), default=0.0) + 1e-12
    mid = mag[1:-1]
    is_peak = ~excluded[1:-1] & (mid >= thr) & (mid > mag[:-2]) & (mid >= mag[2:])
    peaks = np.flatnonzero(is_peak) + 1
    labels = np.full(peaks.size, "other", dtype=object)
    if predicted:
        dist = np.abs(np.subtract.outer(times[peaks], predicted))
        j = dist.argmin(axis=1)  # the earlier prediction wins a tie
        near = dist[np.arange(peaks.size), j] <= window
        labels[near & (j == 0)] = "E1"
        labels[near & (j == 1)] = "E2"
    events = [
        EchoEvent(
            time=float(times[i]),
            amplitude=float(mag[i]),
            im_sign=1 if pol[i].imag >= 0 else -1,
            label=label,
        )
        for i, label in zip(peaks, labels)
    ]
    return EchoReport(tuple(events))
