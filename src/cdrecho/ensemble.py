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

The walk takes half the comb by its mirror symmetry. The pulse couplings are
real, the spin level is not detuned (delta_s = 0), every atom starts in |1>
and the comb is symmetric about 0 with even weights. So the atom at -delta
is the mirror image of the one at +delta: rho12(-delta) = -conj(rho12(delta)),
with equal populations (`_trace`). P is then exactly imaginary, and its real
part is +0.0.

The sample times are a uniform grid, as time_grid makes them, so every
stretch's samples are a ladder, and so are the comb's detunings; `_trace`
states both ladders to `_phase_sum`. On a free stretch the comb sum is then a
chirp-z transform: segmented FFT convolutions with a chirp, O(n_t log
n_atoms) where the sizes favour it. Square pulses sum over each atom's three
beat frequencies, which are no ladder, with a ladder table of the times and
one matrix product, as do stretches too short for the chirp-z to pay.

Sign convention: Im P < 0 is an absorptive signal, Im P > 0 emissive.
"""

from __future__ import annotations

import math
import numbers
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
    "trace_bytes",
    "check_trace_budget",
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
        if not isinstance(self.n_atoms, numbers.Integral):
            raise ValueError(f"n_atoms must be an integer, got {self.n_atoms!r}")
        if self.n_atoms < 3 or self.n_atoms % 2 == 0:
            raise ValueError("n_atoms must be odd and >= 3")
        if self.n_atoms > 2**53:  # past it, trace_bytes cannot count the comb in floats
            raise ValueError("n_atoms must be at most 2**53")
        if not math.isfinite(self.span) or self.span < 0:
            raise ValueError("span must be finite and >= 0")
        # _grid divides by 2 sigma^2 and squares the comb's edge, span sigma
        if not 0.0 < 2.0 * (self.sigma * self.sigma) < math.inf:
            raise ValueError(f"sigma {self.sigma:g} rad/s makes 2 sigma^2 zero or infinite")
        edge = self.span * self.sigma
        if not math.isfinite(edge * edge):
            raise ValueError(
                f"span sigma = {self.span:g} x {self.sigma:g} rad/s squared is not finite"
            )


def _grid(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Detunings m d of the comb, |m| <= (n_atoms - 1)/2, and their Gaussian
    weights, normalized to sum 1. Both are even in m bit for bit."""
    mid = spec.n_atoms // 2
    deltas = np.arange(-mid, mid + 1) * (spec.span * spec.sigma / mid)
    weights = np.exp(-(deltas**2) / (2.0 * spec.sigma**2))
    weights /= weights.sum()
    return deltas, weights


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform sample times from 0 in n = max(1, round(t_end/dt)) steps of dt.

    The grid is not stretched onto t_end: its last sample n*dt lies within
    dt/2 of t_end (for t_end >= dt/2; a shorter window still gets one step).
    """
    if not (math.isfinite(dt) and math.isfinite(t_end)) or dt <= 0 or t_end < 0:
        raise ValueError("need finite dt > 0 and t_end >= 0")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"need finite t_end / dt, got {t_end:g} / {dt:g}")
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


@dataclass(frozen=True)
class EchoEvent:
    time: float
    amplitude: float
    im_sign: int
    label: str


@dataclass(frozen=True)
class EchoReport:
    """Detected echoes, and the ledger's predicted echo times (s) they were
    labeled against."""

    events: tuple[EchoEvent, ...]
    predicted: tuple[float, ...]


def _rows(first: np.ndarray, factor, k: int) -> np.ndarray:
    """Rows first * factor(1)^r for r < k, shape (k, len(first)), by doubling.

    Rows [j, 2j) are rows [0, j) times factor(j), the row that steps r by j:
    about log2(k) calls of factor plus k len(first) complex products.
    """
    rows = np.empty((k, first.size), dtype=complex)
    rows[0] = first
    j = 1
    while j < k:
        m = min(j, k - j)
        np.multiply(rows[:m], factor(j), out=rows[j : j + m])
        j *= 2
    return rows


def _table(t0: float, h: float, k: int, f: np.ndarray) -> np.ndarray:
    """The table exp(i (t0 + r h) f_m), shape (k, len(f)), by doubling."""
    return _rows(np.exp(1j * t0 * f), lambda j: np.exp(1j * (j * h) * f), k)


_INV_TWO_PI = 54157620742477409023451113735280473968  # 2**128 / (2 pi), rounded


def _cycles(a: float, b: float) -> tuple[float, float]:
    """a b / (2 pi) as hi + lo in two floats, exact to about 1e-32 of it."""
    (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
    num = na * nb * _INV_TWO_PI
    den = (da * db) << 128
    hi = num / den  # int / int rounds correctly
    nh, dh = hi.as_integer_ratio()
    return hi, (num * dh - nh * den) / (den * dh)


def _turns(x: tuple[float, float], j: np.ndarray) -> np.ndarray:
    """(hi + lo) j modulo 1, in [-1/2, 1/2], for integer-valued 0 <= j < 2**53.

    hi is cut to the top bits whose product with every j is exact, so the
    whole turns of that part drop out before any rounding; the rest of hi and
    lo then add a few turns at most, with an error of about 1e-16 turns.
    """
    hi, lo = x
    j = np.asarray(j, dtype=float)
    shift = 53 - int(j.max(initial=0.0)).bit_length() - math.frexp(hi)[1]
    top = math.ldexp(round(math.ldexp(hi, shift)), -shift)
    turns = j * top
    turns -= np.round(turns)
    turns += j * ((hi - top) + lo)
    turns -= np.round(turns)
    return turns


def _segments(n: int, n_freqs: int) -> tuple[int, int, int]:
    """FFT length L, segment size P = L - F + 1 and segment count of a chirp-z
    sum of n samples over F = n_freqs frequencies: L is the power of two
    >= F + min(n, F) - 1, so a stretch shorter than the comb is one segment."""
    length = 1 << (n_freqs + min(n, n_freqs) - 2).bit_length()
    seg = length - n_freqs + 1
    return length, seg, -(-n // seg)


def _chirp_pays(n: int, n_freqs: int) -> bool:
    """Whether the chirp-z sum of n samples over n_freqs ladder frequencies
    costs less than the ladder table's matrix product.

    Costs count one complex multiply-add of the table's product (about 0.25 ns
    on one core) as 1: a complex exp costs about 140, a point of the chirp-z's
    batched FFT passes about 110 and its set-up about 1e5, fitted to timings
    of both sums over 10 to 30000 samples and 21 to 8001 frequencies.
    """
    length, seg, n_segs = _segments(n, n_freqs)
    table = n * n_freqs + 140.0 * n_freqs * math.log2(n + 1)
    chirp = 1e5 + 110.0 * n_segs * length + 140.0 * (2 * seg + n_freqs * math.log2(n_segs + 1))
    return chirp < table


def _chirp_sum(
    t0: float, h: float, f0: float, d: float, c: np.ndarray, n: int
) -> np.ndarray:
    """S[k, q] = sum_m c[m, q] exp(i (t0 + k h)(f0 + m d)) for k < n, by chirp-z.

    With k m = (k^2 + m^2 - (k - m)^2) / 2, exp(i h d k m) = w_k w_m conj(w_(k-m))
    for the chirp w_j = exp(i alpha j^2 / 2), alpha = h d, so the sum over m is
    one convolution with conj(w). Outputs go in segments of P = L - F + 1
    (_segments, F = len(c)): segment s's input is c w times exp(i tau_k0 f),
    tau_k0 = t0 + s P h, and all segments take one batched FFT of length L.
    Every phase is taken in turns, from constants such as beta = alpha / 4 pi
    held to about 1e-32 (_cycles) and reduced modulo 1 exactly (_turns), so
    no phase error grows with |tau f|. O(n log F) time and O(n + F) memory.
    """
    n_freqs = c.shape[0]
    length, seg, n_segs = _segments(n, n_freqs)
    m = np.arange(n_freqs, dtype=float)
    beta = _cycles(h, 0.5 * d)  # alpha / 4 pi
    per_sample = _cycles(h, f0)
    per_lag = _cycles(h, d)  # the turns of exp(i alpha k m) per unit of k m
    turns = _turns(beta, np.square(np.arange(max(seg, n_freqs), dtype=float)))
    w = np.exp(2j * math.pi * turns)
    kernel = np.empty(length, dtype=complex)
    kernel[:seg] = w[:seg].conj()
    kernel[seg:] = w[n_freqs - 1 : 0 : -1].conj()

    # segment inputs' rows exp(i tau_k0 f), k0 = 0, P, 2P, ...
    first = _turns(_cycles(t0, f0), 1.0) + _turns(_cycles(t0, d), m)
    mod = _rows(
        np.exp(2j * math.pi * first),
        lambda j: np.exp(
            2j * math.pi * (_turns(per_sample, j * seg) + _turns(per_lag, j * seg * m))
        ),
        n_segs,
    )
    x = mod[:, None, :] * (c.T * w[:n_freqs])
    del mod
    spectrum = np.fft.fft(x, n=length, axis=-1)
    del x
    spectrum *= np.fft.fft(kernel)
    out = np.fft.ifft(spectrum, axis=-1)[..., :seg]
    del spectrum
    out *= np.exp(2j * math.pi * (_turns(per_sample, np.arange(seg)) + turns[:seg]))
    return out.swapaxes(1, 2).reshape(n_segs * seg, -1)[:n]


def _phase_sum(
    t0: float, h: float, n: int, f: np.ndarray, c: np.ndarray, comb: tuple | None = None
) -> np.ndarray:
    """S[k, q] = sum_m c[m, q] exp(i (t0 + k h) f_m) for k < n, in bounded memory.

    The caller states the ladders: the sample times t0 + k h, and on a free
    stretch the comb's f_m = f0 + m d as comb = (f0, d). Given the comb, where
    the sizes favour it (_chirp_pays), the sum is a chirp-z transform
    (_chirp_sum). Otherwise samples go in blocks of B = ceil(sqrt(n)): an
    in-block table exp(i r h f) times one column exp(i (t0 + b B h) f) c per
    block, in one matrix product. Memory is O(sqrt(n) len(f) q) for the
    blocks and O((n + len(f)) q) for the chirp-z.
    """
    if comb is not None and _chirp_pays(n, f.size):
        return _chirp_sum(t0, h, *comb, c, n)
    size = math.isqrt(n - 1) + 1
    n_blocks = -(-n // size)
    cols = np.multiply(_table(t0, size * h, n_blocks, f).T[:, :, None], c[:, None], order="C")
    out = _table(0.0, h, size, f) @ cols.reshape(f.size, -1)
    return out.reshape(size, n_blocks, -1).swapaxes(0, 1).reshape(n_blocks * size, -1)[:n]


_TRACE_BUDGET_BYTES = 2 * 1024**3  # the largest trace_bytes an echo run may take on

# The outputs an echo run reads, mean[x, y]: P = mean[0, 1], read as its
# imaginary part, and the three populations, read as their real parts; the
# sign that pairs each output's (k, l) and (l, k) terms inside a square pulse
# (`_trace`); and each atom's three beats k < l there
_OUT_X, _OUT_Y = np.array([0, 0, 1, 2]), np.array([1, 0, 1, 2])
_OUT_SIGN = np.array([-1.0, 1.0, 1.0, 1.0])
_BEAT_K, _BEAT_L = np.array([0, 0, 1]), np.array([1, 2, 2])


def trace_bytes(n_atoms: float, n_t: float, pulse_samples: float) -> float:
    """Estimated peak bytes of an echo run, from its sizes alone.

    The run takes n_t samples over n_atoms atoms, and its longest square pulse
    spans pulse_samples samples (0 for hard pulses). Per sample: the times, P,
    populations, the trace's copies and the echo CSV rendered from them (about
    0.42 kB measured). Per atom: the comb and its states. On top, the larger
    _phase_sum peak over F frequencies and q columns. The ladder table holds
    an in-block table of B x F and per-block columns of F x n/B x q complex
    entries, with B and n/B at most sqrt(n) + 1. The chirp-z holds at most
    (7 n + 24 F) q: two spectra of up to (2 n + L) q entries each, the output,
    and the chirp and its kernel, with the FFT length L <= 4 F. F = n_atoms
    and q = 1 over a free stretch of up to n_t samples; F = 3 n_atoms beats
    and q = 4 columns, one per output an echo run reads, plus the
    coefficients, inside a square pulse, where the walk also holds each
    atom's eigenvectors, beats and weighted state (1 kB per atom covers
    them). All in floats, so a grid of 1e300 samples is simply too large. The
    walk takes only the (n_atoms + 1)/2 detunings >= 0 (`_trace`), so
    counting the whole comb keeps the estimate an upper bound.
    """

    def phase_sum(n: float, f: float, q: int) -> float:
        s = math.sqrt(n) + 1.0
        table = f * s * (1 + q) + f * q + 2.0 * n * q
        return 16.0 * max(table, (7.0 * n + 24.0 * f) * q)

    walk = phase_sum(pulse_samples, 3.0 * n_atoms, _OUT_SIGN.size) + 1024.0 * n_atoms
    pulse = walk if pulse_samples > 0 else 0.0
    return 640.0 * n_t + 1024.0 * n_atoms + max(phase_sum(n_t, n_atoms, 1), pulse)


def check_trace_budget(n_atoms: float, n_t: float, pulse_samples: float) -> None:
    """Raise ValueError if trace_bytes passes _TRACE_BUDGET_BYTES."""
    need = trace_bytes(n_atoms, n_t, pulse_samples)
    if need > _TRACE_BUDGET_BYTES:
        raise ValueError(
            f"{n_atoms} atoms over {n_t:.3g} samples need about {need / 2**30:.3g} GiB, "
            f"past the {_TRACE_BUDGET_BYTES / 2**30:g} GiB budget"
        )


def _trace(
    seq: PulseSequence, deltas: np.ndarray, weights: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted comb sums of P(t) and the mean populations, by the comb's
    mirror, along the exact walk of its detunings >= 0.

    deltas and weights are the whole comb, as _grid makes it: symmetric about
    0 with even weights. The couplings are real and delta_s = 0, so with
    Z = diag(1, -1, 1) every stretch's Hamiltonian has Z conj(H(d)) Z =
    -H(-d), and the atom at -d, started in |1> as the one at d, holds
    Z conj(rho(d)) Z for hard and square pulses alike: rho12(-d) =
    -conj(rho12(d)) and the populations are even in d. So the walk takes the
    half comb m d, m >= 0, with the centre at its own weight and every other
    atom at twice its weight, for itself and its mirror. Its sums S then give
    P = i Im S_P, with a real part of +0.0, and the populations as they are.

    Each stretch's samples are a ladder t0 + k h, as times is a uniform grid,
    and so is the half comb. On a free stretch rho12 advances at +delta; a
    stretch where it is zero for every atom leaves P at +0.0 without a sum.
    Inside a square pulse the mean
    rho_xy(tau) = sum_n w_n sum_kl v_xk v_yl r_kl exp(-i beat_kl tau). Its
    diagonal beats are zero, so their terms are one constant per output; and
    beat_lk = -beat_kl with v real, so the (l, k) term is the conjugate of
    w r_kl v_xl v_yk exp(-i beat_kl tau). Im P keeps its (k, l) term minus
    that, and a population, read as its real part, its (k, l) term plus it.
    So the comb sum runs over the 3 beats k < l of each atom with one column
    per output, w r_kl (v_xk v_yl + s v_xl v_yk), with s = -1 for P and +1
    for the populations (_OUT_SIGN), and each output is its constant plus
    that column's sum.
    """
    mid = deltas.size // 2
    deltas, weights = deltas[mid:], np.append(weights[mid], 2.0 * weights[mid + 1 :])
    ground = np.zeros((deltas.size, 3, 3), dtype=complex)
    ground[:, 0, 0] = 1.0
    diag = (np.arange(3), np.arange(3))
    comb = (0.0, deltas[1])
    pol = np.zeros(times.size, dtype=complex)
    pops = np.empty((times.size, 3))
    idx = 0
    for start, end, rho, pulse in stretches(seq, deltas, np.zeros(deltas.size), ground):
        j = int(np.searchsorted(times, end, side="left"))
        if j == idx:
            continue
        n = j - idx
        t0 = times[idx] - start
        h = ((times[j - 1] - start) - t0) / max(n - 1, 1)
        if pulse is None:
            coef = weights * rho[:, 0, 1]
            if coef.any():
                pol.imag[idx:j] = _phase_sum(t0, h, n, deltas, coef[:, None], comb)[:, 0].imag
            pops[idx:j] = weights @ rho[:, diag[0], diag[1]].real
        else:
            v, beat = pulse
            vx, vy = v[:, _OUT_X], v[:, _OUT_Y]  # (atom, output, level)
            wr = weights[:, None, None] * rho
            k, l = _BEAT_K, _BEAT_L
            pair = vx[:, :, k] * vy[:, :, l] + _OUT_SIGN[:, None] * vx[:, :, l] * vy[:, :, k]
            coef = (pair * wr[:, None, k, l]).swapaxes(1, 2)  # (atom, beat, output)
            const = np.einsum("nok,nok,nk->o", vx, vy, wr[:, diag[0], diag[1]])
            sums = _phase_sum(t0, h, n, -beat[:, k, l].ravel(), coef.reshape(-1, _OUT_SIGN.size))
            pol.imag[idx:j] = sums[:, 0].imag + const[0].imag
            pops[idx:j] = sums[:, 1:].real + const[1:].real
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
    times must be a uniform grid from >= 0, strictly increasing and bit for
    bit np.linspace(times[0], times[-1], times.size), as time_grid's output
    and a single instant are. Other times, times whose last sample makes the
    comb's largest phase, times[-1] span sigma, overflow, and a run whose
    trace_bytes estimate passes _TRACE_BUDGET_BYTES raise ValueError before
    any array of the comb exists.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if not (times[0] >= 0 and math.isfinite(times[-1]) and np.all(np.diff(times) > 0)):
        raise ValueError("times must be finite, strictly increasing and >= 0")
    if not np.array_equal(times, np.linspace(times[0], times[-1], times.size)):
        raise ValueError("times must be uniform: np.linspace(times[0], times[-1], times.size)")
    last, edge = float(times[-1]), spec.span * spec.sigma
    if not math.isfinite(last * edge):
        raise ValueError(
            f"the last sample {last:g} s times the comb edge {edge:g} rad/s, "
            "the largest free phase, is not finite"
        )
    if engine == "hard":
        if any(not p.is_hard for p in seq.pulses):
            raise ValueError("hard engine requires zero-duration pulses")
    elif engine == "ode":
        if any(p.is_hard for p in seq.pulses):
            raise ValueError("ode engine requires finite pulse durations")
    else:
        raise ValueError(f"unknown engine {engine!r}")
    inside = [np.searchsorted(times, (p.t_start, p.t_end)) for p in seq.pulses]
    check_trace_budget(spec.n_atoms, times.size, max((j - i for i, j in inside), default=0))
    pol, pops = _trace(seq, *_grid(spec), times)
    return EnsembleTrace(
        times=times,
        polarization=pol,
        pop_ground=pops[:, 0],
        pop_excited=pops[:, 1],
        pop_spin=pops[:, 2],
    )


def predict_echo_times(seq: PulseSequence) -> list[float]:
    """Echo times from the phase ledger, in order, within [0, t_end].

    The ledger s starts at the first optical pulse (coherence birth). It grows
    at +1 per unit time on the optical transition and stands still while
    shelved between odd-pi control pulses; every later odd-pi optical pulse
    negates it. An echo is each upward zero crossing after the first such
    negation. Finite-duration pulses count from their centers. No optical
    pulses means no echoes.
    """
    data = next((p for p in seq.pulses if p.channel is Channel.OPTICAL12), None)
    if data is None:
        return []
    t0 = prev = data.t_start + 0.5 * data.duration
    s = 0.0  # it grows from 0 until the first negation, so s < 0 only after one
    shelved = False
    echoes: list[float] = []
    for p in seq.pulses:
        tc = p.t_start + 0.5 * p.duration
        if p is data or tc < t0:
            continue
        if not shelved:
            s_new = s + (tc - prev)
            if s < 0.0 <= s_new:
                echoes.append(prev - s)
            s = s_new
        prev = tc
        k = p.area / math.pi
        r = round(k)
        if abs(k - r) < _ODD_PI_TOL and r % 2 == 1:
            if p.channel is Channel.OPTICAL12:
                s = -s
            else:
                shelved = not shelved
    if not shelved and s < 0.0 and prev - s <= seq.t_end:
        echoes.append(prev - s)
    return echoes


_ECHO_THRESHOLD = 0.2  # a peak's least |P|, as a fraction of the largest out-of-pulse |P|
# A peak's least |P| at all. Rounding noise reached about 1.3e-16 on combs of
# 61 to 20001 atoms; the echo of a 1e-9 pi data pulse is about 1.6e-9.
_ECHO_FLOOR = 1e-12


def detect_echoes(times: np.ndarray, polarization: np.ndarray, seq: PulseSequence) -> EchoReport:
    """Label local |P| maxima outside pulse intervals as echo events.

    A sample is a peak if it tops both neighbors (ties broken leftward),
    clears _ECHO_THRESHOLD of the largest out-of-pulse |P| and the absolute
    _ECHO_FLOOR, and sits more than one grid step from every pulse interval.
    Peaks within three grid steps plus the longest pulse duration of a
    ledger prediction are labeled E1/E2 by prediction order, anything else
    "other"; the ledger counts from pulse centres, so finite pulses shift
    echoes by up to about a duration. im_sign is the sign of Im P at the
    peak. The report carries the prediction, predict_echo_times(seq),
    whether or not any peak is found.
    """
    times = np.asarray(times, dtype=float)
    pol = np.asarray(polarization, dtype=complex)
    if times.shape != pol.shape or times.ndim != 1:
        raise ValueError("times and polarization must be matching 1-d arrays")
    predicted = tuple(predict_echo_times(seq))
    if times.size < 3:
        return EchoReport((), predicted)

    dt = float(np.median(np.diff(times)))
    pad = dt * (1.0 + 1e-9)
    excluded = np.zeros(times.size, dtype=bool)
    for p in seq.pulses:
        excluded |= (times >= p.t_start - pad) & (times <= p.t_end + pad)

    mag = np.abs(pol)
    thr = max(_ECHO_THRESHOLD * float(np.max(mag, where=~excluded, initial=0.0)), _ECHO_FLOOR)

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
    return EchoReport(tuple(events), predicted)
