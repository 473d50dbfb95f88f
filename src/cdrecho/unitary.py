"""Exact piecewise propagation of a batch of three-level atoms.

The drive is piecewise constant, so every stretch of a sequence has a
closed-form 3x3 propagator. A hard pulse of area phi on a channel is the
zero-duration limit of a square resonant pulse: a rotation by phi in the
driven two-level subspace, identity on the spectator level. Free evolution
only rotates coherence phases; the optical level carries delta, the spin
level carries delta_s, so a coherence parked on |1>-|3> stands still when
delta_s = 0. A square pulse is U(tau) = V exp(-i w tau) V^T, where its
constant Hamiltonian is a two-level problem plus the spectator: the driven
pair's eigenpairs are closed-form, and V is a rotation of that pair alone.

`stretches` walks a sequence once for a whole batch of atoms: the ensemble
trace runs it over a detuning comb, and `run_sequence_hard` over one atom.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .states import AtomParams, Channel, Pulse, PulseSequence, _as_state_array

__all__ = [
    "pulse_unitary",
    "stretches",
    "run_sequence_hard",
]

# The two levels (0-based) that each channel couples; the third is a spectator.
_LEVELS = {Channel.OPTICAL12: (0, 1), Channel.CONTROL23: (1, 2)}


def pulse_unitary(channel: Channel, area: float) -> np.ndarray:
    """Unitary for a hard pulse of the given area (radians) on a channel.

    The driven 2x2 block is [[cos(a/2), i sin(a/2)], [i sin(a/2), cos(a/2)]];
    this sign puts a fresh ground-state coherence at rho12 = -(i/2) sin(a).
    """
    if channel not in _LEVELS:
        raise ValueError(f"unknown channel {channel!r}")
    a, b = _LEVELS[channel]
    u = np.eye(3, dtype=complex)
    u[a, a] = u[b, b] = np.cos(area / 2.0)
    u[a, b] = u[b, a] = 1j * np.sin(area / 2.0)
    return u


def _free_rotation(
    rho: np.ndarray, lam: np.ndarray, span: float | np.ndarray
) -> np.ndarray:
    """Free evolution rho_ab -> u_a rho_ab conj(u_b) with u = exp(-i lam span).

    rho is (n, 3, 3) and lam the (n, 3) per-level phase rates (0, delta,
    delta_s); span is a duration, or a (k, 1) column of durations for one atom.
    """
    u = np.exp(-1j * lam * span)
    return u[:, :, None] * rho * np.conj(u)[:, None, :]


def _square_eigen(
    p: Pulse, deltas: np.ndarray, delta_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of the constant, real-symmetric Hamiltonian of a square
    pulse, H = diag(0, delta, delta_s) - (Omega/2) coupling, batched over the atoms.

    The channel couples levels (a, b) with energies A and B; the spectator keeps
    its energy and unit vector. The pair's eigenvalues are (A + B)/2 +- W/2 with
    W = hypot(A - B, Omega), and its eigenvectors are the columns of a rotation
    by theta = atan2(-Omega, A - B) / 2: v[a, a] = v[b, b] = cos(theta) and
    v[b, a] = -v[a, b] = sin(theta). This form holds for any Omega / (A - B),
    including A = B.
    """
    w = np.column_stack([np.zeros(deltas.size), deltas, delta_s])
    a, b = _LEVELS[p.channel]
    diff = w[:, a] - w[:, b]
    mid = 0.5 * (w[:, a] + w[:, b])
    half = 0.5 * np.hypot(diff, p.rabi_frequency)
    theta = 0.5 * np.arctan2(-p.rabi_frequency, diff)
    w[:, a], w[:, b] = mid + half, mid - half
    v = np.zeros((deltas.size, 3, 3))
    v[:, 3 - a - b, 3 - a - b] = 1.0
    v[:, a, a] = v[:, b, b] = np.cos(theta)
    v[:, b, a] = np.sin(theta)
    v[:, a, b] = -v[:, b, a]
    return w, v


def _rotate(m: np.ndarray, a: int, b: int, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """R m R^T for a batch of (n, 3, 3) matrices, element-wise, where R is the
    identity but for rows a and b: (R m)_a = cos m_a + sin m_b and
    (R m)_b = cos m_b - sin m_a, with per-atom (n,) cos and sin."""
    c, s = cos[:, None], sin[:, None]
    out = m.copy()
    out[:, a], out[:, b] = c * m[:, a] + s * m[:, b], c * m[:, b] - s * m[:, a]
    ma, mb = out[:, :, a], out[:, :, b]
    out[:, :, a], out[:, :, b] = c * ma + s * mb, c * mb - s * ma
    return out


def stretches(
    seq: PulseSequence, deltas: np.ndarray, delta_s: np.ndarray, rho: np.ndarray
) -> Iterator[tuple[float, float, np.ndarray, tuple | None]]:
    """Walk a sequence from t = 0 for a batch of atoms, one stretch at a time.

    Yields (start, end, rho, pulse) for every stretch [start, end); the last
    free stretch ends at inf. On a free stretch pulse is None and rho is the
    (n, 3, 3) state at start. Inside a square pulse pulse is (v, beat) and rho
    is the state in the pulse's eigenbasis, so the state tau after start is
    v (rho * exp(-i beat tau)) v^T. v rotates only the driven pair of levels
    (`_square_eigen`), so entering and leaving the pulse rotate two rows and
    two columns of every atom's state, element-wise. A hard pulse acts between
    two free stretches, so the stretch that starts at its instant holds the
    post-pulse state.
    """
    lam = np.column_stack([np.zeros(deltas.size), deltas, delta_s])
    now = 0.0
    for p in seq.pulses:
        yield now, p.t_start, rho, None
        gap = p.t_start - now
        if gap != 0.0:
            rho = _free_rotation(rho, lam, gap)
        if p.is_hard:
            # u rho u^H for every atom, as two fixed matrix products over the
            # batch: u times every atom's rows, then every row times u^H
            u = pulse_unitary(p.channel, p.area)
            left = u @ rho.swapaxes(0, 1).reshape(3, -1)
            rho = (left.reshape(-1, 3) @ u.conj().T).reshape(3, -1, 3).swapaxes(0, 1)
        else:
            w, v = _square_eigen(p, deltas, delta_s)
            a, b = _LEVELS[p.channel]
            cos, sin = v[:, a, a], v[:, b, a]
            r = _rotate(rho, a, b, cos, sin)
            beat = w[:, :, None] - w[:, None, :]
            yield p.t_start, p.t_end, r, (v, beat)
            rho = _rotate(r * np.exp(-1j * beat * p.duration), a, b, cos, -sin)
        now = p.t_end
    yield now, np.inf, rho, None


def run_sequence_hard(
    rho0,
    seq: PulseSequence,
    atom: AtomParams,
    sample_times: Iterable[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve rho0, any 3x3 array-like, through a hard-pulse sequence
    starting at t = 0.

    Returns (times, states): the requested sample times, sorted, and the
    read-only (n, 3, 3) states at them. A sample at a pulse instant reads the
    state after every pulse at that instant. The atom runs as a batch of one
    through `stretches`. An atom with decay is refused; `integrate_sequence`
    takes damped dynamics.
    """
    rho0 = _as_state_array(rho0)
    for p in seq.pulses:
        if not p.is_hard:
            raise ValueError("run_sequence_hard requires zero-duration pulses")
    if any(atom.gamma):
        raise ValueError(
            f"run_sequence_hard has no decay, got gamma={atom.gamma}; use integrate_sequence"
        )
    samples = np.array(sorted(float(t) for t in sample_times))
    bad = samples[~np.isfinite(samples)]
    if bad.size:
        raise ValueError(f"sample times must be finite, got {bad.tolist()}")
    if samples.size and samples[0] < 0:
        raise ValueError("sample times must be >= 0")

    lam = np.array([[0.0, atom.delta, atom.delta_s]])
    states: list[np.ndarray] = []
    idx = 0
    for start, end, rho, _ in stretches(seq, lam[:, 1], lam[:, 2], rho0[None]):
        j = int(np.searchsorted(samples, end, side="left"))
        states.append(_free_rotation(rho, lam, samples[idx:j, None] - start))
        idx = j
    out = np.concatenate(states)
    out.setflags(write=False)
    return samples, out
