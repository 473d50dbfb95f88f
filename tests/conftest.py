"""The hypothesis profile, the one strategy for pulse sequences, the one random
valid state, the table of routes to an echo run's observables, and the
references that only tests call: the explicit hard-pulse unitary
`pulse_unitary`, `validate`, `purity`, `rhs`, `rk4_step`, and `column`, a
table's column by name.

A route maps (seq, spec, times) to (P, pops): the comb's polarization and its
(n_t, 3) mean populations at the sample times. The comb walk is
`simulate_ensemble`. The per-atom routes run `run_sequence_hard`, `eigh`
exponentials or RK4 on each atom of the comb and sum the states with the
comb's weights; every per-atom state stack that `run_sequence_hard` or RK4
returns passes `validate`. `hard_states` and `eigh_states` give one atom's
states.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from cdrecho import (
    AtomParams,
    Channel,
    Pulse,
    PulseSequence,
    ground_state,
    integrate_sequence,
    run_sequence_hard,
    simulate_ensemble,
    time_grid,
)
from cdrecho.ensemble import _grid
from cdrecho.integrator import _hermitian_checked, _rhs_elements

settings.register_profile("cdrecho", deadline=None, print_blob=True)
settings.load_profile("cdrecho")

PI = math.pi


def random_valid_state(rng) -> np.ndarray:
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ a.conj().T
    return m / m.trace()


def pulse_unitary(channel: Channel, area: float) -> np.ndarray:
    """The explicit 3x3 unitary of a hard pulse of the given area (radians).

    The driven 2x2 block is [[cos(a/2), i sin(a/2)], [i sin(a/2), cos(a/2)]]
    and the spectator level is left alone; this sign puts a fresh
    ground-state coherence at rho12 = -(i/2) sin(a).
    """
    a, b = (0, 1) if channel is Channel.OPTICAL12 else (1, 2)
    u = np.eye(3, dtype=complex)
    u[a, a] = u[b, b] = math.cos(area / 2.0)
    u[a, b] = u[b, a] = 1j * math.sin(area / 2.0)
    return u


def column(table, name: str) -> np.ndarray:
    """The column of a csvio.Table with the given name."""
    return table.rows[:, table.columns.index(name)]


HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9


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


def validate(states: np.ndarray) -> ValidationReport:
    """Check hermiticity, unit trace and positivity of a (3, 3) state or an
    (n, 3, 3) stack; reports the worst violation of each kind, never raises.

    Tolerances: hermiticity 1e-12, trace 1e-10, smallest eigenvalue >= -1e-9.
    """
    m = np.reshape(states, (-1, 3, 3))
    mh = m.conj().swapaxes(1, 2)
    violations = []
    herm = float(np.abs(m - mh).max())
    if herm > HERMITICITY_TOL:
        violations.append(Violation("hermiticity", herm))
    tr = float(np.abs(np.trace(m, axis1=1, axis2=2) - 1.0).max())
    if tr > TRACE_TOL:
        violations.append(Violation("trace", tr))
    # eigvalsh needs a Hermitian input; symmetrize so a hermiticity breach
    # does not poison the positivity check as well
    lam = float(np.linalg.eigvalsh((m + mh) / 2.0).min())
    if lam < -EIGENVALUE_TOL:
        violations.append(Violation("positivity", -lam))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def purity(states: np.ndarray):
    """tr(rho^2) of a (3, 3) state or of each state in an (n, 3, 3) stack; 1
    for pure states, >= 1/3 for any valid 3-level state."""
    return np.trace(states @ states, axis1=-2, axis2=-1).real


def rhs(rho: np.ndarray, omega_j, omega_k, atom: AtomParams) -> np.ndarray:
    """d(rho)/dt for the Rabi frequencies omega_j, omega_k (rad/s) and the atom."""
    return _rhs_elements(rho, omega_j, omega_k, atom)


def rk4_step(
    rho: np.ndarray, dt: float, omega_j: float, omega_k: float, atom: AtomParams
) -> np.ndarray:
    """One classical RK4 step of length dt under the constant Rabi frequencies
    omega_j, omega_k: the textbook one-step form the integrator's step
    matrices are tested against."""
    if dt <= 0 or not math.isfinite(dt):
        raise ValueError("dt must be positive and finite")
    k1 = _rhs_elements(rho, omega_j, omega_k, atom)
    k2 = _rhs_elements(rho + 0.5 * dt * k1, omega_j, omega_k, atom)
    k3 = _rhs_elements(rho + 0.5 * dt * k2, omega_j, omega_k, atom)
    k4 = _rhs_elements(rho + dt * k3, omega_j, omega_k, atom)
    return _hermitian_checked(rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


@st.composite
def sequences(draw, kind, on_grid=False):
    """(seq, times) for kind "hard" or "square": up to five hard pulses or
    four square ones, and a time_grid with a step of 0.01 or 0.1 us.

    Hard areas lie in [-4 pi, 4 pi]; square areas in (0, 2 pi), over 5 to 30
    steps (0.05 to 0.3 us at 0.01 us). Each pulse starts 0 to 50 steps after
    the previous one ends (0 shares its instant or edge), and the window runs
    on 0 to 100 steps after the last. With on_grid, and in half the other
    draws, every gap, width and tail is a whole number of steps, so every
    edge is a sample; otherwise they take any fraction of a step, so edges
    fall between samples.
    """
    whole = on_grid or draw(st.booleans())
    steps = st.integers if whole else st.floats
    if kind == "hard":
        area, width = st.floats(-4 * PI, 4 * PI), st.just(0)
    else:
        area = st.floats(0.0, 2 * PI, exclude_min=True, exclude_max=True)
        width = steps(5, 30)
    gap = st.one_of(st.just(0), steps(0, 50))
    pulse = st.tuples(st.sampled_from(list(Channel)), area, width, gap)
    drawn = draw(st.lists(pulse, max_size=5 if kind == "hard" else 4))
    tail = draw(steps(0, 100))
    step = draw(st.sampled_from([0.01e-6, 0.1e-6]))
    times = time_grid(step * (sum(w + g for _, _, w, g in drawn) + tail), step)
    pulses, k, end = [], 0, 0.0
    for channel, a, w, g in drawn:
        k += g
        # a whole-step start is its sample itself, not a sum an ulp off it
        start = float(times[k]) if whole and g else end + g * step
        pulses.append(Pulse(channel, a, start, w * step))
        k += w
        end = pulses[-1].t_end
    # a square pulse may end an ulp off its sample; with no tail the window ends there
    t_end = end if pulses and not tail else max(end, float(times[-1]))
    return PulseSequence(tuple(pulses), t_end=t_end), times


def _checked(states: np.ndarray) -> np.ndarray:
    """A per-atom run's (n, 3, 3) states, once the stack has passed validate."""
    report = validate(states)
    assert report.ok, report.violations
    return states


def _weighted(spec, times, run_atom):
    """The comb's weighted sums of rho12 and of the populations, where
    run_atom(delta) gives one atom's (n_t, 3, 3) states at times."""
    pol = np.zeros(times.size, dtype=complex)
    pops = np.zeros((times.size, 3))
    for delta, weight in zip(*_grid(spec)):
        states = run_atom(float(delta))
        pol += weight * states[:, 0, 1]
        pops += weight * np.diagonal(states, axis1=1, axis2=2).real
    return pol, pops


def comb_route(seq, spec, times):
    engine = "hard" if all(p.is_hard for p in seq.pulses) else "ode"
    trace = simulate_ensemble(seq, spec, times, engine)
    return trace.polarization, np.column_stack(
        [trace.pop_ground, trace.pop_excited, trace.pop_spin]
    )


def hard_states(seq, delta, times):
    """One atom's (n_t, 3, 3) states at the sorted times from run_sequence_hard."""
    t, states = run_sequence_hard(ground_state(), seq, AtomParams(delta=delta), times)
    np.testing.assert_array_equal(t, times)
    return _checked(states)


def eigh_states(seq, delta, times):
    """One atom's (n_t, 3, 3) states at times, each piece's propagator
    v exp(-i w tau) v^T from np.linalg.eigh of its 3x3 Hamiltonian:
    diag(0, delta, 0), plus Omega K inside a square pulse, where K couples the
    channel's levels by -1/2; a hard pulse is area K over unit time."""
    free = np.diag([0.0, delta, 0.0])
    pieces, now = [], 0.0  # (start, end, h, span of the whole piece)
    for p in seq.pulses:
        a, b = (0, 1) if p.channel is Channel.OPTICAL12 else (1, 2)
        k = np.zeros((3, 3))
        k[a, b] = k[b, a] = -0.5
        pieces.append((now, p.t_start, free, p.t_start - now))
        if p.is_hard:
            pieces.append((p.t_start, p.t_start, p.area * k, 1.0))
        else:
            pieces.append((p.t_start, p.t_end, free + p.rabi_frequency * k, p.duration))
        now = p.t_end
    pieces.append((now, np.inf, free, 0.0))
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    states = np.empty((times.size, 3, 3), dtype=complex)
    for start, end, h, span in pieces:
        w, v = np.linalg.eigh(h)
        inside = (times >= start) & (times < end)
        tau = np.append(times[inside] - start, span)
        u = (v * np.exp(-1j * np.multiply.outer(tau, w))[:, None, :]) @ v.T
        got = u @ rho @ u.conj().swapaxes(1, 2)
        states[inside], rho = got[:-1], got[-1]
    return states


def hard_route(seq, spec, times):
    return _weighted(spec, times, lambda delta: hard_states(seq, delta, times))


def eigh_route(seq, spec, times):
    return _weighted(spec, times, lambda delta: eigh_states(seq, delta, times))


# RK4 steps per sample: on drawn on-grid square sequences RK4 then stays
# within 4e-10 of the exact routes, and its states' eigenvalues above -5e-11,
# where validate allows -1e-9 (worst of 300 at 3 atoms, searched with target())
RK4_STRIDE = 200


def rk4_route(seq, spec, times):
    """integrate_sequence per atom, RK4_STRIDE steps per sample; times must
    run from 0 to seq.t_end and hold every pulse edge (to 1e-15 s)."""

    def run_atom(delta):
        dt = (times[1] - times[0]) / RK4_STRIDE
        t, states = integrate_sequence(
            ground_state(), seq, AtomParams(delta=delta), dt, sample_stride=RK4_STRIDE
        )
        np.testing.assert_allclose(t, times, rtol=0, atol=1e-15)
        return _checked(states)

    return _weighted(spec, times, run_atom)


class Route(NamedTuple):
    name: str
    run: Callable
    pulses: frozenset  # the pulse kinds it takes
    max_atoms: float  # the largest comb check_route_pairs runs it on
    tol: float  # its largest distance from an exact route


BOTH = frozenset({"hard", "square"})
ROUTES = (
    Route("comb walk", comb_route, BOTH, math.inf, 1e-12),
    Route("run_sequence_hard", hard_route, frozenset({"hard"}), math.inf, 1e-12),
    Route("eigh", eigh_route, BOTH, math.inf, 1e-12),
    Route("rk4", rk4_route, frozenset({"square"}), 3, 1e-6),
)


def check_route_pairs(seq, spec, times) -> list[str]:
    """Run every route that takes seq's pulses and spec's comb; check each
    route's populations, and each pair's P and populations at the pair's
    looser tolerance. Returns the names of the routes run."""
    kinds = {"hard" if p.is_hard else "square" for p in seq.pulses}
    runs = [
        (route, *route.run(seq, spec, times))
        for route in ROUTES
        if kinds <= route.pulses and spec.n_atoms <= route.max_atoms
    ]
    for route, _, pops in runs:
        assert np.max(np.abs(pops.sum(axis=1) - 1.0)) <= 1e-12, route.name
        assert pops.min() >= -route.tol and pops.max() <= 1.0 + route.tol, route.name
    for (a, pol_a, pops_a), (b, pol_b, pops_b) in combinations(runs, 2):
        tol = max(a.tol, b.tol)
        assert np.max(np.abs(pol_a - pol_b)) <= tol, (a.name, b.name)
        assert np.max(np.abs(pops_a - pops_b)) <= tol, (a.name, b.name)
    return [route.name for route, _, _ in runs]
