"""RK4 master-equation integrator pinned against independent oracles."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import purity, random_valid_state, rhs, rk4_step, sequences

from cdrecho import (
    AtomParams,
    Channel,
    Pulse,
    PulseSequence,
    ground_state,
    integrate_sequence,
    run_sequence_hard,
)
from cdrecho import integrator
from cdrecho.integrator import _rhs_elements, _segments

PI = math.pi


def oracle_rhs(rho: np.ndarray, oj: float, ok: float, atom: AtomParams) -> np.ndarray:
    """Commutator form of the same master equation, built independently."""
    h = np.array(
        [
            [0.0, -0.5 * oj, 0.0],
            [-0.5 * oj, atom.delta, -0.5 * ok],
            [0.0, -0.5 * ok, atom.delta_s],
        ],
        dtype=complex,
    )
    g = np.asarray(atom.gamma)
    damping = 0.5 * (g[:, None] + g[None, :])
    return -1j * (h @ rho - rho @ h) - damping * rho


class TestRhs:
    def test_matches_commutator_oracle(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            rho = random_valid_state(rng)
            oj, ok = rng.uniform(-1e7, 1e7, 2)
            atom = AtomParams(
                delta=rng.uniform(-1e7, 1e7),
                delta_s=rng.uniform(-1e7, 1e7),
                gamma=tuple(rng.uniform(0, 1e5, 3)),
            )
            dev = np.max(np.abs(rhs(rho, oj, ok, atom) - oracle_rhs(rho, oj, ok, atom)))
            worst = max(worst, dev / max(1.0, abs(oj), abs(ok)))
        assert worst <= 1e-14

    def test_derivative_stays_hermitian(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            rho = random_valid_state(rng)
            d = rhs(rho, 1e6, 5e5, AtomParams(delta=2e5, gamma=(0, 1e3, 0)))
            np.testing.assert_allclose(d, d.conj().T, atol=1e-20)

    def test_trace_preserved_without_decay(self):
        rng = np.random.default_rng(44)
        oj, ok = 3e6, 2e6
        # cancellation noise scales with the drive magnitude
        tol = 1e-14 * (abs(oj) + abs(ok))
        for _ in range(20):
            rho = random_valid_state(rng)
            d = rhs(rho, oj, ok, AtomParams(delta=1e6, delta_s=2e5))
            assert abs(np.trace(d)) <= tol

    def test_population_loss_rates(self):
        # with no drive each population decays at its own rate
        rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
        atom = AtomParams(gamma=(10.0, 20.0, 30.0))
        d = rhs(rho, 0.0, 0.0, atom)
        assert d[0, 0].real == pytest.approx(-10.0 * 0.2, abs=1e-12)
        assert d[1, 1].real == pytest.approx(-20.0 * 0.5, abs=1e-12)
        assert d[2, 2].real == pytest.approx(-30.0 * 0.3, abs=1e-12)

    @given(
        cases=st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.floats(-1e7, 1e7), st.floats(-1e7, 1e7)),
            min_size=1,
            max_size=8,
        ),
        delta=st.floats(-1e7, 1e7),
        delta_s=st.floats(-1e7, 1e7),
        gamma=st.tuples(*[st.floats(0.0, 1e5)] * 3),
    )
    def test_broadcasts_over_leading_axis(self, cases, delta, delta_s, gamma):
        # a state seed and its own drive pair per case; the batch must be
        # the per-state rhs bit for bit
        states = [random_valid_state(np.random.default_rng(seed)) for seed, _, _ in cases]
        omega_j, omega_k = np.array([drive for _, *drive in cases]).T
        atom = AtomParams(delta=delta, delta_s=delta_s, gamma=gamma)
        batch = _rhs_elements(np.stack(states), omega_j, omega_k, atom)
        for got, rho, (_, oj, ok) in zip(batch, states, cases):
            np.testing.assert_array_equal(got, rhs(rho, oj, ok, atom))


class TestRk4Step:
    def test_free_evolution_matches_exact_unitary(self):
        atom = AtomParams(delta=2 * PI * 1e5, delta_s=2 * PI * 3e4)
        rng = np.random.default_rng(46)
        rho = random_valid_state(rng)
        dt = 1e-9
        stepped = rho
        for _ in range(100):
            stepped = rk4_step(stepped, dt, 0.0, 0.0, atom)
        free = PulseSequence(pulses=(), t_end=100 * dt)
        exact = run_sequence_hard(rho, free, atom, [100 * dt])[1][-1]
        assert np.abs(stepped - exact).max() <= 1e-13

    def test_fourth_order_convergence(self):
        atom = AtomParams(delta=2 * PI * 1e6)
        oj = 2 * PI * 1e6
        rho0 = ground_state()
        span = 1e-6

        def err(n):
            rho = rho0
            h = span / n
            for _ in range(n):
                rho = rk4_step(rho, h, oj, 0.0, atom)
            return rho

        coarse = err(40)
        fine = err(80)
        finest = err(160)
        e1 = np.abs(coarse - finest).max()
        e2 = np.abs(fine - finest).max()
        # halving the step should shrink the error by about 2^4
        assert e1 / e2 > 8.0

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            rk4_step(ground_state(), 0.0, 0.0, 0.0, AtomParams())
        with pytest.raises(ValueError):
            rk4_step(ground_state(), -1e-9, 0.0, 0.0, AtomParams())

    def test_exponential_population_decay(self):
        excited = np.zeros((3, 3), complex)
        excited[1, 1] = 1.0
        atom = AtomParams(gamma=(0.0, 1e5, 0.0))
        rho = excited
        dt = 1e-8
        for _ in range(1000):
            rho = rk4_step(rho, dt, 0.0, 0.0, atom)
        assert rho[1, 1].real == pytest.approx(math.exp(-1e5 * 1e-5), rel=1e-9)


class TestIntegrateSequence:
    def _square_pulse_seq(self, area, duration, t_start=0.0, t_end=None):
        pulse = Pulse(Channel.OPTICAL12, area, t_start, duration=duration)
        return PulseSequence(pulses=(pulse,), t_end=t_end or (t_start + duration))

    def test_rabi_flop_reaches_inversion(self):
        seq = self._square_pulse_seq(PI, 1e-6)
        times, states = integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-9)
        assert times[-1] == 1e-6
        assert states[-1, 1, 1].real == pytest.approx(1.0, abs=1e-10)

    def test_resonant_flop_profile(self):
        # rho22 = sin^2(area_so_far / 2) all the way through the pulse
        duration = 2e-6
        seq = self._square_pulse_seq(2 * PI, duration)
        times, states = integrate_sequence(ground_state(), seq, AtomParams(), dt=2e-9)
        omega = 2 * PI / duration
        np.testing.assert_allclose(
            states[:, 1, 1].real, np.sin(0.5 * omega * times) ** 2, rtol=0, atol=1e-9
        )

    def test_starts_with_initial_state(self):
        seq = self._square_pulse_seq(PI, 1e-6)
        times, states = integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-8)
        assert times[0] == 0.0
        np.testing.assert_array_equal(states[0], ground_state())

    def test_lands_on_pulse_edges(self):
        seq = PulseSequence(
            pulses=(
                Pulse(Channel.OPTICAL12, PI, 1.0e-6, duration=0.7e-6),
                Pulse(Channel.CONTROL23, PI, 2.5e-6, duration=0.7e-6),
            ),
            t_end=4.0e-6,
        )
        times, _ = integrate_sequence(ground_state(), seq, AtomParams(), dt=5e-9)
        edges = {0.0, seq.t_end}
        for p in seq.pulses:
            edges |= {p.t_start, p.t_end}
        assert edges <= set(times.tolist())

    @staticmethod
    def _hard_limit_deviation(atom, centers, areas, t_end, duration):
        """Final-state gap between short square pulses and instant rotations."""
        finite = PulseSequence(
            pulses=tuple(
                Pulse(Channel.OPTICAL12, a, c - duration / 2, duration=duration)
                for a, c in zip(areas, centers)
            ),
            t_end=t_end,
        )
        hard = PulseSequence(
            pulses=tuple(
                Pulse(Channel.OPTICAL12, a, c) for a, c in zip(areas, centers)
            ),
            t_end=t_end,
        )
        want = run_sequence_hard(ground_state(), hard, atom, [t_end])[1][-1]
        # only the final state is read: a stride past the step count emits
        # nothing but the segment edges
        dt = duration / 100
        _, states = integrate_sequence(
            ground_state(), finite, atom, dt=dt, sample_stride=math.ceil(t_end / dt)
        )
        return np.abs(states[-1] - want).max()

    def test_short_pulses_approach_hard_limit(self):
        # durations a thousandth of the gaps land within 1e-6 of the limit
        dev = self._hard_limit_deviation(
            atom=AtomParams(delta=2 * PI * 100.0),
            centers=[0.3e-6, 0.9e-6],
            areas=[0.3 * PI, PI],
            t_end=1.5e-6,
            duration=2e-9,
        )
        assert dev <= 1e-6

    def test_hard_limit_error_shrinks_with_duration(self):
        devs = [
            self._hard_limit_deviation(
                atom=AtomParams(delta=2 * PI * 1e4),
                centers=[0.5e-6],
                areas=[PI],
                t_end=1.0e-6,
                duration=d,
            )
            for d in (4e-8, 2e-8, 1e-8)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[0] / devs[1] > 1.5
        assert devs[1] / devs[2] > 1.5

    def test_trace_and_purity_drift(self):
        seq = PulseSequence(
            pulses=(
                Pulse(Channel.OPTICAL12, 0.5 * PI, 0.0, duration=1e-6),
                Pulse(Channel.CONTROL23, PI, 2e-6, duration=1e-6),
            ),
            t_end=4e-6,
        )
        atom = AtomParams(delta=2 * PI * 2e5, delta_s=2 * PI * 1e5)
        _, states = integrate_sequence(ground_state(), seq, atom, dt=1e-9)
        assert np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0).max() <= 1e-9
        assert np.abs(purity(states) - 1.0).max() <= 1e-9

    def test_rejects_zero_duration_pulse(self):
        seq = PulseSequence(pulses=(Pulse(Channel.OPTICAL12, PI, 0.0),), t_end=1e-6)
        with pytest.raises(ValueError, match="duration"):
            integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-9)

    def test_rejects_coarse_dt(self):
        seq = self._square_pulse_seq(PI, 1e-6)
        with pytest.raises(ValueError, match="coarse"):
            integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-7)

    def test_dt_bound_is_the_shortest_pulse_over_100(self):
        # the documented bound at its edge: a hundredth of the shortest pulse
        # is accepted, and the next float above it refused
        seq = PulseSequence(
            pulses=(
                Pulse(Channel.OPTICAL12, PI, 0.0, duration=0.3e-6),
                Pulse(Channel.CONTROL23, PI, 0.3e-6, duration=0.7e-6),
            ),
            t_end=1e-6,
        )
        edge = 0.3e-6 / 100
        times, _ = integrate_sequence(ground_state(), seq, AtomParams(), dt=edge)
        assert times[-1] == seq.t_end
        coarser = np.nextafter(edge, 1.0)
        with pytest.raises(ValueError, match="coarse") as err:
            integrate_sequence(ground_state(), seq, AtomParams(), dt=coarser)
        # the message prints the bound it compared against
        assert float(re.search(r"need <= (\S+) ", str(err.value))[1]) == edge

    def test_non_finite_rabi_frequency_refused_before_any_step(self, monkeypatch):
        # 1e300 rad over 0.1 ns is a Rabi frequency of inf rad/s
        seq = self._square_pulse_seq(1e300, 1e-10)

        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(integrator, "_step_minus_one", no_step)
        with pytest.raises(ValueError, match="drive amplitudes must be finite"):
            integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-12)

    def test_too_many_emitted_states_refused_before_any_step(self, monkeypatch):
        # about 1e20 steps of 1e-26 s over 1 us, one state every 1e9 of them
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(integrator, "_step_minus_one", no_step)
        seq = PulseSequence(pulses=(), t_end=1e-6)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="past the bound") as err:
                integrate_sequence(
                    ground_state(), seq, AtomParams(), dt=1e-26, sample_stride=10**9
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(re.search(r"emit (\d+) states", str(err.value))[1]) > 10**11
        assert peak < 1e6

    def test_state_bound_counts_every_emitted_state(self, monkeypatch):
        # rho0, then 200, 100 and 100 steps of gap, pulse and tail, one state
        # every 80 steps and at each edge: 1 + 3 + 2 + 2 states
        seq = self._square_pulse_seq(PI, 0.5e-6, t_start=1e-6, t_end=2e-6)
        kwargs = dict(dt=0.5e-8, sample_stride=80)
        monkeypatch.setattr(integrator, "_MAX_STATES", 8)
        times, _ = integrate_sequence(ground_state(), seq, AtomParams(), **kwargs)
        assert times.size == 8
        monkeypatch.setattr(integrator, "_MAX_STATES", 7)
        with pytest.raises(ValueError, match="emit 8 states"):
            integrate_sequence(ground_state(), seq, AtomParams(), **kwargs)

    def test_window_of_infinitely_many_steps_refused(self):
        seq = PulseSequence(pulses=(), t_end=1e-6)
        with pytest.raises(ValueError, match="need finite t_end / dt"):
            integrate_sequence(ground_state(), seq, AtomParams(), dt=5e-324)

    def test_sample_stride_thins_output_but_keeps_edges(self):
        seq = self._square_pulse_seq(PI, 1e-6, t_end=2e-6)
        dense, _ = integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-9)
        thin, _ = integrate_sequence(
            ground_state(), seq, AtomParams(), dt=1e-9, sample_stride=100
        )
        assert thin.size < dense.size / 50
        assert {0.0, 1e-6, 2e-6} <= set(thin.tolist())


def midpoint_segments(seq):
    """[0, t_end] cut at every pulse edge, each non-empty piece's drive found
    by scanning every pulse at the piece's midpoint: (start, end, oj, ok)."""
    edges = {0.0, seq.t_end, *(p.t_start for p in seq.pulses), *(p.t_end for p in seq.pulses)}
    cuts = sorted(edges)
    out = []
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        oj = ok = 0.0
        for p in seq.pulses:
            if p.t_start <= mid < p.t_end:
                if p.channel is Channel.OPTICAL12:
                    oj = p.rabi_frequency
                else:
                    ok = p.rabi_frequency
        out.append((a, b, oj, ok))
    return out


class TestSegments:
    @given(case=sequences("square"))
    def test_walks_gaps_and_pulses(self, case):
        seq, _ = case
        pieces = list(_segments(seq))
        # the pieces tile [0, t_end] edge to edge
        assert pieces[0][0] == 0.0 and pieces[-1][1] == seq.t_end
        assert all(prev[1] == nxt[0] for prev, nxt in zip(pieces, pieces[1:]))
        # each pulse is one piece, driving its own channel; every gap is undriven
        gaps, pulses = pieces[0::2], pieces[1::2]
        assert len(pulses) == len(seq.pulses)
        for (a, b, oj, ok), p in zip(pulses, seq.pulses):
            assert (a, b) == (p.t_start, p.t_end)
            optical = p.channel is Channel.OPTICAL12
            assert (oj, ok) == ((p.rabi_frequency, 0.0) if optical else (0.0, p.rabi_frequency))
        assert all((oj, ok) == (0.0, 0.0) for _, _, oj, ok in gaps)
        # the non-empty pieces are the edge-set cut with its midpoint drives
        assert [piece for piece in pieces if piece[1] > piece[0]] == midpoint_segments(seq)


def rk4_loop(rho0, seq, atom, dt, stride):
    """integrate_sequence written as a plain loop of rk4_step calls, from a
    3x3 array; returns its list of (t, state) pairs."""
    out = [(0.0, rho0)]
    rho = rho0
    for a, b, oj, ok in _segments(seq):
        if b <= a:
            continue
        n = max(1, math.ceil((b - a) / dt - 1e-9))
        h = (b - a) / n
        for i in range(n):
            rho = rk4_step(rho, h, oj, ok, atom)
            if (i + 1) % stride == 0 or i == n - 1:
                out.append((b if i == n - 1 else a + (i + 1) * h, rho))
    return out


class TestStepMatrix:
    @settings(max_examples=10)
    @given(
        case=sequences("square"),
        delta=st.floats(min_value=-2 * PI * 5e6, max_value=2 * PI * 5e6),
        delta_s=st.floats(min_value=-2 * PI * 5e6, max_value=2 * PI * 5e6),
        gamma=st.tuples(*[st.floats(min_value=1e3, max_value=1e6)] * 3),
        stride=st.integers(min_value=1, max_value=60),
    )
    # 1400 steps of 5 ns: a step matrix stored as 1 + E, each entry rounded
    # relative to 1, ended 1.0e-13 off a long-double run of the same RK4 map
    # here, where the rk4_step loop is 1.0e-15 off and E kept apart 1.7e-15
    @example(
        case=(
            PulseSequence(
                (
                    Pulse(Channel.OPTICAL12, 2.0, 0.0, 2.3e-6),
                    Pulse(Channel.OPTICAL12, 6.03125, 2.3e-6, 2.2e-6),
                    Pulse(Channel.OPTICAL12, 0.5, 4.5e-6, 0.5e-6),
                ),
                t_end=7e-6,
            ),
            None,
        ),
        delta=4558456.0,
        delta_s=0.0,
        gamma=(1023.0, 322334.5, 1000.0),
        stride=2,
    )
    def test_matches_rk4_step_loop(self, case, delta, delta_s, gamma, stride):
        seq, _ = case
        atom = AtomParams(delta=delta, delta_s=delta_s, gamma=gamma)
        dt = min((p.duration for p in seq.pulses), default=seq.t_end) / 100
        times, states = integrate_sequence(
            ground_state(), seq, atom, dt, sample_stride=stride
        )
        want = rk4_loop(ground_state(), seq, atom, dt, stride)
        assert times.tolist() == [t for t, _ in want]
        assert np.abs(states - np.stack([w for _, w in want])).max() <= 1e-13

    def test_unstable_step_still_raises(self):
        # gamma * dt = 1e4 is far outside RK4's stability region
        excited = np.zeros((3, 3), dtype=complex)
        excited[1, 1] = 1.0
        seq = PulseSequence(pulses=(), t_end=1e-7)
        atom = AtomParams(gamma=(0.0, 1e13, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                integrate_sequence(excited, seq, atom, dt=1e-9, sample_stride=50)
