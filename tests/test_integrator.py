"""RK4 master-equation integrator pinned against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrecho import (
    AtomParams,
    Channel,
    DensityMatrix,
    DriveSample,
    Pulse,
    PulseSequence,
    ground_state,
    integrate_sequence,
    max_element_distance,
    rhs,
    run_sequence_hard,
)
from cdrecho.integrator import _segments, rk4_step

PI = math.pi


def random_valid_state(rng) -> DensityMatrix:
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace())


def oracle_rhs(rho: np.ndarray, drive: DriveSample, atom: AtomParams) -> np.ndarray:
    """Commutator form of the same master equation, built independently."""
    h = np.array(
        [
            [0.0, -0.5 * drive.omega_j, 0.0],
            [-0.5 * drive.omega_j, atom.delta, -0.5 * drive.omega_k],
            [0.0, -0.5 * drive.omega_k, atom.delta_s],
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
            drive = DriveSample(*rng.uniform(-1e7, 1e7, 2))
            atom = AtomParams(
                delta=rng.uniform(-1e7, 1e7),
                delta_s=rng.uniform(-1e7, 1e7),
                gamma=tuple(rng.uniform(0, 1e5, 3)),
            )
            dev = np.max(np.abs(rhs(rho, drive, atom) - oracle_rhs(rho.elements, drive, atom)))
            worst = max(worst, dev / max(1.0, abs(drive.omega_j), abs(drive.omega_k)))
        assert worst <= 1e-14

    def test_derivative_stays_hermitian(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            rho = random_valid_state(rng)
            d = rhs(rho, DriveSample(1e6, 5e5), AtomParams(delta=2e5, gamma=(0, 1e3, 0)))
            np.testing.assert_allclose(d, d.conj().T, atol=1e-20)

    def test_trace_preserved_without_decay(self):
        rng = np.random.default_rng(44)
        drive = DriveSample(3e6, 2e6)
        # cancellation noise scales with the drive magnitude
        tol = 1e-14 * (abs(drive.omega_j) + abs(drive.omega_k))
        for _ in range(20):
            rho = random_valid_state(rng)
            d = rhs(rho, drive, AtomParams(delta=1e6, delta_s=2e5))
            assert abs(np.trace(d)) <= tol

    def test_population_loss_rates(self):
        # with no drive each population decays at its own rate
        rho = DensityMatrix(np.diag([0.2, 0.5, 0.3]).astype(complex))
        atom = AtomParams(gamma=(10.0, 20.0, 30.0))
        d = rhs(rho, DriveSample(), atom)
        assert d[0, 0].real == pytest.approx(-10.0 * 0.2, abs=1e-12)
        assert d[1, 1].real == pytest.approx(-20.0 * 0.5, abs=1e-12)
        assert d[2, 2].real == pytest.approx(-30.0 * 0.3, abs=1e-12)

    def test_broadcasts_over_leading_axis(self):
        rng = np.random.default_rng(45)
        states = np.stack([random_valid_state(rng).elements for _ in range(4)])
        drive = DriveSample(1e6, 2e6)
        atom = AtomParams(delta=3e5, delta_s=1e5)
        from cdrecho.integrator import _rhs_elements

        batch = _rhs_elements(states, drive, atom)
        for i in range(4):
            np.testing.assert_allclose(
                batch[i], _rhs_elements(states[i], drive, atom), atol=0
            )


class TestRk4Step:
    def test_free_evolution_matches_exact_unitary(self):
        atom = AtomParams(delta=2 * PI * 1e5, delta_s=2 * PI * 3e4)
        rng = np.random.default_rng(46)
        rho = random_valid_state(rng)
        dt = 1e-9
        stepped = rho
        for i in range(100):
            stepped = rk4_step(stepped, i * dt, dt, lambda t: DriveSample(), atom)
        free = PulseSequence(pulses=(), t_end=100 * dt)
        exact = run_sequence_hard(rho, free, atom, [100 * dt])[-1][1]
        assert max_element_distance(stepped, exact) <= 1e-13

    def test_fourth_order_convergence(self):
        atom = AtomParams(delta=2 * PI * 1e6)
        drive = DriveSample(omega_j=2 * PI * 1e6)
        rho0 = ground_state()
        span = 1e-6

        def err(n):
            rho = rho0
            h = span / n
            for i in range(n):
                rho = rk4_step(rho, i * h, h, lambda t: drive, atom)
            return rho

        coarse = err(40)
        fine = err(80)
        finest = err(160)
        e1 = max_element_distance(coarse, finest)
        e2 = max_element_distance(fine, finest)
        # halving the step should shrink the error by about 2^4
        assert e1 / e2 > 8.0

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            rk4_step(ground_state(), 0.0, 0.0, lambda t: DriveSample(), AtomParams())
        with pytest.raises(ValueError):
            rk4_step(ground_state(), 0.0, -1e-9, lambda t: DriveSample(), AtomParams())

    def test_exponential_population_decay(self):
        excited = np.zeros((3, 3), complex)
        excited[1, 1] = 1.0
        atom = AtomParams(gamma=(0.0, 1e5, 0.0))
        rho = DensityMatrix(excited)
        dt = 1e-8
        for i in range(1000):
            rho = rk4_step(rho, i * dt, dt, lambda t: DriveSample(), atom)
        assert rho.population(2) == pytest.approx(math.exp(-1e5 * 1e-5), rel=1e-9)


class TestIntegrateSequence:
    def _square_pulse_seq(self, area, duration, t_start=0.0, t_end=None):
        pulse = Pulse(Channel.OPTICAL12, area, t_start, duration=duration)
        return PulseSequence(pulses=(pulse,), t_end=t_end or (t_start + duration))

    def test_rabi_flop_reaches_inversion(self):
        seq = self._square_pulse_seq(PI, 1e-6)
        out = integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-9)
        t_final, rho_final = out[-1]
        assert t_final == pytest.approx(1e-6, abs=0)
        assert rho_final.population(2) == pytest.approx(1.0, abs=1e-10)

    def test_resonant_flop_profile(self):
        # rho22 = sin^2(area_so_far / 2) all the way through the pulse
        duration = 2e-6
        seq = self._square_pulse_seq(2 * PI, duration)
        out = integrate_sequence(ground_state(), seq, AtomParams(), dt=2e-9)
        omega = 2 * PI / duration
        for t, rho in out[:: len(out) // 17]:
            assert rho.population(2) == pytest.approx(
                math.sin(0.5 * omega * t) ** 2, abs=1e-9
            )

    def test_starts_with_initial_state(self):
        seq = self._square_pulse_seq(PI, 1e-6)
        out = integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-8)
        t0, rho0 = out[0]
        assert t0 == 0.0
        assert max_element_distance(rho0, ground_state()) == 0.0

    def test_lands_on_pulse_edges(self):
        seq = PulseSequence(
            pulses=(
                Pulse(Channel.OPTICAL12, PI, 1.0e-6, duration=0.7e-6),
                Pulse(Channel.CONTROL23, PI, 2.5e-6, duration=0.7e-6),
            ),
            t_end=4.0e-6,
        )
        out = integrate_sequence(ground_state(), seq, AtomParams(), dt=5e-9)
        times = {t for t, _ in out}
        edges = {0.0, seq.t_end}
        for p in seq.pulses:
            edges |= {p.t_start, p.t_end}
        assert edges <= times

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
        want = run_sequence_hard(ground_state(), hard, atom, [t_end])[-1][1]
        # only the final state is read: a stride past the step count emits
        # nothing but the segment edges
        dt = duration / 100
        out = integrate_sequence(
            ground_state(), finite, atom, dt=dt, sample_stride=math.ceil(t_end / dt)
        )
        return max_element_distance(out[-1][1], want)

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
        out = integrate_sequence(ground_state(), seq, atom, dt=1e-9)
        for _, rho in out[:: len(out) // 23]:
            assert abs(rho.trace() - 1.0) <= 1e-9
            assert abs(np.trace(rho.elements @ rho.elements).real - 1.0) <= 1e-9

    def test_rejects_zero_duration_pulse(self):
        seq = PulseSequence(pulses=(Pulse(Channel.OPTICAL12, PI, 0.0),), t_end=1e-6)
        with pytest.raises(ValueError, match="duration"):
            integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-9)

    def test_rejects_coarse_dt(self):
        seq = self._square_pulse_seq(PI, 1e-6)
        with pytest.raises(ValueError, match="coarse"):
            integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-7)

    def test_sample_stride_thins_output_but_keeps_edges(self):
        seq = self._square_pulse_seq(PI, 1e-6, t_end=2e-6)
        dense = integrate_sequence(ground_state(), seq, AtomParams(), dt=1e-9)
        thin = integrate_sequence(
            ground_state(), seq, AtomParams(), dt=1e-9, sample_stride=100
        )
        assert len(thin) < len(dense) / 50
        thin_times = {t for t, _ in thin}
        assert {0.0, 1e-6, 2e-6} <= thin_times


def rk4_loop(rho0, seq, atom, dt, stride):
    """integrate_sequence written as a plain loop of rk4_step calls."""
    out = [(0.0, rho0)]
    rho = rho0
    for a, b, drive in _segments(seq):
        if b <= a:
            continue
        n = max(1, math.ceil((b - a) / dt - 1e-9))
        h = (b - a) / n
        for i in range(n):
            rho = rk4_step(rho, a + i * h, h, lambda _t, _d=drive: _d, atom)
            if (i + 1) % stride == 0 or i == n - 1:
                out.append((b if i == n - 1 else a + (i + 1) * h, rho))
    return out


class TestStepMatrix:
    @settings(max_examples=10, deadline=None)
    @given(
        pulses=st.lists(
            st.tuples(
                st.sampled_from(list(Channel)),
                st.floats(min_value=0.1, max_value=1.5),  # area / pi
                st.floats(min_value=0.1, max_value=0.2),  # duration, us
                st.floats(min_value=0.0, max_value=0.1),  # gap before, us
            ),
            min_size=1,
            max_size=3,
        ),
        delta=st.floats(min_value=-2 * PI * 5e6, max_value=2 * PI * 5e6),
        delta_s=st.floats(min_value=-2 * PI * 5e6, max_value=2 * PI * 5e6),
        gamma=st.tuples(*[st.floats(min_value=1e3, max_value=1e6)] * 3),
        stride=st.integers(min_value=1, max_value=60),
    )
    def test_matches_rk4_step_loop(self, pulses, delta, delta_s, gamma, stride):
        built = []
        for channel, area, width, gap in pulses:
            start = built[-1].t_end + gap * 1e-6 if built else gap * 1e-6
            built.append(Pulse(channel, area * PI, start, duration=width * 1e-6))
        seq = PulseSequence(pulses=tuple(built), t_end=built[-1].t_end + 0.1e-6)
        atom = AtomParams(delta=delta, delta_s=delta_s, gamma=gamma)
        dt = min(p.duration for p in built) / 100
        got = integrate_sequence(ground_state(), seq, atom, dt, sample_stride=stride)
        want = rk4_loop(ground_state(), seq, atom, dt, stride)
        assert [t for t, _ in got] == [t for t, _ in want]
        worst = max(max_element_distance(g, w) for (_, g), (_, w) in zip(got, want))
        assert worst <= 1e-13

    def test_unstable_step_still_raises(self):
        # gamma * dt = 1e4 is far outside RK4's stability region
        excited = np.zeros((3, 3), dtype=complex)
        excited[1, 1] = 1.0
        seq = PulseSequence(pulses=(), t_end=1e-7)
        atom = AtomParams(gamma=(0.0, 1e13, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                integrate_sequence(
                    DensityMatrix(excited), seq, atom, dt=1e-9, sample_stride=50
                )
