"""Hard-pulse rotations, free evolution and the hard sequence runner."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrecho import (
    AtomParams,
    Channel,
    DensityMatrix,
    Pulse,
    PulseSequence,
    StageAreas,
    ground_state,
    max_element_distance,
    pulse_unitary,
    purity,
    run_sequence_hard,
    stage_chain,
)
from cdrecho.stages import after_data
from cdrecho.unitary import _square_eigen

PI = math.pi


def random_valid_state(rng) -> DensityMatrix:
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace())


def conjugate(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """rho -> u rho u^dagger as an explicit matrix product."""
    return DensityMatrix(u @ rho.elements @ u.conj().T)


def free_evolve(rho: DensityMatrix, atom: AtomParams, span: float) -> DensityMatrix:
    """Free evolution over span: run_sequence_hard with no pulses."""
    seq = PulseSequence(pulses=(), t_end=span)
    return run_sequence_hard(rho, seq, atom, [span])[-1][1]


def hard_loop(rho0, seq, atom, sample_times):
    """Dense per-sample loop form of run_sequence_hard: the reference for the walk."""
    rates = np.array([0.0, atom.delta, atom.delta_s])

    def free(m, span):
        u = np.diag(np.exp(-1j * rates * span))
        return u @ m @ u.conj().T

    samples = sorted(sample_times)
    out, m, now, idx = [], rho0.elements, 0.0, 0
    for p in seq.pulses:
        while idx < len(samples) and samples[idx] < p.t_start:
            out.append((samples[idx], free(m, samples[idx] - now)))
            idx += 1
        m = free(m, p.t_start - now)
        now = p.t_start
        u = pulse_unitary(p.channel, p.area)
        m = u @ m @ u.conj().T
        while idx < len(samples) and samples[idx] == now:
            idx += 1
        out.append((now, m))
    out += [(t, free(m, t - now)) for t in samples[idx:]]
    return out


class TestPulseUnitary:
    def test_zero_area_is_identity(self):
        for ch in Channel:
            np.testing.assert_allclose(pulse_unitary(ch, 0.0), np.eye(3), atol=1e-15)

    def test_unknown_channel_rejected(self):
        for bad in ("optical12", 0, None):
            with pytest.raises(ValueError, match="unknown channel"):
                pulse_unitary(bad, PI)

    def test_pi_pulse_swaps_populations(self):
        u = pulse_unitary(Channel.OPTICAL12, PI)
        rho = conjugate(ground_state(), u)
        assert rho.population(2) == pytest.approx(1.0, abs=1e-12)
        assert rho.population(1) == pytest.approx(0.0, abs=1e-12)

    def test_control_pi_moves_excited_to_spin(self):
        excited = np.zeros((3, 3), complex)
        excited[1, 1] = 1.0
        u = pulse_unitary(Channel.CONTROL23, PI)
        rho = conjugate(DensityMatrix(excited), u)
        assert rho.population(3) == pytest.approx(1.0, abs=1e-12)

    def test_matches_fresh_coherence_solution(self):
        u = pulse_unitary(Channel.OPTICAL12, 0.1 * PI)
        rho = conjugate(ground_state(), u)
        assert max_element_distance(rho, after_data(0.1 * PI)) <= 1e-12

    def test_unitarity_over_random_areas(self):
        rng = np.random.default_rng(11)
        for area in rng.uniform(-4 * PI, 4 * PI, 40):
            for ch in Channel:
                u = pulse_unitary(ch, area)
                np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-14)

    def test_composition_adds_areas(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            a, b = rng.uniform(0, 4 * PI, 2)
            for ch in Channel:
                lhs = pulse_unitary(ch, a) @ pulse_unitary(ch, b)
                np.testing.assert_allclose(lhs, pulse_unitary(ch, a + b), atol=1e-13)

    def test_rephasing_conjugates_optical_coherence(self):
        rng = np.random.default_rng(13)
        u = pulse_unitary(Channel.OPTICAL12, PI)
        for _ in range(20):
            rho = random_valid_state(rng)
            out = conjugate(rho, u)
            assert out.elements[0, 1] == pytest.approx(
                np.conj(rho.elements[0, 1]), abs=1e-14
            )


class TestFreeEvolution:
    def test_zero_detuning_is_identity(self):
        rho = random_valid_state(np.random.default_rng(15))
        out = free_evolve(rho, AtomParams(), 3.7e-6)
        np.testing.assert_allclose(out.elements, rho.elements, atol=1e-15)

    def test_optical_phase_rotation_magnitude(self):
        atom = AtomParams(delta=2 * PI * 1e6)
        rho = free_evolve(after_data(0.5 * PI), atom, 0.5e-6)
        before = np.angle(after_data(0.5 * PI).elements[0, 1])
        after = np.angle(rho.elements[0, 1])
        turn = (after - before + PI) % (2 * PI) - PI
        assert abs(abs(turn) - PI) <= 1e-9

    def test_spin_coherence_frozen_without_spin_detuning(self):
        # coherence parked on |1>-|3> must not pick up the optical detuning
        m = np.zeros((3, 3), complex)
        m[0, 0] = m[2, 2] = 0.5
        m[0, 2] = m[2, 0] = 0.5
        atom = AtomParams(delta=2 * PI * 1e6, delta_s=0.0)
        out = free_evolve(DensityMatrix(m), atom, 1.3e-6)
        assert out.elements[0, 2] == pytest.approx(0.5, abs=1e-12)

    def test_spin_detuning_rotates_spin_coherence(self):
        m = np.zeros((3, 3), complex)
        m[0, 0] = m[2, 2] = 0.5
        m[0, 2] = m[2, 0] = 0.5
        atom = AtomParams(delta=0.0, delta_s=2 * PI * 1e5)
        dt = 2.5e-6
        out = free_evolve(DensityMatrix(m), atom, dt)
        want = 0.5 * np.exp(1j * atom.delta_s * dt)
        assert out.elements[0, 2] == pytest.approx(want, abs=1e-12)

    def test_purity_conserved(self):
        rng = np.random.default_rng(14)
        atom = AtomParams(delta=1.0e5, delta_s=3.0e4)
        for _ in range(20):
            rho = random_valid_state(rng)
            before = purity(rho)
            for out in (
                free_evolve(rho, atom, 1e-6),
                conjugate(rho, pulse_unitary(Channel.OPTICAL12, 1.1)),
            ):
                assert purity(out) == pytest.approx(before, abs=1e-12)


class TestRunSequenceHard:
    def test_canonical_boundaries_match_stage_chain(self):
        areas = StageAreas(0.1 * PI, PI, PI, PI, PI)
        seq = PulseSequence(
            pulses=(
                Pulse(Channel.OPTICAL12, areas.phi_d, 0.0),
                Pulse(Channel.OPTICAL12, areas.phi_r1, 1.0e-5),
                Pulse(Channel.CONTROL23, areas.phi_c1, 1.2e-5),
                Pulse(Channel.CONTROL23, areas.phi_c2, 1.6e-5),
                Pulse(Channel.OPTICAL12, areas.phi_r2, 3.0e-5),
            ),
            t_end=4.5e-5,
        )
        boundaries = run_sequence_hard(ground_state(), seq, AtomParams())
        chain = stage_chain(areas)
        assert len(boundaries) == len(chain)
        for (t, got), (_, want) in zip(boundaries, chain):
            assert max_element_distance(got, want) <= 1e-12

    def test_empty_sequence_keeps_state_constant(self):
        seq = PulseSequence(pulses=(), t_end=1.0)
        out = run_sequence_hard(ground_state(), seq, AtomParams(), [0.25, 0.5, 1.0])
        assert [t for t, _ in out] == [0.25, 0.5, 1.0]
        for _, rho in out:
            assert max_element_distance(rho, ground_state()) == 0.0

    def test_detuned_pi_pulse_still_inverts(self):
        seq = PulseSequence(pulses=(Pulse(Channel.OPTICAL12, PI, 1.0),), t_end=2.0)
        atom = AtomParams(delta=2 * PI * 1e4)
        out = run_sequence_hard(ground_state(), seq, atom, [2.0])
        assert out[-1][1].population(2) == pytest.approx(1.0, abs=1e-12)

    def test_sample_on_pulse_instant_shows_post_pulse_state(self):
        seq = PulseSequence(pulses=(Pulse(Channel.OPTICAL12, PI, 1.0),), t_end=2.0)
        out = run_sequence_hard(ground_state(), seq, AtomParams(), [1.0])
        assert len(out) == 1
        assert out[0][1].population(2) == pytest.approx(1.0, abs=1e-12)

    def test_detuned_coherence_phase_between_pulses(self):
        atom = AtomParams(delta=2 * PI * 2.5e5)
        seq = PulseSequence(pulses=(Pulse(Channel.OPTICAL12, 0.1 * PI, 0.0),), t_end=1e-5)
        t = 0.8e-6
        _, rho = run_sequence_hard(ground_state(), seq, atom, [t])[-1]
        want = -0.5j * math.sin(0.1 * PI) * np.exp(1j * atom.delta * t)
        assert rho.elements[0, 1] == pytest.approx(want, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        pulses=st.lists(
            st.tuples(
                st.sampled_from(list(Channel)),
                st.floats(min_value=-4.0, max_value=4.0),  # area / pi
                st.integers(min_value=0, max_value=5),  # gap before, 0.1 us
            ),
            max_size=4,
        ),
        samples=st.lists(st.integers(min_value=0, max_value=25), max_size=8),
        delta=st.floats(min_value=-2e7, max_value=2e7),
        delta_s=st.floats(min_value=-2e7, max_value=2e7),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_dense_loop(self, pulses, samples, delta, delta_s, seed):
        # integer grids let pulses share an instant and samples land on one
        built, t = [], 0.0
        for channel, area, gap in pulses:
            t += gap * 1e-7
            built.append(Pulse(channel, area * PI, t))
        seq = PulseSequence(pulses=tuple(built), t_end=2.5e-6)
        atom = AtomParams(delta=delta, delta_s=delta_s)
        rho0 = random_valid_state(np.random.default_rng(seed))
        times = [k * 1e-7 for k in samples]
        got = run_sequence_hard(rho0, seq, atom, times)
        want = hard_loop(rho0, seq, atom, times)
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, rho), (_, m) in zip(got, want):
            assert np.abs(rho.elements - m).max() <= 1e-12

    def test_finite_duration_pulse_rejected(self):
        seq = PulseSequence(
            pulses=(Pulse(Channel.OPTICAL12, PI, 0.0, duration=1e-6),), t_end=1e-5
        )
        with pytest.raises(ValueError):
            run_sequence_hard(ground_state(), seq, AtomParams())


class TestSquareEigen:
    @pytest.mark.parametrize("channel", list(Channel))
    @pytest.mark.parametrize("ratio", [1e-8, 1.0, 1e8])  # Omega / |delta|
    def test_closed_form_eigenpairs(self, channel, ratio):
        pulse = Pulse(channel, PI, 0.0, duration=0.5e-6)  # Omega = 2 pi MHz
        d = pulse.rabi_frequency / ratio
        # both signs of delta, delta = 0 exactly, and a detuned spin level
        deltas = np.array([d, -d, 0.0, 0.5 * d])
        delta_s = np.array([0.0, 0.0, 0.0, -0.25 * d])
        w, v = _square_eigen(pulse, deltas, delta_s)
        a, b = {Channel.OPTICAL12: (0, 1), Channel.CONTROL23: (1, 2)}[channel]
        for k in range(deltas.size):
            h = np.diag([0.0, deltas[k], delta_s[k]])
            h[a, b] = h[b, a] = -0.5 * pulse.rabi_frequency
            scale = np.linalg.norm(h, 2)
            assert np.linalg.norm(h @ v[k] - v[k] * w[k], 2) <= 1e-12 * scale
            assert np.linalg.norm(v[k].T @ v[k] - np.eye(3), 2) <= 1e-12
