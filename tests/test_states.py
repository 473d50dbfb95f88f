"""Value types: construction, validation report, accessors, immutability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import purity, random_valid_state, validate

from cdrecho import (
    AtomParams,
    Channel,
    DensityMatrix,
    Pulse,
    PulseSequence,
    after_data,
    ground_state,
    max_element_distance,
)
from cdrecho.states import PulseOverlapError


class TestDensityMatrix:
    def test_ground_state_layout(self):
        rho = ground_state()
        assert rho.population(1) == 1.0
        assert rho.population(2) == 0.0
        assert rho.population(3) == 0.0
        assert rho.trace() == pytest.approx(1.0, abs=1e-15)

    def test_ground_state_is_valid(self):
        assert validate(ground_state().elements).ok

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_non_finite(self):
        m = np.eye(3, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_backing_array_is_read_only(self):
        rho = ground_state()
        with pytest.raises(ValueError):
            rho.elements[0, 0] = 0.5

    def test_population_index_range(self):
        with pytest.raises(IndexError):
            ground_state().population(0)
        with pytest.raises(IndexError):
            ground_state().population(4)

    def test_purity_of_pure_and_mixed(self):
        assert purity(ground_state().elements) == pytest.approx(1.0, abs=1e-15)
        assert purity(np.eye(3) / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


class TestValidate:
    def test_reports_hermiticity_breach_magnitude(self):
        m = np.diag([1.0, 0.0, 0.0]).astype(complex)
        m[0, 1] = 1.0  # no conjugate partner
        report = validate(m)
        assert not report.ok
        assert report.magnitude("hermiticity") == pytest.approx(1.0, abs=1e-12)

    def test_reports_trace_breach_magnitude(self):
        m = np.diag([0.5, 0.0, 0.0]).astype(complex)
        report = validate(m)
        assert not report.ok
        assert report.magnitude("trace") == pytest.approx(0.5, abs=1e-12)

    def test_reports_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0.0]).astype(complex)
        report = validate(m)
        assert not report.ok
        assert report.magnitude("positivity") == pytest.approx(0.5, abs=1e-12)

    def test_never_raises_on_garbage(self):
        m = np.full((3, 3), 7.0 + 3.0j)
        report = validate(m)
        assert not report.ok

    def test_reports_the_worst_of_each_kind_over_a_stack(self):
        # each kind's worst breach sits in a different state of the stack
        def unpaired(x):
            # no conjugate partner; its symmetric part's least eigenvalue is
            # above -0.21
            m = np.diag([1.0, 0.0, 0.0]).astype(complex)
            m[0, 1] = x
            return m

        rng = np.random.default_rng(8)
        valid = [random_valid_state(rng).elements for _ in range(3)]
        short = np.diag([0.75, 0.0, 0.0])
        negative = np.diag([1.5, -0.5, 0.0])
        stack = np.stack([*valid, unpaired(0.5), unpaired(1.0), short, negative])
        report = validate(stack)
        assert not report.ok
        assert report.magnitude("hermiticity") == pytest.approx(1.0, abs=1e-12)
        assert report.magnitude("trace") == pytest.approx(0.25, abs=1e-12)
        assert report.magnitude("positivity") == pytest.approx(0.5, abs=1e-12)
        assert validate(np.stack(valid)).ok

    def test_random_valid_states_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert validate(random_valid_state(rng).elements).ok


class TestCoherence:
    def test_fresh_weak_coherence(self):
        rho = after_data(0.1 * math.pi)
        want = -0.5j * math.sin(0.1 * math.pi)
        assert rho.elements[0, 1] == pytest.approx(want, abs=1e-9)

    def test_half_pi_coherence(self):
        rho = after_data(0.5 * math.pi)
        assert rho.elements[0, 1] == pytest.approx(-0.5j, abs=1e-12)

    def test_hermitian_pair(self):
        rng = np.random.default_rng(3)
        rho = random_valid_state(rng)
        assert rho.elements[1, 0] == pytest.approx(np.conj(rho.elements[0, 1]), abs=1e-15)


class TestMaxElementDistance:
    def test_identical_states(self):
        assert max_element_distance(ground_state(), ground_state()) == 0.0

    def test_known_distance(self):
        a = ground_state()
        m = np.zeros((3, 3), complex)
        m[1, 1] = 1.0
        assert max_element_distance(a, DensityMatrix(m)) == pytest.approx(1.0)

    @settings(max_examples=30)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_valid_state(rng) for _ in range(3))
        assert max_element_distance(a, c) <= (
            max_element_distance(a, b) + max_element_distance(b, c) + 1e-15
        )


class TestPulseTypes:
    def test_hard_pulse_has_no_rabi_frequency(self):
        p = Pulse(Channel.OPTICAL12, math.pi, 0.0)
        assert p.is_hard
        with pytest.raises(ValueError):
            p.rabi_frequency

    def test_finite_pulse_rabi_frequency(self):
        p = Pulse(Channel.OPTICAL12, math.pi, 0.0, duration=1e-6)
        assert p.rabi_frequency == pytest.approx(math.pi * 1e6)
        assert p.t_end == pytest.approx(1e-6)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Pulse(Channel.OPTICAL12, math.pi, 0.0, duration=-1.0)

    def test_unsorted_sequence_rejected(self):
        pulses = (
            Pulse(Channel.OPTICAL12, math.pi, 2.0),
            Pulse(Channel.OPTICAL12, math.pi, 1.0),
        )
        with pytest.raises(ValueError):
            PulseSequence(pulses=pulses, t_end=3.0)

    def test_overlapping_finite_pulses_rejected(self):
        pulses = (
            Pulse(Channel.OPTICAL12, math.pi, 0.0, duration=2.0),
            Pulse(Channel.CONTROL23, math.pi, 1.0, duration=2.0),
        )
        with pytest.raises(PulseOverlapError):
            PulseSequence(pulses=pulses, t_end=4.0)

    def test_t_end_before_last_pulse_rejected(self):
        pulses = (Pulse(Channel.OPTICAL12, math.pi, 5.0),)
        with pytest.raises(ValueError):
            PulseSequence(pulses=pulses, t_end=4.0)

    def test_atom_params_reject_negative_decay(self):
        with pytest.raises(ValueError):
            AtomParams(gamma=(-1.0, 0.0, 0.0))
