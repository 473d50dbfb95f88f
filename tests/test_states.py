"""State arrays and pulse value types: the engines' guard on the initial
state, the validation report, read-only ground states."""

import math

import numpy as np
import pytest

from conftest import purity, random_valid_state, validate

from cdrecho import (
    AtomParams,
    Channel,
    Pulse,
    PulseSequence,
    after_data,
    ground_state,
    integrate_sequence,
    run_sequence_hard,
)
from cdrecho.states import PulseOverlapError


class TestGroundState:
    def test_ground_state_layout(self):
        rho = ground_state()
        assert rho.shape == (3, 3)
        assert rho[0, 0].real == 1.0
        assert rho[1, 1].real == 0.0
        assert rho[2, 2].real == 0.0
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    def test_ground_state_is_valid(self):
        assert validate(ground_state()).ok

    def test_backing_array_is_read_only(self):
        rho = ground_state()
        with pytest.raises(ValueError):
            rho[0, 0] = 0.5

    def test_purity_of_pure_and_mixed(self):
        assert purity(ground_state()) == pytest.approx(1.0, abs=1e-15)
        assert purity(np.eye(3) / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def _hard(rho0):
    seq = PulseSequence((Pulse(Channel.OPTICAL12, 0.5 * math.pi, 1e-6),), t_end=2e-6)
    return run_sequence_hard(rho0, seq, AtomParams(), [0.0])


def _rk4(rho0):
    seq = PulseSequence((Pulse(Channel.OPTICAL12, 0.5 * math.pi, 0.0, 2e-7),), t_end=3e-7)
    return integrate_sequence(rho0, seq, AtomParams(), dt=1e-9, sample_stride=50)


class TestInitialState:
    """Both engines take rho0 as any 3x3 array-like: they refuse a wrong shape
    or a non-finite entry with ValueError, and start from a copy of it."""

    ENGINES = (_hard, _rk4)

    def test_rejects_wrong_shape(self):
        for engine in self.ENGINES:
            with pytest.raises(ValueError, match="must be 3x3"):
                engine(np.eye(2))

    def test_rejects_non_finite(self):
        m = np.eye(3, dtype=complex)
        m[0, 0] = np.nan
        for engine in self.ENGINES:
            with pytest.raises(ValueError, match="non-finite"):
                engine(m)

    def test_accepts_nested_list(self):
        nested = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
        for engine in self.ENGINES:
            _, states = engine(nested)
            np.testing.assert_array_equal(states[0], ground_state())
            np.testing.assert_array_equal(states, engine(ground_state())[1])

    def test_leaves_the_callers_array_unchanged(self):
        rho0 = random_valid_state(np.random.default_rng(4))
        before = rho0.copy()
        for engine in self.ENGINES:
            _, states = engine(rho0)
            np.testing.assert_array_equal(rho0, before)
            assert rho0.flags.writeable
            rho0[0, 0] += 1.0  # the run kept its own copy
            np.testing.assert_array_equal(states[0], before)
            rho0[...] = before


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
        valid = [random_valid_state(rng) for _ in range(3)]
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
            assert validate(random_valid_state(rng)).ok


class TestCoherence:
    def test_fresh_weak_coherence(self):
        rho = after_data(0.1 * math.pi)
        want = -0.5j * math.sin(0.1 * math.pi)
        assert rho[0, 1] == pytest.approx(want, abs=1e-9)

    def test_half_pi_coherence(self):
        rho = after_data(0.5 * math.pi)
        assert rho[0, 1] == pytest.approx(-0.5j, abs=1e-12)

    def test_hermitian_pair(self):
        rng = np.random.default_rng(3)
        rho = random_valid_state(rng)
        assert rho[1, 0] == pytest.approx(np.conj(rho[0, 1]), abs=1e-15)


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
