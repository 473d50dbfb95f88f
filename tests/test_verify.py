"""The cross-validation suite itself must pass and report honestly."""

import math

import numpy as np
import pytest

from cdrecho import verify
from cdrecho.cli import cli_main
from cdrecho.verify import (
    Check,
    check_area_propagation,
    check_control_recovery,
    check_engine_agreement,
    check_half_pi_chain,
    check_rate_equations,
    check_weak_chain,
    run_checks,
)


class TestCheckLine:
    def test_pass_format(self):
        c = Check(name="demo", ok=True, deviation=3.21e-13, tolerance=1e-9)
        assert c.line() == "PASS demo: deviation 3.210e-13 (tol 1.0e-09)"

    def test_fail_format_with_note(self):
        c = Check(name="demo", ok=False, deviation=2e-3, tolerance=1e-9, note="drift 1e-2")
        assert c.line() == "FAIL demo: deviation 2.000e-03 (tol 1.0e-09) drift 1e-2"


class TestIndividualChecks:
    @pytest.mark.parametrize(
        "fn,margin",
        [
            (check_weak_chain, 1e-3),
            (check_half_pi_chain, 1e-3),
            (check_control_recovery, 1e-2),
            (check_rate_equations, 1e-1),
        ],
    )
    def test_passes_with_margin(self, fn, margin):
        check = fn()
        assert check.ok
        assert check.deviation <= margin * check.tolerance

    def test_engine_agreement(self):
        check = check_engine_agreement()
        assert check.ok
        assert check.deviation <= check.tolerance

    def test_area_propagation(self):
        check = check_area_propagation()
        assert check.ok
        assert check.deviation <= check.tolerance


class TestRunChecks:
    def test_all_named_and_green(self):
        checks = run_checks()
        assert len(checks) == 6
        assert len({c.name for c in checks}) == 6
        assert all(c.ok for c in checks)


def _shifted(m, index, x):
    """A writable copy of m with x added at index."""
    out = np.array(m)
    out[index] += x
    return out


def _chain_fault(monkeypatch, x):
    # Im rho12 after the data pulse moves by x
    real = verify.stage_chain

    def faulty(areas):
        (label, rho), *rest = real(areas)
        return [(label, _shifted(rho, (0, 1), 1j * x)), *rest]

    monkeypatch.setattr(verify, "stage_chain", faulty)


def _recovery_fault(monkeypatch, x):
    # rho12 after the control pair moves by x
    real = verify.after_c2

    def faulty(*areas):
        return _shifted(real(*areas), (0, 1), x)

    monkeypatch.setattr(verify, "after_c2", faulty)


def _hard_final_fault(monkeypatch, x):
    # rho12 of the last hard-pulse state moves by x
    real = verify.run_sequence_hard

    def faulty(*args):
        times, states = real(*args)
        return times, _shifted(states, (-1, 0, 1), x)

    monkeypatch.setattr(verify, "run_sequence_hard", faulty)


def _drift_fault(monkeypatch, x):
    # rho33 of the first RK4 state, 0 in the ground state, moves by x: the
    # trace drifts by x and the purity by x^2
    real = verify.integrate_sequence

    def faulty(*args, **kwargs):
        times, states = real(*args, **kwargs)
        return times, _shifted(states, (0, 2, 2), x)

    monkeypatch.setattr(verify, "integrate_sequence", faulty)


def _rhs_fault(monkeypatch, x):
    # one element of one state's derivative moves by x
    real = verify._rhs_elements

    def nudged(rho, omega_j, omega_k, atom):
        out = real(rho, omega_j, omega_k, atom)
        out.reshape(-1, 3, 3)[0, 1, 2] += x  # a view: out is a fresh array
        return out

    monkeypatch.setattr(verify, "_rhs_elements", nudged)


def _weak_area_fault(monkeypatch, x):
    # the weak pulse's areas scale by 1 + x, a relative error of x
    real = verify.propagate_area

    def faulty(phi0, alpha, z_max):
        table = real(phi0, alpha, z_max)
        return table * [1.0, 1.0 + x] if phi0 < 1.0 else table

    monkeypatch.setattr(verify, "propagate_area", faulty)


def _pi_area_fault(monkeypatch, x):
    # the pi pulse's areas move by x
    real = verify.propagate_area

    def faulty(phi0, alpha, z_max):
        table = real(phi0, alpha, z_max)
        return table + [0.0, x] if phi0 == math.pi else table

    monkeypatch.setattr(verify, "propagate_area", faulty)


def _nudged_rhs(monkeypatch):
    # a hundred times the check's 1e-14 tolerance
    _rhs_fault(monkeypatch, 1e-12)


def _scaled_trajectory(monkeypatch):
    # every emitted state grows by 1 + 1e-8: trace and purity drift by 1e-8
    # and 2e-8, ten and twenty times the drift tolerance
    real = verify.integrate_sequence

    def scaled(*args, **kwargs):
        times, states = real(*args, **kwargs)
        return times, states * (1 + 1e-8)

    monkeypatch.setattr(verify, "integrate_sequence", scaled)


# (check, fault, bound, whether the check prints the bound as its tolerance):
# the six printed tolerances, the engine's trace/purity drift and the pi area's
# drift
BOUNDS = [
    (check_weak_chain, _chain_fault, 1e-9, True),
    (check_half_pi_chain, _chain_fault, 1e-9, True),
    (check_control_recovery, _recovery_fault, 1e-12, True),
    (check_engine_agreement, _hard_final_fault, 1e-8, True),
    (check_engine_agreement, _drift_fault, 1e-9, False),
    (check_rate_equations, _rhs_fault, 1e-14, True),
    (check_area_propagation, _weak_area_fault, 1e-2, True),
    (check_area_propagation, _pi_area_fault, 1e-12, False),
]


class TestChecksCatchFaults:
    """Every bound holds both ways: a fault of 1.2 times it fails its check
    and one of 0.8 times it passes. The batched checks fail on a fault ten to
    a hundred times their tolerance, and `verify` exits 1."""

    @pytest.mark.parametrize("factor", [0.8, 1.2])
    @pytest.mark.parametrize(
        "check, fault, bound, printed",
        BOUNDS,
        ids=[f"{c.__name__[6:]}-{f.__name__[1:-6]}" for c, f, _, _ in BOUNDS],
    )
    def test_bound_is_pinned_both_ways(
        self, monkeypatch, check, fault, bound, printed, factor
    ):
        fault(monkeypatch, factor * bound)
        got = check()
        assert got.ok is (factor < 1.0)
        assert type(got.deviation) is float
        if printed:
            assert got.tolerance == bound
            assert got.deviation == pytest.approx(factor * bound, rel=1e-2)

    def test_rate_equations_catch_one_nudged_element(self, monkeypatch):
        _nudged_rhs(monkeypatch)
        check = check_rate_equations()
        assert not check.ok
        assert check.deviation >= 0.9e-12

    def test_engine_agreement_catches_scaled_states(self, monkeypatch):
        _scaled_trajectory(monkeypatch)
        check = check_engine_agreement()
        assert not check.ok
        assert check.deviation <= check.tolerance  # only the drift gives it away

    @pytest.mark.parametrize("fault", [_nudged_rhs, _scaled_trajectory])
    def test_verify_exits_1(self, monkeypatch, capsys, fault):
        fault(monkeypatch)
        assert cli_main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL ") == 1
        assert out.endswith("1 of 6 checks failed\n")
