"""The cross-validation suite itself must pass and report honestly."""

import pytest

from cdrecho import DensityMatrix, verify
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


def _nudged_rhs(monkeypatch):
    # one element of one state's derivative moves by 1e-12, a hundred times
    # the check's 1e-14 tolerance
    real = verify._rhs_elements

    def nudged(rho, omega_j, omega_k, atom):
        out = real(rho, omega_j, omega_k, atom)
        out.reshape(-1, 3, 3)[0, 1, 2] += 1e-12  # a view: out is a fresh array
        return out

    monkeypatch.setattr(verify, "_rhs_elements", nudged)


def _scaled_trajectory(monkeypatch):
    # every emitted state grows by 1 + 1e-8: trace and purity drift by 1e-8
    # and 2e-8, ten and twenty times the drift tolerance
    real = verify.integrate_sequence

    def scaled(*args, **kwargs):
        return [
            (t, DensityMatrix(state.elements * (1 + 1e-8)))
            for t, state in real(*args, **kwargs)
        ]

    monkeypatch.setattr(verify, "integrate_sequence", scaled)


class TestChecksCatchFaults:
    """The batched checks fail on a fault ten to a hundred times their
    tolerance, and `verify` exits 1."""

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
