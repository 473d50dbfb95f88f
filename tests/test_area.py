"""Area propagation pinned against the separable exact solution."""

import math
import tracemalloc

import numpy as np
import pytest

from cdrecho import PropagationConfig, propagate_area
from cdrecho.area import MAX_AREA_STEPS

PI = math.pi


def exact_area(phi0: float, alpha: float, z: np.ndarray) -> np.ndarray:
    """Closed-form solution: tan(phi/2) = tan(phi0/2) exp(-alpha z / 2)."""
    return 2.0 * np.arctan(np.tan(phi0 / 2.0) * np.exp(-0.5 * alpha * z))


class TestPropagateArea:
    def test_matches_exact_solution(self):
        cfg = PropagationConfig(phi0=0.8 * PI, alpha=1.0, z_max=5.0, dz=1e-3)
        samples = propagate_area(cfg)
        want = exact_area(cfg.phi0, cfg.alpha, samples[:, 0])
        np.testing.assert_allclose(samples[:, 1], want, atol=1e-10)

    def test_weak_pulse_beer_decay(self):
        cfg = PropagationConfig(phi0=0.01, alpha=1.0, z_max=2.0, dz=1e-3)
        final = propagate_area(cfg)[-1, 1]
        assert final == pytest.approx(0.01 * math.exp(-1.0), rel=0.01)

    def test_stationary_points(self):
        for phi0 in (0.0, PI, 2 * PI):
            cfg = PropagationConfig(phi0=phi0, alpha=2.0, z_max=10.0, dz=1e-2)
            samples = propagate_area(cfg)
            assert np.max(np.abs(samples[:, 1] - phi0)) <= 1e-12

    def test_pi_is_unstable(self):
        down = propagate_area(PropagationConfig(PI - 0.01, 1.0, 40.0, 1e-2))
        up = propagate_area(PropagationConfig(PI + 0.01, 1.0, 40.0, 1e-2))
        assert down[-1, 1] < 0.1
        assert up[-1, 1] > 2 * PI - 0.1

    def test_monotone_decay_below_pi(self):
        cfg = PropagationConfig(phi0=0.6 * PI, alpha=1.5, z_max=4.0, dz=1e-2)
        phis = propagate_area(cfg)[:, 1]
        assert np.all(np.diff(phis) < 0)
        assert np.all(phis > 0)

    def test_endpoints_and_grid(self):
        cfg = PropagationConfig(phi0=1.0, alpha=1.0, z_max=3.0, dz=0.7)
        samples = propagate_area(cfg)
        assert samples[0, 0] == 0.0
        assert samples[0, 1] == 1.0
        assert samples[-1, 0] == 3.0
        steps = np.diff(samples[:, 0])
        np.testing.assert_allclose(steps, steps[0], rtol=1e-12)

    def test_zero_depth_returns_initial_point(self):
        samples = propagate_area(PropagationConfig(1.2, 1.0, 0.0, 0.1))
        assert samples.shape == (1, 2)
        assert tuple(samples[0]) == (0.0, 1.2)

    def test_zero_absorption_keeps_area(self):
        samples = propagate_area(PropagationConfig(2.3, 0.0, 5.0, 1e-2))
        assert np.max(np.abs(samples[:, 1] - 2.3)) == 0.0

    def test_fourth_order_convergence(self):
        def final_phi(dz):
            return propagate_area(PropagationConfig(0.8 * PI, 1.0, 2.0, dz))[-1, 1]

        truth = exact_area(0.8 * PI, 1.0, np.array([2.0]))[0]
        e_coarse = abs(final_phi(0.1) - truth)
        e_fine = abs(final_phi(0.05) - truth)
        assert e_coarse / e_fine > 8.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PropagationConfig(math.nan, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            PropagationConfig(1.0, -1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            PropagationConfig(1.0, 1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            PropagationConfig(1.0, 1.0, 1.0, 0.0)

    def test_step_cap_refused_before_any_array(self):
        # dz = 1e-15 once asked propagate_area for a 14 PiB table
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most {MAX_AREA_STEPS} steps"):
                PropagationConfig(0.1, 1.0, 1.0, 1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6

    def test_step_cap_edges(self):
        PropagationConfig(0.1, 1.0, float(MAX_AREA_STEPS), 1.0)
        for z_max, dz in ((MAX_AREA_STEPS + 1.0, 1.0), (1.0, 5e-324)):  # the second is inf
            with pytest.raises(ValueError, match="steps"):
                PropagationConfig(0.1, 1.0, z_max, dz)
