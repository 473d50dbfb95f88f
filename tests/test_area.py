"""Area propagation pinned against the separable exact solution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrecho import propagate_area

PI = math.pi


def exact_area(phi0: float, alpha: float, z: np.ndarray) -> np.ndarray:
    """Closed-form solution: tan(phi/2) = tan(phi0/2) exp(-alpha z / 2)."""
    return 2.0 * np.arctan(np.tan(phi0 / 2.0) * np.exp(-0.5 * alpha * z))


def _resolved(phi) -> np.ndarray:
    """Where half an ulp of phi moves tan(phi/2) by under 1e-13 relative.

    Rounding phi to a float shifts tan(phi/2) by spacing(phi) / |sin(phi)|
    relative, so near a multiple of pi (|tan| large, or phi near 2 pi k with
    k != 0) no float phi can carry the law to 1e-12; |tan(phi/2)| < 1e6 alone
    does not exclude those rows.
    """
    phi = np.asarray(phi)
    return np.spacing(np.abs(phi)) <= 1e-13 * np.abs(np.sin(phi))


# alpha * z_max up to 1e3; z_max 0 asks for the single starting row
OPTICAL_DEPTHS = st.floats(min_value=0.0, max_value=1e3)
Z_MAX = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3))


def _alpha(depth: float, z_max: float) -> float:
    return depth / z_max if z_max else depth


class TestPropagateArea:
    def test_matches_exact_solution(self):
        samples = propagate_area(0.8 * PI, 1.0, 5.0)
        want = exact_area(0.8 * PI, 1.0, samples[:, 0])
        np.testing.assert_allclose(samples[:, 1], want, atol=1e-10)

    def test_weak_pulse_beer_decay(self):
        final = propagate_area(0.01, 1.0, 2.0)[-1, 1]
        assert final == pytest.approx(0.01 * math.exp(-1.0), rel=0.01)

    def test_stationary_points(self):
        for phi0 in (0.0, PI, 2 * PI):
            samples = propagate_area(phi0, 2.0, 10.0)
            assert np.max(np.abs(samples[:, 1] - phi0)) <= 1e-12

    def test_pi_stays_where_decay_underflows(self):
        # alpha z overflows to inf, so exp(-alpha z / 2) is 0 past the first row
        for phi0 in (-PI, PI, 3 * PI):
            samples = propagate_area(phi0, 1e308, 1e308)
            assert np.all(samples[:, 1] == phi0)

    def test_pi_is_unstable(self):
        down = propagate_area(PI - 0.01, 1.0, 40.0)
        up = propagate_area(PI + 0.01, 1.0, 40.0)
        assert down[-1, 1] < 0.1
        assert up[-1, 1] > 2 * PI - 0.1

    def test_monotone_decay_below_pi(self):
        phis = propagate_area(0.6 * PI, 1.5, 4.0)[:, 1]
        assert np.all(np.diff(phis) < 0)
        assert np.all(phis > 0)

    def test_endpoints_and_grid(self):
        samples = propagate_area(1.0, 1.0, 3.0)
        assert samples.shape == (1001, 2)
        assert samples[0, 0] == 0.0
        assert samples[0, 1] == 1.0
        assert samples[-1, 0] == 3.0
        steps = np.diff(samples[:, 0])
        np.testing.assert_allclose(steps, steps[0], rtol=1e-12)

    def test_zero_depth_returns_initial_point(self):
        samples = propagate_area(1.2, 1.0, 0.0)
        assert samples.shape == (1, 2)
        assert tuple(samples[0]) == (0.0, 1.2)

    def test_zero_absorption_keeps_area(self):
        samples = propagate_area(2.3, 0.0, 5.0)
        assert np.max(np.abs(samples[:, 1] - 2.3)) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            propagate_area(math.nan, 1.0, 1.0)
        with pytest.raises(ValueError):
            propagate_area(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            propagate_area(1.0, 1.0, -1.0)


class TestAreaLaw:
    @settings(max_examples=300)
    @given(
        phi0=st.floats(min_value=-4 * PI, max_value=4 * PI),
        depth=OPTICAL_DEPTHS,
        z_max=Z_MAX,
    )
    def test_law_holds_and_area_moves_toward_nearest_2pi_multiple(
        self, phi0, depth, z_max
    ):
        alpha = _alpha(depth, z_max)
        z, phi = propagate_area(phi0, alpha, z_max).T
        assert phi[0] == phi0

        t0 = math.tan(phi0 / 2.0)
        kept = np.tan(phi / 2.0) * np.exp(0.5 * alpha * z)
        rows = _resolved(phi) & _resolved(phi0)
        np.testing.assert_allclose(kept[rows], t0, rtol=1e-12)

        target = phi0 - math.remainder(phi0, 2 * PI)
        lo, hi = min(phi0, target), max(phi0, target)
        assert np.all((lo <= phi) & (phi <= hi))
        assert np.all(np.diff(phi) * math.copysign(1.0, target - phi0) >= 0)

    @settings(max_examples=100)
    @given(
        phi0=st.floats(min_value=-4 * PI, max_value=4 * PI),
        k=st.integers(min_value=-4, max_value=4),
        depth=OPTICAL_DEPTHS,
        z_max=Z_MAX,
    )
    def test_no_absorption_and_pi_multiples_keep_phi0_bit_for_bit(
        self, phi0, k, depth, z_max
    ):
        assert np.all(propagate_area(phi0, 0.0, z_max)[:, 1] == phi0)
        assert np.all(propagate_area(k * PI, _alpha(depth, z_max), z_max)[:, 1] == k * PI)
