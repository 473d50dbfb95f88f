"""Closed-form stage states checked against explicit unitary products."""

import math

import numpy as np
import pytest

from conftest import pulse_unitary, validate

from cdrecho import (
    Channel,
    StageAreas,
    ground_state,
    stage_chain,
)
from cdrecho.stages import (
    after_c1,
    after_c2,
    after_data,
    after_r1,
    after_r2_cdr,
    after_r2_dr,
)

PI = math.pi
SIN_WEAK_HALF = 0.1545084971874737  # sin(0.1 pi) / 2
POP_WEAK = 0.024471741852423214  # sin^2(0.05 pi)
POP_INVERTED = 0.9755282581475768  # cos^2(0.05 pi), excited share after D + R1


def _compose(*steps):
    """Apply (channel, area) rotations to the ground state in order."""
    m = ground_state()
    for channel, area in steps:
        u = pulse_unitary(channel, area)
        m = u @ m @ u.conj().T
    return m


class TestAgainstUnitaryOracle:
    """Every closed form must equal the explicit product of hard rotations."""

    def test_random_area_tuples(self):
        rng = np.random.default_rng(2026)
        for _ in range(60):
            d, r1, c1, c2, r2 = rng.uniform(-2 * PI, 2 * PI, 5)
            cases = [
                (after_data(d), [(Channel.OPTICAL12, d)]),
                (after_r1(d, r1), [(Channel.OPTICAL12, d), (Channel.OPTICAL12, r1)]),
                (
                    after_r2_dr(d, r1, r2),
                    [(Channel.OPTICAL12, a) for a in (d, r1, r2)],
                ),
                (
                    after_c1(d, r1, c1),
                    [
                        (Channel.OPTICAL12, d),
                        (Channel.OPTICAL12, r1),
                        (Channel.CONTROL23, c1),
                    ],
                ),
                (
                    after_c2(d, r1, c1, c2),
                    [
                        (Channel.OPTICAL12, d),
                        (Channel.OPTICAL12, r1),
                        (Channel.CONTROL23, c1),
                        (Channel.CONTROL23, c2),
                    ],
                ),
                (
                    after_r2_cdr(d, r1, c1, c2, r2),
                    [
                        (Channel.OPTICAL12, d),
                        (Channel.OPTICAL12, r1),
                        (Channel.CONTROL23, c1),
                        (Channel.CONTROL23, c2),
                        (Channel.OPTICAL12, r2),
                    ],
                ),
            ]
            for closed, steps in cases:
                assert np.abs(closed - _compose(*steps)).max() <= 1e-12

    def test_all_outputs_are_valid_states(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            d, r1, c1, c2, r2 = rng.uniform(0, 3 * PI, 5)
            chain = stage_chain(StageAreas(d, r1, c1, c2, r2))
            assert validate(np.stack([rho for _, rho in chain])).ok


class TestCanonicalChain:
    """Weak data pulse followed by four pi pulses."""

    AREAS = StageAreas(0.1 * PI, PI, PI, PI, PI)

    def test_labels(self):
        chain = stage_chain(self.AREAS)
        assert tuple(label for label, _ in chain) == ("D", "R1", "C1", "C2", "R2")

    def test_coherence_sign_pattern(self):
        chain = stage_chain(self.AREAS)
        want = [-SIN_WEAK_HALF, SIN_WEAK_HALF, 0.0, -SIN_WEAK_HALF, SIN_WEAK_HALF]
        for (_, rho), expected in zip(chain, want):
            assert rho[0, 1].imag == pytest.approx(expected, abs=1e-12)
            assert rho[0, 1].real == pytest.approx(0.0, abs=1e-12)

    def test_shelving_and_return(self):
        chain = dict(stage_chain(self.AREAS))
        assert chain["C1"][2, 2].real == pytest.approx(POP_INVERTED, abs=1e-12)
        assert chain["C1"][1, 1].real == pytest.approx(0.0, abs=1e-12)
        assert chain["C2"][2, 2].real == pytest.approx(0.0, abs=1e-12)
        assert chain["C2"][1, 1].real == pytest.approx(POP_INVERTED, abs=1e-12)

    def test_final_state(self):
        final = stage_chain(self.AREAS)[-1][1]
        assert final[2, 2].real == pytest.approx(0.0, abs=1e-12)
        assert final[1, 1].real == pytest.approx(POP_WEAK, abs=1e-12)
        assert final[0, 0].real == pytest.approx(1 - POP_WEAK, abs=1e-12)

    def test_half_pi_data_pulse(self):
        chain = stage_chain(StageAreas(0.5 * PI, PI, PI, PI, PI))
        imags = [rho[0, 1].imag for _, rho in chain]
        assert imags == pytest.approx([-0.5, 0.5, 0.0, -0.5, 0.5], abs=1e-12)


class TestControlPairIdentities:
    def test_full_turn_restores_post_r1_state(self):
        # 4 pi of control area is the identity on the whole state
        rng = np.random.default_rng(8)
        for _ in range(20):
            d, r1 = rng.uniform(0, 2 * PI, 2)
            restored = after_c2(d, r1, 2 * PI, 2 * PI)
            assert np.abs(restored - after_r1(d, r1)).max() <= 1e-12

    def test_two_pi_negates_optical_coherence(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d, r1 = rng.uniform(0, 2 * PI, 2)
            flipped = after_c2(d, r1, PI, PI)
            reference = after_r1(d, r1)
            assert flipped[0, 1] == pytest.approx(-reference[0, 1], abs=1e-12)
            assert flipped[1, 1].real == pytest.approx(reference[1, 1].real, abs=1e-12)

    def test_pi_control_empties_excited_level(self):
        rho = after_c1(0.3 * PI, PI, PI)
        assert rho[1, 1].real == pytest.approx(0.0, abs=1e-12)
        assert rho[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_control_split_is_irrelevant(self):
        # only the summed control area matters before R2 fires
        a = after_c2(0.4, 2.8, 1.0, 2.4)
        b = after_c2(0.4, 2.8, 3.4, 0.0)
        assert np.abs(a - b).max() <= 1e-12


class TestDoubleRephasingWithoutControls:
    def test_total_area_block(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d, r1, r2 = rng.uniform(0, 2 * PI, 3)
            rho = after_r2_dr(d, r1, r2)
            theta = d + r1 + r2
            assert rho[0, 0].real == pytest.approx(
                math.cos(theta / 2) ** 2, abs=1e-12
            )
            assert rho[0, 1] == pytest.approx(
                -0.5j * math.sin(theta), abs=1e-12
            )
            assert rho[2, 2].real == pytest.approx(0.0, abs=1e-12)

    def test_weak_data_two_pi_rephasing_flips_nothing_back(self):
        # after D + R1 + R2 with pi pulses the coherence has circled to -sin
        rho = after_r2_dr(0.1 * PI, PI, PI)
        assert rho[0, 1].imag == pytest.approx(-SIN_WEAK_HALF, abs=1e-12)


class TestAreaValidation:
    def test_non_finite_area_rejected(self):
        with pytest.raises(ValueError):
            StageAreas(math.nan, PI, PI, PI, PI)
        with pytest.raises(ValueError):
            StageAreas(0.1 * PI, PI, PI, PI, math.inf)
