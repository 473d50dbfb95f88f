"""Area sweeps and the fourteen preset figure datasets."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import column

from cdrecho import (
    FigureId,
    StageAreas,
    SweepSpec,
    figure_dataset,
    render_csv,
    run_sweep,
)
from cdrecho.stages import after_c1, after_c2, after_data, after_r1, after_r2_cdr, after_r2_dr
from cdrecho.sweeps import FIGURE_GRID_STEPS, MAX_SWEEP_STEPS

PI = math.pi
SIN_WEAK_HALF = 0.1545084971874737  # sin(0.1 pi) / 2

WEAK = StageAreas(phi_d=0.1 * PI, phi_r1=PI, phi_c1=PI, phi_c2=PI, phi_r2=0.0)

# the scalar stage calls, keyed by the sweep's stage names; their parameter
# names are the area names a sweep of that stage may vary
SCALAR_STAGES = {
    "data": after_data,
    "r1": after_r1,
    "r2_dr": after_r2_dr,
    "c1": after_c1,
    "c2": after_c2,
    "r2_cdr": after_r2_cdr,
}


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown stage"):
            SweepSpec(stage="r9", varying="phi_d", lo=0, hi=1, steps=5, fixed=WEAK)
        with pytest.raises(ValueError, match="has no area"):
            SweepSpec(stage="r1", varying="phi_c1", lo=0, hi=1, steps=5, fixed=WEAK)
        with pytest.raises(ValueError, match="lo < hi"):
            SweepSpec(stage="r1", varying="phi_r1", lo=1, hi=1, steps=5, fixed=WEAK)
        with pytest.raises(ValueError, match="finite hi - lo"):
            SweepSpec(stage="r1", varying="phi_r1", lo=-1e308, hi=1e308, steps=5, fixed=WEAK)
        with pytest.raises(ValueError, match="phi_d \\+ phi_r1 \\+ phi_r2"):
            SweepSpec(stage="r1", varying="phi_d", lo=0, hi=1.7e308, steps=5,
                      fixed=StageAreas(0.0, 1e308, PI, PI, 0.0))
        with pytest.raises(ValueError, match="steps"):
            SweepSpec(stage="r1", varying="phi_r1", lo=0, hi=1, steps=1, fixed=WEAK)

    def test_steps_are_capped(self):
        # checked at construction, before any grid is allocated
        assert MAX_SWEEP_STEPS == 10**6
        spec = SweepSpec("r1", "phi_r1", lo=0, hi=1, steps=MAX_SWEEP_STEPS, fixed=WEAK)
        assert spec.steps == MAX_SWEEP_STEPS
        with pytest.raises(ValueError, match="steps"):
            SweepSpec("r1", "phi_r1", lo=0, hi=1, steps=MAX_SWEEP_STEPS + 1, fixed=WEAK)


class TestRunSweep:
    def test_structure_and_grid(self):
        spec = SweepSpec(stage="r1", varying="phi_r1", lo=0.0, hi=2 * PI, steps=11, fixed=WEAK)
        table = run_sweep(spec)
        assert table.columns == ("phi_r1_rad", "im_rho12", "re_rho13", "rho11", "rho22", "rho33")
        assert table.rows.shape == (11, 6)
        x = column(table, "phi_r1_rad")
        assert x[0] == 0.0
        assert x[-1] == pytest.approx(2 * PI)
        np.testing.assert_allclose(np.diff(x), 0.2 * PI, rtol=1e-12)

    def test_meta_records_fixed_areas_in_pi_units(self):
        spec = SweepSpec(stage="c2", varying="phi_c2", lo=0.0, hi=PI, steps=3, fixed=WEAK)
        meta = dict(run_sweep(spec).meta)
        assert meta["stage"] == "c2"
        assert meta["varying"] == "phi_c2"
        assert meta["phi_d_pi"] == "0.1"
        assert meta["phi_r1_pi"] == "1"
        assert meta["phi_c1_pi"] == "1"
        assert "phi_c2_pi" not in meta

    @settings(max_examples=40)
    @given(
        stage=st.sampled_from(sorted(SCALAR_STAGES)),
        pick=st.integers(0, 4),
        fixed=st.lists(st.floats(-30.0, 30.0), min_size=5, max_size=5),
        lo=st.floats(-30.0, 29.0),
        width=st.floats(0.01, 30.0),
        steps=st.integers(401, 1000),
    )
    def test_rows_match_direct_stage_calls(self, stage, pick, fixed, lo, width, steps):
        # grids this long run through numpy's SIMD loops, so any expression
        # whose array form rounds differently from its scalar form shows up
        solver = SCALAR_STAGES[stage]
        names = tuple(inspect.signature(solver).parameters)
        varying = names[pick % len(names)]
        areas = StageAreas(*fixed)
        table = run_sweep(SweepSpec(stage, varying, lo, lo + width, steps, areas))
        want = []
        for x in table.rows[:, 0]:
            rho = solver(*(x if n == varying else getattr(areas, n) for n in names))
            want.append(
                (rho[0, 1].imag, rho[0, 2].real, rho[0, 0].real, rho[1, 1].real, rho[2, 2].real)
            )
        got = np.ascontiguousarray(table.rows[:, 1:])
        np.testing.assert_array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


class TestFigureDatasets:
    def test_every_figure_has_full_grid(self):
        for fig in FigureId:
            table = figure_dataset(fig)
            assert table.rows.shape[0] == FIGURE_GRID_STEPS
            x = table.rows[:, 0]
            assert x[0] == 0.0
            assert x[-1] == pytest.approx(4 * PI)
            assert table.meta[0] == ("figure", fig.value)

    def test_column_selection(self):
        assert figure_dataset(FigureId.FIG2A).columns == ("phi_r1_rad", "im_rho12")
        assert figure_dataset(FigureId.FIG2B).columns == ("phi_r1_rad", "rho11", "rho22")
        assert figure_dataset(FigureId.FIG3A).columns == (
            "phi_c1_rad",
            "im_rho12",
            "re_rho13",
        )
        assert figure_dataset(FigureId.FIG4B).columns == (
            "phi_r2_rad",
            "rho11",
            "rho22",
            "rho33",
        )
        assert figure_dataset(FigureId.FIG5D).columns == ("phi_r2_rad", "im_rho12")

    def test_spot_values_at_pi_points(self):
        # grid is 0..4pi in 401 steps, so pi sits at row 100, 3pi at row 300
        cases = [
            (FigureId.FIG2A, 100, "im_rho12", SIN_WEAK_HALF),
            (FigureId.FIG3C, 300, "im_rho12", SIN_WEAK_HALF),
            (FigureId.FIG4A, 100, "im_rho12", SIN_WEAK_HALF),
            (FigureId.FIG5A, 100, "im_rho12", 0.5),
        ]
        for fig, row, col, want in cases:
            table = figure_dataset(fig)
            assert table.rows[row, 0] == pytest.approx(
                PI * (row / 100), rel=1e-12
            )
            assert column(table, col)[row] == pytest.approx(want, abs=1e-9)

    def test_optical_area_addition_law(self):
        # r1 and r2_dr stages depend only on the summed optical area, so the
        # swept coherence must be an exact shifted sine of the grid; checked
        # on the in-memory table because 12-digit file rounding is coarser
        for fig, offset in ((FigureId.FIG2A, 0.1 * PI), (FigureId.FIG2C, 0.1 * PI + PI)):
            table = figure_dataset(fig)
            x = table.rows[:, 0]
            want = -0.5 * np.sin(offset + x)
            assert np.max(np.abs(column(table, "im_rho12") - want)) <= 1e-12

    def test_first_control_pulse_law(self):
        # C1 splits the coherence between cos and sin of half its area
        table = figure_dataset(FigureId.FIG3A)
        x = table.rows[:, 0]
        sin_theta = math.sin(1.1 * PI)
        im12 = -0.5 * np.cos(x / 2) * sin_theta
        re13 = -0.5 * np.sin(x / 2) * sin_theta
        assert np.max(np.abs(column(table, "im_rho12") - im12)) <= 1e-12
        assert np.max(np.abs(column(table, "re_rho13") - re13)) <= 1e-12

    def test_final_rephasing_law(self):
        # with a pi-pi control pair the final coherence is a pure shifted sine
        for fig, theta in ((FigureId.FIG4A, 1.1 * PI), (FigureId.FIG5D, 1.5 * PI)):
            table = figure_dataset(fig)
            x = table.rows[:, 0]
            want = -0.5 * np.sin(x - theta)
            assert np.max(np.abs(column(table, "im_rho12") - want)) <= 1e-12

    def test_populations_complement(self):
        table = figure_dataset(FigureId.FIG2B)
        total = column(table, "rho11") + column(table, "rho22")
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_render_is_deterministic(self):
        for fig in (FigureId.FIG2A, FigureId.FIG4B):
            assert render_csv(figure_dataset(fig)) == render_csv(figure_dataset(fig))

    def test_weak_and_half_presets_differ_only_in_data_area(self):
        meta_a = dict(figure_dataset(FigureId.FIG2A).meta)
        meta_5a = dict(figure_dataset(FigureId.FIG5A).meta)
        assert meta_a["phi_d_pi"] == "0.1"
        assert meta_5a["phi_d_pi"] == "0.5"
        assert meta_a["stage"] == meta_5a["stage"] == "r1"
