"""Area sweeps over the closed-form stages and the canonical figure datasets.

A sweep varies one pulse area across a grid while the others stay fixed and
tabulates Im rho12, Re rho13 and the three populations. The figure datasets
are fourteen preset sweeps: coherence and population views of each protocol
stage at a weak data area, plus coherence views at phi_d = pi/2. All preset
grids run 0..4pi in steps of pi/100.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .csvio import Table
from .stages import CANONICAL, COLUMNS, HALF_PI, STAGES, StageAreas, observables

__all__ = ["SweepSpec", "FigureId", "run_sweep", "figure_dataset"]

MAX_SWEEP_STEPS = 10**6  # a one-call sweep holds about 280 B per point: 280 MB


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional area sweep of a named stage.

    varying must be one of the stage's area names; lo/hi are radians, with a
    finite hi - lo, and the grid has `steps` evenly spaced points including
    both ends, at most MAX_SWEEP_STEPS of them.
    """

    stage: str
    varying: str
    lo: float
    hi: float
    steps: int
    fixed: StageAreas

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}; choose from {sorted(STAGES)}")
        names, _ = STAGES[self.stage]
        if self.varying not in names:
            raise ValueError(
                f"stage {self.stage!r} has no area {self.varying!r}; it takes {names}"
            )
        # hi - lo sets the grid's step, so it must be finite too
        if not math.isfinite(self.hi - self.lo) or self.hi <= self.lo:
            raise ValueError("need finite lo < hi with a finite hi - lo")
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if not 2 <= self.steps <= MAX_SWEEP_STEPS:
            raise ValueError(f"steps must be in [2, {MAX_SWEEP_STEPS}]")
        for end in (self.lo, self.hi):  # the stage's sums of areas at both ends
            replace(self.fixed, **{self.varying: end})


def run_sweep(spec: SweepSpec) -> Table:
    """Evaluate the stage across the grid in one call; one row per grid point."""
    names, form = STAGES[spec.stage]
    grid = np.linspace(spec.lo, spec.hi, spec.steps)
    states = form(*(grid if n == spec.varying else getattr(spec.fixed, n) for n in names))
    rows = np.column_stack([grid, observables(states)])
    meta = [("stage", spec.stage), ("varying", spec.varying)]
    for n in names:
        if n != spec.varying:
            meta.append((f"{n}_pi", format(getattr(spec.fixed, n) / math.pi, ".12g")))
    return Table(
        columns=(f"{spec.varying}_rad", *COLUMNS),
        rows=rows,
        meta=tuple(meta),
    )


class FigureId(enum.Enum):
    """The fourteen canonical sweep datasets."""

    FIG2A = "fig2a"
    FIG2B = "fig2b"
    FIG2C = "fig2c"
    FIG2D = "fig2d"
    FIG3A = "fig3a"
    FIG3B = "fig3b"
    FIG3C = "fig3c"
    FIG3D = "fig3d"
    FIG4A = "fig4a"
    FIG4B = "fig4b"
    FIG5A = "fig5a"
    FIG5B = "fig5b"
    FIG5C = "fig5c"
    FIG5D = "fig5d"


_COHERENCE = ("im_rho12",)
_COHERENCE13 = ("im_rho12", "re_rho13")
_POPS2 = ("rho11", "rho22")
_POPS3 = ("rho11", "rho22", "rho33")

# figure -> (stage, varying area, fixed areas, emitted columns)
_FIGURES: dict[FigureId, tuple[str, str, StageAreas, tuple[str, ...]]] = {
    FigureId.FIG2A: ("r1", "phi_r1", CANONICAL, _COHERENCE),
    FigureId.FIG2B: ("r1", "phi_r1", CANONICAL, _POPS2),
    FigureId.FIG2C: ("r2_dr", "phi_r2", CANONICAL, _COHERENCE),
    FigureId.FIG2D: ("r2_dr", "phi_r2", CANONICAL, _POPS2),
    FigureId.FIG3A: ("c1", "phi_c1", CANONICAL, _COHERENCE13),
    FigureId.FIG3B: ("c1", "phi_c1", CANONICAL, _POPS3),
    FigureId.FIG3C: ("c2", "phi_c2", CANONICAL, _COHERENCE),
    FigureId.FIG3D: ("c2", "phi_c2", CANONICAL, _POPS3),
    FigureId.FIG4A: ("r2_cdr", "phi_r2", CANONICAL, _COHERENCE),
    FigureId.FIG4B: ("r2_cdr", "phi_r2", CANONICAL, _POPS3),
    FigureId.FIG5A: ("r1", "phi_r1", HALF_PI, _COHERENCE),
    FigureId.FIG5B: ("c1", "phi_c1", HALF_PI, _COHERENCE),
    FigureId.FIG5C: ("c2", "phi_c2", HALF_PI, _COHERENCE),
    FigureId.FIG5D: ("r2_cdr", "phi_r2", HALF_PI, _COHERENCE),
}

FIGURE_GRID_STEPS = 401  # 0..4pi in pi/100 steps


def figure_dataset(figure: FigureId) -> Table:
    """The preset sweep for one figure, trimmed to its published columns."""
    stage, varying, fixed, wanted = _FIGURES[figure]
    sweep = SweepSpec(
        stage=stage,
        varying=varying,
        lo=0.0,
        hi=4.0 * math.pi,
        steps=FIGURE_GRID_STEPS,
        fixed=fixed,
    )
    full = run_sweep(sweep)
    keep = (f"{varying}_rad", *wanted)
    cols = [full.columns.index(c) for c in keep]
    meta = (("figure", figure.value), *full.meta)
    return Table(columns=keep, rows=full.rows[:, cols], meta=meta)
