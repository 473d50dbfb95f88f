"""Three-level photon-echo simulator.

Closed-form stage solutions, exact hard-pulse unitaries and a fixed-step
RK4 master-equation integrator for the controlled-double-rephasing echo
protocol, plus inhomogeneous-ensemble echo traces, pulse-area propagation
and deterministic sweep datasets.
"""

from .area import PropagationConfig, propagate_area
from .csvio import CsvWriteError, Table, render_csv, write_csv
from .ensemble import (
    EchoEvent,
    EchoReport,
    EnsembleSpec,
    EnsembleTrace,
    detect_echoes,
    predict_echo_times,
    simulate_ensemble,
    time_grid,
)
from .integrator import DriveSample, integrate_sequence, rhs
from .seqfile import SequenceFileError, parse_sequence_file
from .stages import (
    StageAreas,
    after_c1,
    after_c2,
    after_data,
    after_r1,
    after_r2_cdr,
    after_r2_dr,
    stage_chain,
)
from .states import (
    AtomParams,
    Channel,
    DensityMatrix,
    Pulse,
    PulseSequence,
    ValidationReport,
    ground_state,
    max_element_distance,
    purity,
    validate,
)
from .sweeps import FigureId, SweepSpec, figure_dataset, run_sweep
from .unitary import pulse_unitary, run_sequence_hard

__version__ = "0.1.0"

__all__ = [
    "AtomParams",
    "Channel",
    "CsvWriteError",
    "DensityMatrix",
    "DriveSample",
    "EchoEvent",
    "EchoReport",
    "EnsembleSpec",
    "EnsembleTrace",
    "FigureId",
    "PropagationConfig",
    "Pulse",
    "PulseSequence",
    "SequenceFileError",
    "StageAreas",
    "SweepSpec",
    "Table",
    "ValidationReport",
    "after_c1",
    "after_c2",
    "after_data",
    "after_r1",
    "after_r2_cdr",
    "after_r2_dr",
    "detect_echoes",
    "figure_dataset",
    "ground_state",
    "integrate_sequence",
    "max_element_distance",
    "parse_sequence_file",
    "predict_echo_times",
    "propagate_area",
    "pulse_unitary",
    "purity",
    "render_csv",
    "rhs",
    "run_sequence_hard",
    "run_sweep",
    "simulate_ensemble",
    "stage_chain",
    "time_grid",
    "validate",
    "write_csv",
]
