"""Dissipative two-qubit dynamics with an entropic entanglement witness.

Simulates two two-level atoms, each coupled to an independent zero-temperature
reservoir with a Lorentzian spectrum, through a second-order time-local master
equation, and derives the quantum-memory-assisted entropic uncertainty bound,
the Wootters concurrence, and witness reports from the sampled evolution.
"""

from .errors import (EmptyTrajectory, EntwitnessError, NoConvergence,
                     NotDensityMatrix, NotHermitian, NotXState, ParseError,
                     QuadratureUnconverged, ValidationError)
from .linalg import hermitian_eigenvalues, matrix_entropy
from .dynamics import (ReservoirParams, SystemState, Trajectory,
                       bell_initial, correlation_f, correlation_f_quadrature,
                       propagate)
from .information import (SX_BASIS, SY_BASIS, MeasurementBasis,
                          UncertaintyRecord, partial_trace,
                          post_measurement_state, uncertainty_record)
from .witness import (WitnessReport, concurrence, concurrence_x_state,
                      entanglement_death_time, witness_report)
from .scenario import (PRESETS, ScenarioConfig, SweepRow, emit_csv,
                       parse_config, run_scenario, sweep)

__version__ = "0.1.0"

__all__ = [
    "EmptyTrajectory", "EntwitnessError", "NoConvergence",
    "NotDensityMatrix", "NotHermitian", "NotXState", "ParseError",
    "QuadratureUnconverged", "ValidationError",
    "hermitian_eigenvalues", "matrix_entropy",
    "ReservoirParams", "SystemState", "Trajectory",
    "bell_initial", "correlation_f", "correlation_f_quadrature", "propagate",
    "SX_BASIS", "SY_BASIS", "MeasurementBasis", "UncertaintyRecord",
    "partial_trace", "post_measurement_state",
    "uncertainty_record",
    "WitnessReport", "concurrence", "concurrence_x_state",
    "entanglement_death_time", "witness_report",
    "PRESETS", "ScenarioConfig", "SweepRow", "emit_csv", "parse_config",
    "run_scenario", "sweep",
    "__version__",
]
