"""Dissipative two-qubit dynamics with an entropic entanglement witness.

Simulates two two-level atoms, each coupled to an independent zero-temperature
reservoir with a Lorentzian spectrum, through a second-order time-local master
equation, and derives the quantum-memory-assisted entropic uncertainty bound,
the Wootters concurrence, and witness reports from the sampled evolution.
"""

from .errors import (EntwitnessError, NoConvergence, NotDensityMatrix, ParseError,
                     QuadratureUnconverged, ValidationError)
from .dynamics import (ReservoirParams, Trajectory, correlation_f,
                       correlation_f_quadrature, excited_population)
from .information import minimum_uncertainty, uncertainty_columns
from .witness import WitnessReport, concurrence
from .scenario import (PRESETS, ScenarioConfig, SweepRows, emit_csv,
                       parse_config, run_scenario, sweep)

__version__ = "0.1.0"

__all__ = [
    "EntwitnessError", "NoConvergence", "NotDensityMatrix", "ParseError",
    "QuadratureUnconverged", "ValidationError",
    "ReservoirParams", "Trajectory", "correlation_f",
    "correlation_f_quadrature", "excited_population",
    "minimum_uncertainty", "uncertainty_columns",
    "WitnessReport", "concurrence",
    "PRESETS", "ScenarioConfig", "SweepRows", "emit_csv", "parse_config",
    "run_scenario", "sweep",
    "__version__",
]
