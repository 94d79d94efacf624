"""Two-level Landau-Zener-Stuckelberg interferometry simulator.

Two independent propagation routes for a triangle-wave frequency-modulated
qubit drive: dense Schrodinger integration and the adiabatic-impulse
(transfer-matrix) model, cross-validating each other, plus trajectory
analysis and canned experiment presets.
"""

__version__ = "0.1.0"

from .analysis import (
    AdiabaticMask,
    FitResult,
    StepEvent,
    detect_steps,
    rabi_frequency,
    ramsey_fit,
    to_adiabatic,
    to_diabatic,
)
from .errors import (
    ConfigError,
    DegenerateDriveError,
    FitFailureError,
    IntegrationError,
    ModelAccuracyWarning,
    NoOscillationError,
)
from .model import (
    Basis,
    DriveParameters,
    QubitState,
    angular_to_mhz,
    crossing_times,
    epsilon_at,
    mhz_to_angular,
    sweep_rate,
)
from .propagator import (
    IntegratorConfig,
    Trajectory,
    evolve,
    evolve_ensemble_dephased,
    passage_transfers,
)
from .transfer_matrix import (
    PeriodRotation,
    ResonanceScan,
    free_phase,
    lz_probability,
    resonance_scan,
    single_period_rotation,
    stokes_phase,
    stroboscopic_evolve,
)
from .experiments import (
    ExperimentResult,
    LZSweepResult,
    NoiseSpec,
    ScenarioSpec,
    run_figure,
    run_lz_probability_sweep,
    run_scenario,
)
