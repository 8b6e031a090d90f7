"""Stochastic simulator and statistics pipeline for quasiparticle-driven
quantum jumps of a dispersively read-out two-level qubit."""

# pyproject.toml's [project] version; set before the submodules, as
# io.TOOL_VERSION reads it on import
__version__ = "0.1.0"

from .core import (
    ConfigError,
    MeasurementParams,
    Modulation,
    PeriodicPulses,
    Pulse,
    QubitParams,
    ScenarioConfig,
    ThermalParams,
    junction_power,
    polarization_to_temperature,
    serialize_config,
    temperature_to_polarization,
    validate_config,
)
from .kinetics import (
    QpKineticsParams,
    evolve_ode,
    exponential_relaxation,
    relaxation_time,
    steady_state,
)
from .jumpsim import (
    IQRecord,
    TruthTrace,
    qp_generation_rate,
    relaxation_rate,
    simulate_joint,
    simulate_layers,
    snr_separation,
    synthesize_iq,
    thermal_decay_constant,
    thermal_transient,
)
from .analysis import (
    DwellHistogram,
    StateEstimate,
    cross_correlation,
    extract_dwells,
    fidelity,
    log_histogram,
    poisson_prediction,
    polarization,
    split_windows,
    two_point_filter,
    windowed_report,
)
from .fitting import (
    PsdFit,
    RecoveryFit,
    ThermalFit,
    fit_power_law,
    fit_recovery,
    fit_thermal,
    periodogram,
)

__all__ = [name for name in dir() if not name.startswith("_")]
