"""Simulation and estimation toolkit for a periodically driven two-level sensor."""

from .params import (
    FloquetDriveParams,
    ReadoutModel,
    SignalParams,
    angular_to_mhz,
    mhz_to_angular,
)
from .hamiltonian import (
    HamiltonianSpec,
    PauliTerm,
    build_fds_prime,
    kick_operator,
    quasi_energy_shift,
)
from .propagator import (
    PropagationError,
    PropagatorOptions,
    evolve,
    expectation,
    micromotion_error,
)
from .metrology import (
    QfiEstimate,
    optimal_sensing_time,
    qfi_exact,
    sensitivity,
    theta_phi_from_expectations,
)
from .measurement import (
    MonteCarloConfig,
    qfi_pipeline,
    read_out,
)
from .experiments import (
    DdConfig,
    DecayFit,
    NoiseModel,
    PRESET_NAMES,
    Scenario,
    calibrate_noise,
    make_preset,
    run_dd_experiment,
    run_qfi_scaling,
    run_robustness_sweep,
)

__version__ = "0.1.0"
