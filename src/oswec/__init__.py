"""Simulator for single- and dual-flap oscillating-surge wave energy converters."""

from .config import (
    RunConfig,
    load_run_config,
    reference_model,
    with_coupling_disabled,
)
from .dynamics import (
    ForcingSpec,
    IntegrationConfig,
    ResponseMetrics,
    ResponseRecord,
    SystemMatrices,
    freq_domain_solve,
    harmonic_fit,
    integrate,
    response_metrics,
)
from .energy import (
    CaseResult,
    Design,
    JPD,
    Model,
    PowerMatrix,
    PTOModel,
    annual_energy,
    compute_power_matrix,
    load_jpd,
    mean_power,
    run_torque_case,
    run_wave_case,
)
from .errors import InvalidInputError, NumericalError
from .forcing import (
    ExcitationTransfer,
    Scenario,
    TorqueScenario,
    WaveCondition,
    build_single_wave_forcing,
    build_torque_scenario,
    build_wave_forcing,
    load_transfer_table,
    transfer_at,
)
from .hydro import (
    AnalyticCoefficientSource,
    Environment,
    FlapProperties,
    TableCoefficientSource,
    analytic_coupling,
    load_coefficient_table,
    solve_dispersion,
    wavelength,
    wavelength_deep,
)
from .sweep import SweepPlan, SweepReport, run_heading_study, run_torque_study, run_wave_study
from .verify import run_verification

__version__ = "0.1.0"
