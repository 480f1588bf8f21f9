"""Run configuration: a JSON file with unit-suffixed keys binding the
environment, flap, coefficient source, excitation transfer, PTO, and
integration settings together, plus the shipped reference configuration.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from .dynamics import IntegrationConfig
from .energy import Model, PTOModel
from .errors import InvalidInputError, open_input
from .forcing import ExcitationTransfer, load_transfer_table
from .hydro import (
    AnalyticCoefficientSource,
    Environment,
    FlapProperties,
    load_coefficient_table,
)

# Reference flap: resonant at 9.5 s with total inertia 1e7 kg m^2.
REFERENCE_INERTIA_DRY = 8.0e6  # kg m^2
REFERENCE_ADDED_INERTIA = 2.0e6  # kg m^2
REFERENCE_DAMPING = 1.0e6  # N m s/rad
REFERENCE_STIFFNESS = 4.375e6  # N m/rad
# Kernel gain for the shipped reference. Any alpha > 0 preserves the
# in-phase boost / out-of-phase reduction at short spacing; 0.05 keeps the
# annual-energy spread across the studied distances under 10% (stronger
# gains let the short-distance interaction dominate the annual totals).
REFERENCE_ALPHA = 0.05
REFERENCE_ETA = 0.1
# Gamma such that H = 1.75 m gives a 1.0 MN m front-flap torque amplitude.
REFERENCE_GAMMA = 1.0e6 / (1.75 / 2.0)  # N m per m of wave amplitude
REFERENCE_PTO_DAMPING = 0.5 * REFERENCE_DAMPING


@dataclass(frozen=True)
class RunConfig:
    """A model plus run bookkeeping (output directory, reserved seed)."""

    model: Model
    output_dir: str = "out"
    seed: int = 0


def reference_model(
    alpha: float = REFERENCE_ALPHA,
    eta: float = REFERENCE_ETA,
    integration: IntegrationConfig = IntegrationConfig(),
) -> Model:
    """The shipped self-contained configuration (analytic coupling kernel)."""
    return Model(
        environment=Environment(),
        flap=FlapProperties(REFERENCE_INERTIA_DRY, REFERENCE_STIFFNESS),
        coefficients=AnalyticCoefficientSource(REFERENCE_ADDED_INERTIA, REFERENCE_DAMPING, alpha),
        transfer=ExcitationTransfer.constant(REFERENCE_GAMMA, eta),
        pto=PTOModel(REFERENCE_PTO_DAMPING, included_in_damping=True),
        integration=integration,
    )


def _require(section: dict, key: str, context: str):
    if key not in section:
        raise InvalidInputError(f"config {context}: missing key {key!r}")
    return section[key]


def _integer(section: dict, key: str, default: int, context: str) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise InvalidInputError(f"config {context}: {key} must be an integer, got {value!r}")
    _number(section, key, context, default)  # an integer beyond the float range is rejected
    return int(value)


def _number(section: dict, key: str, context: str, default: float | None = None) -> float:
    """A JSON number (not a boolean or a string); required when there is no default."""
    value = _require(section, key, context) if default is None else section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"config {context}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInputError(f"config {context}: {key} lies beyond the float range") from None


# The keys each section reads; any other key is an error, not ignored
_KEYS = {
    "top level": ("environment", "flap", "coefficients", "transfer", "pto", "integration",
                  "output_dir", "seed"),
    "environment": ("gravity_m_per_s2", "water_depth_m"),
    "flap": ("inertia_dry_kg_m2", "stiffness_Nm_per_rad"),
    "coefficients": ("analytic", "table_csv"),
    "coefficients.analytic": ("added_inertia_kg_m2", "damping_Nm_s_per_rad", "alpha", "eps"),
    "transfer": ("gamma_Nm_per_m", "table_csv", "eta"),
    "pto": ("damping_Nm_s_per_rad", "included_in_damping"),
    "integration": ("steps_per_period", "measure_periods", "max_periods", "convergence_tol"),
}


def _known(section: dict, context: str) -> dict:
    """``section`` itself, once each of its keys is one its parser reads."""
    for key in section:
        if key not in _KEYS[context]:
            raise InvalidInputError(f"config {context}: unknown key {key!r}")
    return section


def _section(data: dict, key: str, context: str = "top level") -> dict:
    value = _require(data, key, context)
    if not isinstance(value, dict):
        raise InvalidInputError(f"config section {key!r} must be an object")
    return _known(value, key if context == "top level" else f"{context}.{key}")


def load_run_config(path) -> RunConfig:
    """Parse and validate a run-configuration JSON file; a key that no
    section reads is an error.

    Referenced files (coefficient table, transfer table) are resolved
    relative to the configuration file's directory and must exist.
    """
    with open_input(path, "config") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal over the digit limit
        raise InvalidInputError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidInputError(f"config file {path} must hold a JSON object")
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        return _parse_run_config(data, base_dir)
    except InvalidInputError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"config file {path}: {exc}") from None


def _parse_run_config(data: dict, base_dir: str) -> RunConfig:
    _known(data, "top level")
    env_s = _section(data, "environment")
    environment = Environment(
        gravity=_number(env_s, "gravity_m_per_s2", "environment", 9.81),
        water_depth=env_s.get("water_depth_m", "deep"),
    )

    flap_s = _section(data, "flap")
    flap = FlapProperties(
        inertia_dry=_number(flap_s, "inertia_dry_kg_m2", "flap"),
        stiffness=_number(flap_s, "stiffness_Nm_per_rad", "flap"),
    )

    coeff_s = _section(data, "coefficients")
    sources = [k for k in ("analytic", "table_csv") if k in coeff_s]
    if len(sources) != 1:
        raise InvalidInputError(
            "config coefficients: exactly one of 'analytic' or 'table_csv' is required, "
            f"found {sources or 'neither'}"
        )
    if sources[0] == "analytic":
        a = _section(coeff_s, "analytic", "coefficients")
        coefficients = AnalyticCoefficientSource(
            added_inertia=_number(a, "added_inertia_kg_m2", "coefficients.analytic"),
            damping=_number(a, "damping_Nm_s_per_rad", "coefficients.analytic"),
            alpha=_number(a, "alpha", "coefficients.analytic"),
            eps=_number(a, "eps", "coefficients.analytic", 0.1),
        )
    else:
        coefficients = load_coefficient_table(
            os.path.join(base_dir, coeff_s["table_csv"]), coeff_s["table_csv"]
        )

    xfer_s = _section(data, "transfer")
    eta = _number(xfer_s, "eta", "transfer", 0.1)
    xfer_sources = [k for k in ("gamma_Nm_per_m", "table_csv") if k in xfer_s]
    if len(xfer_sources) != 1:
        raise InvalidInputError(
            "config transfer: exactly one of 'gamma_Nm_per_m' or 'table_csv' is required, "
            f"found {xfer_sources or 'neither'}"
        )
    if xfer_sources[0] == "gamma_Nm_per_m":
        gamma = _number(xfer_s, "gamma_Nm_per_m", "transfer")
        transfer = ExcitationTransfer.constant(gamma, eta)
    else:
        transfer = load_transfer_table(os.path.join(base_dir, xfer_s["table_csv"]), eta)

    pto_s = _section(data, "pto")
    included = pto_s.get("included_in_damping", True)
    if not isinstance(included, bool):
        raise InvalidInputError(
            f"config pto: included_in_damping must be true or false, got {included!r}"
        )
    pto = PTOModel(
        damping=_number(pto_s, "damping_Nm_s_per_rad", "pto"),
        included_in_damping=included,
    )

    integ_s = _section(data, "integration") if "integration" in data else {}
    integration = IntegrationConfig(
        steps_per_period=_integer(integ_s, "steps_per_period", 200, "integration"),
        measure_periods=_integer(integ_s, "measure_periods", 10, "integration"),
        max_periods=_integer(integ_s, "max_periods", 200, "integration"),
        convergence_tol=_number(integ_s, "convergence_tol", "integration", 1e-4),
    )

    seed = _integer(data, "seed", 0, "top level")
    if seed < 0:
        raise InvalidInputError(f"config top level: seed must be >= 0, got {seed}")
    model = Model(environment, flap, coefficients, transfer, pto, integration)
    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise InvalidInputError(
            f"config top level: output_dir must be a string, got {output_dir!r}"
        )
    return RunConfig(model=model, output_dir=output_dir, seed=seed)


def with_coupling_disabled(model: Model) -> Model:
    """Copy of a model with cross-flap coupling and back-flap shading off."""
    coefficients = model.coefficients
    if isinstance(coefficients, AnalyticCoefficientSource):
        coefficients = replace(coefficients, alpha=0.0)
    else:
        raise InvalidInputError("coupling can only be disabled for the analytic source")
    transfer = replace(model.transfer, eta=0.0)
    return replace(model, coefficients=coefficients, transfer=transfer)
