"""Built-in oracle suite: randomized well-posed systems checked for
time-domain vs frequency-domain agreement, energy balance, and linearity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ForcingSpec,
    IntegrationConfig,
    SystemMatrices,
    dissipated_power,
    freq_domain_solve,
    input_power,
    integrate,
    phase_distance,
    response_metrics,
)

AMPLITUDE_TOL = 0.01  # relative
PHASE_TOL = 0.02  # rad
ENERGY_TOL = 0.01  # relative
LINEARITY_TOL = 1e-6  # relative
_TINY_AMPLITUDE = 1e-12  # rad; below this a fitted phase is meaningless
PROPERTIES = ("oracle-amplitude", "oracle-phase", "energy-balance", "linearity")


@dataclass(frozen=True)
class VerifyOutcome:
    """Each case's parameters and failure lines, in case order. A line starts
    with the property it breaks: one per flap, or one per case for the energy balance."""

    cases: list[tuple[dict, list[str]]]

    @property
    def passed(self) -> bool:
        return not any(failures for _, failures in self.cases)

    @property
    def property_failures(self) -> dict[str, int]:
        """Failure lines per property, in ``PROPERTIES`` order."""
        return {
            prop: sum(line.startswith(prop) for _, failures in self.cases for line in failures)
            for prop in PROPERTIES
        }


def _random_case(rng: np.random.Generator) -> tuple[SystemMatrices, ForcingSpec, dict]:
    dof = 1 if rng.random() < 0.5 else 2
    inertia = 10.0 ** rng.uniform(6.0, 7.3)
    omega_n = rng.uniform(0.4, 1.2)
    stiffness = inertia * omega_n**2
    zeta = rng.uniform(0.02, 1.0)
    damping = 2.0 * zeta * inertia * omega_n
    omega = rng.uniform(0.5, 2.0) * omega_n
    params = {
        "dof": dof,
        "inertia_kg_m2": inertia,
        "stiffness_Nm_per_rad": stiffness,
        "damping_Nm_s_per_rad": damping,
        "damping_ratio": zeta,
        "omega_rad_s": omega,
    }
    coupling = None
    if dof == 2:
        coupling = rng.uniform(-0.4, 0.4) * inertia, rng.uniform(-0.7, 0.7) * damping
        params["coupling_inertia_kg_m2"], params["coupling_damping_Nm_s_per_rad"] = coupling
    amps = rng.uniform(1e5, 2e6, size=dof).tolist()
    phases = rng.uniform(-math.pi, math.pi, size=dof).tolist()
    params.update({"torque_Nm": amps, "phase_rad": phases})
    system = SystemMatrices(inertia, damping, stiffness, coupling)
    forcing = ForcingSpec(omega, tuple(map(cmath.rect, amps, phases)))
    return system, forcing, params


def run_verification(
    n_cases: int = 20, seed: int = 0, *, integration: IntegrationConfig
) -> VerifyOutcome:
    """Check every property on ``n_cases`` randomized systems."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        system, forcing, params = _random_case(rng)
        failures = []
        record = integrate(system, forcing, integration)
        metrics = response_metrics(record)
        theta = freq_domain_solve(system, forcing)

        for i in range(system.dof):
            expected_amp = abs(theta[i])
            got_amp = metrics.amplitude[i]
            denom = max(expected_amp, _TINY_AMPLITUDE)
            if abs(got_amp - expected_amp) / denom > AMPLITUDE_TOL:
                failures.append(
                    f"oracle-amplitude flap {i}: time-domain {got_amp:.6e} vs "
                    f"frequency-domain {expected_amp:.6e}"
                )
            if expected_amp > _TINY_AMPLITUDE:
                dphi = phase_distance(metrics.phase[i], np.angle(theta[i]))
                if dphi > PHASE_TOL:
                    failures.append(
                        f"oracle-phase flap {i}: time-domain {metrics.phase[i]:.4f} vs "
                        f"frequency-domain {float(np.angle(theta[i])):.4f} (gap {dphi:.4f} rad)"
                    )

        p_in = input_power(record, forcing)
        p_out = dissipated_power(record, system)
        del record  # its metrics and powers are taken: free it before the next integrate
        denom = max(abs(p_in), abs(p_out), 1e-12)
        if abs(p_in - p_out) / denom > ENERGY_TOL:
            failures.append(
                f"energy-balance: input {p_in:.6e} W vs dissipated {p_out:.6e} W"
            )

        scaled = integrate(system, forcing.scaled(2.0), integration)
        scaled_metrics = response_metrics(scaled)
        for i in range(system.dof):
            base_amp = metrics.amplitude[i]
            if base_amp <= _TINY_AMPLITUDE:
                continue
            ratio = scaled_metrics.amplitude[i] / base_amp
            if abs(ratio - 2.0) > 2.0 * LINEARITY_TOL:
                failures.append(
                    f"linearity flap {i}: doubling forcing scaled the amplitude by {ratio:.8f}"
                )
        cases.append((params, failures))
    return VerifyOutcome(cases)


def format_report(outcome: VerifyOutcome) -> str:
    """Per-property pass/fail lines followed by any failing case parameters."""
    lines = []
    n = len(outcome.cases)
    for prop in PROPERTIES:
        failing = sum(any(line.startswith(prop) for line in f) for _, f in outcome.cases)
        lines.append(f"{'FAIL' if failing else 'PASS'} {prop}: {n - failing}/{n} cases ok")
    for index, (params, failures) in enumerate(outcome.cases):
        if failures:
            lines.append(f"case {index} FAILED with parameters {params}:")
            lines.extend(f"  - {line}" for line in failures)
    return "\n".join(lines)
