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
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, mult: int):
    """SeedSequence's 32-bit hash; each call advances its hash constant."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of two 32-bit pool words."""
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


class _SeededStream:
    """``np.random.default_rng(seed)``'s stream, bit for bit, without importing
    ``numpy.random`` (which loads OpenSSL through ``secrets``): SeedSequence
    mixes the seed's 32-bit words into a 4-word pool, whose 128-bit state and
    increment seed PCG64 (XSL-RR output), and each double is ``(x >> 11) * 2**-53``."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))

        # generate_state(4, uint64): 8 uint32 words, each pair low word first
        generate = _hashmix(0x8B51F9DD, 0x58F38DED)
        state = [generate(pool[i % 4]) for i in range(8)]
        hi0, lo0, hi1, lo1 = (state[i] | state[i + 1] << 32 for i in (0, 2, 4, 6))
        initstate, initseq = hi0 << 64 | lo0, hi1 << 64 | lo1
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = (self._inc + initstate) & _MASK128  # a step from state 0, then + initstate
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128

    def random(self) -> float:
        self._step()
        state = self._state
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        return (x >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: int | None = None):
        """One float, or a list of ``size`` floats, each ``low + (high - low) * u``."""
        if size is None:
            return low + (high - low) * self.random()
        return [self.uniform(low, high) for _ in range(size)]


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


def _random_case(rng: _SeededStream) -> tuple[SystemMatrices, ForcingSpec, dict]:
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
    amps = rng.uniform(1e5, 2e6, size=dof)
    phases = rng.uniform(-math.pi, math.pi, size=dof)
    params.update({"torque_Nm": amps, "phase_rad": phases})
    system = SystemMatrices(inertia, damping, stiffness, coupling)
    forcing = ForcingSpec(omega, tuple(map(cmath.rect, amps, phases)))
    return system, forcing, params


def run_verification(
    n_cases: int = 20, seed: int = 0, *, integration: IntegrationConfig
) -> VerifyOutcome:
    """Check every property on ``n_cases`` randomized systems."""
    rng = _SeededStream(seed)
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
