"""Builders for torque-scenario and regular-wave forcing.

Each builder returns a ``ForcingSpec``: one complex torque phasor
T0 exp(i phi) per flap, the torque being T0 sin(w t + phi), or ``None`` for
a flap held fixed. Torque scenarios drive one or both flaps with prescribed
amplitudes and phase differences (flaps labeled left = index 0, right =
index 1). Wave forcing converts a regular wave into per-flap torques
through a torque-per-wave-amplitude transfer, a back-flap transmission
factor, and a heading-angle model (front = index 0, back = index 1).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ForcingSpec
from .errors import InvalidInputError, read_table
from .hydro import Environment, angular_frequency, solve_dispersion


class Scenario(enum.Enum):
    """Torque-forcing case labels."""

    SINGLE = "single"
    RIGHT_ONLY_LEFT_FIXED = "right-only-left-fixed"
    RIGHT_ONLY_LEFT_FREE = "right-only-left-free"
    IN_PHASE = "in-phase"
    OUT_OF_PHASE = "out-of-phase"
    ARBITRARY_PHASE = "arbitrary-phase"


@dataclass(frozen=True)
class TorqueScenario:
    """One torque-forced case: scenario variant, amplitude, period, spacing."""

    variant: Scenario
    amplitude: float  # N m
    period: float  # s
    distance: float = 0.0  # m, unused for SINGLE

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise InvalidInputError(
                f"torque amplitude must be positive and finite, got {self.amplitude}"
            )
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise InvalidInputError(f"period must be positive and finite, got {self.period}")
        angular_frequency(self.period, "torque period")
        if not math.isfinite(self.distance):
            raise InvalidInputError(f"distance must be finite, got {self.distance}")
        if self.variant is Scenario.ARBITRARY_PHASE and not self.distance > 0.0:
            raise InvalidInputError("arbitrary-phase scenario needs a positive distance")


def build_torque_scenario(s: TorqueScenario, env: Environment = Environment()) -> ForcingSpec:
    """ForcingSpec for one of the torque-forcing cases, as torque phasors.

    The left flap, when forced, has phasor T0. The out-of-phase right flap
    has exactly -T0, so its flaps are exact mirror images; the
    arbitrary-phase case lags the right flap by the travel phase
    2*pi*d/lambda of a wave covering the separation distance.
    """
    omega = 2.0 * math.pi / s.period
    t0 = s.amplitude
    if s.variant is Scenario.SINGLE:
        torques = (t0,)
    elif s.variant is Scenario.RIGHT_ONLY_LEFT_FIXED:
        torques = (None, t0)
    elif s.variant is Scenario.RIGHT_ONLY_LEFT_FREE:
        torques = (0.0, t0)
    elif s.variant is Scenario.IN_PHASE:
        torques = (t0, t0)
    elif s.variant is Scenario.OUT_OF_PHASE:
        torques = (t0, -t0)
    elif s.variant is Scenario.ARBITRARY_PHASE:
        k = solve_dispersion(s.period, env, s.distance)
        torques = (t0, cmath.rect(t0, k * s.distance))
    else:  # pragma: no cover
        raise InvalidInputError(f"unknown scenario {s.variant}")
    return ForcingSpec(omega, torques)


@dataclass(frozen=True)
class WaveCondition:
    """Regular wave: height H (crest-to-trough, m), period (s), heading (deg).

    Heading 0 is normal incidence (wave propagation perpendicular to the
    flap width); 90 degrees would be wave crests parallel to propagation
    past the flap face and produces no excitation, so it is rejected.
    """

    height: float
    period: float
    heading_deg: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.height) and self.height > 0.0):
            raise InvalidInputError(f"wave height must be positive and finite, got {self.height}")
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise InvalidInputError(f"wave period must be positive and finite, got {self.period}")
        angular_frequency(self.period)
        if not 0.0 <= self.heading_deg < 90.0:
            raise InvalidInputError(
                f"heading must be in [0, 90) degrees, got {self.heading_deg}"
            )

    @property
    def amplitude(self) -> float:
        """Wave amplitude H/2 [m]."""
        return 0.5 * self.height


@dataclass(frozen=True)
class ExcitationTransfer:
    """Wave-to-torque transfer: Gamma(T) [N m per m of wave amplitude].

    ``eta`` sets how strongly the front flap shades the back one: the
    back-flap amplitude is scaled by tau = 1 - eta * exp(-d/lambda), so the
    front/back forcing gap eta*exp(-d/lambda) fades with distance. As for
    every pair, d must be positive and finite.
    """

    period_grid: np.ndarray  # s
    gamma: np.ndarray  # N m / m
    eta: float = 0.1

    def __post_init__(self):
        periods = np.atleast_1d(np.asarray(self.period_grid, dtype=float))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if periods.size == 0:
            raise InvalidInputError("transfer table must have at least one period")
        if gamma.shape != periods.shape:
            raise InvalidInputError("transfer table grids and values differ in length")
        for name, values in (("period_grid", periods), ("gamma", gamma)):
            bad = values[~(np.isfinite(values) & (values > 0.0))]
            if bad.size:
                raise InvalidInputError(
                    f"transfer {name} must be positive and finite, got {bad[0]}"
                )
        if periods.size > 1 and np.any(np.diff(periods) <= 0.0):
            raise InvalidInputError("transfer period grid must be strictly increasing")
        if not 0.0 <= self.eta < 1.0:
            raise InvalidInputError(f"transmission strength eta must be in [0, 1), got {self.eta}")
        object.__setattr__(self, "period_grid", periods)
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def constant(cls, gamma: float, eta: float = 0.1) -> "ExcitationTransfer":
        return cls(np.array([1.0]), np.array([gamma]), eta)

    def transmission(self, distance: float, wavelength: float) -> float:
        """Back-flap amplitude factor tau(d) in (0, 1]."""
        if not (math.isfinite(distance) and distance > 0.0):
            raise InvalidInputError(f"distance must be positive and finite, got {distance}")
        return 1.0 - self.eta * math.exp(-distance / wavelength)

    def describe(self) -> dict:
        if self.period_grid.size == 1:
            return {"gamma_Nm_per_m": float(self.gamma[0]), "eta": self.eta}
        return {"gamma_table_points": int(self.period_grid.size), "eta": self.eta}


def transfer_at(xfer: ExcitationTransfer, period: float) -> float:
    """Gamma at the requested period: linear interpolation, clamped at edges."""
    if not period > 0.0:
        raise InvalidInputError(f"period must be positive, got {period}")
    return float(np.interp(period, xfer.period_grid, xfer.gamma))


def load_transfer_table(path, eta: float = 0.1) -> ExcitationTransfer:
    """Load a transfer table CSV: period_s,gamma_Nm_per_m."""
    rows = read_table(path, "transfer table", ["period_s", "gamma_Nm_per_m"])
    periods, gammas = np.array([values for _, values in rows]).T
    order = np.argsort(periods)
    return ExcitationTransfer(periods[order], gammas[order], eta)


def build_wave_forcing(
    wave: WaveCondition,
    distance: float,
    xfer: ExcitationTransfer,
    env: Environment = Environment(),
) -> ForcingSpec:
    """Dual-flap forcing from a regular wave at separation ``distance``.

    Front flap: the real phasor Gamma(T) * (H/2) * cos(beta). Back flap:
    the same amplitude scaled by the transmission factor tau(d), with phase
    -k * d * cos(beta) because the wave arrives later at the back flap and
    the effective separation along propagation is d * cos(beta). A wave
    whose torque overflows the float range is an InvalidInputError.
    """
    if not (math.isfinite(distance) and distance > 0.0):
        raise InvalidInputError(f"distance must be positive and finite, got {distance}")
    omega = 2.0 * math.pi / wave.period
    k = solve_dispersion(wave.period, env, distance)
    lam = 2.0 * math.pi / k
    cos_b = math.cos(math.radians(wave.heading_deg))
    front_amp = transfer_at(xfer, wave.period) * wave.amplitude * cos_b
    tau = xfer.transmission(distance, lam)
    back = cmath.rect(tau * front_amp, -k * distance * cos_b)
    return ForcingSpec(omega, (front_amp, back))


def build_single_wave_forcing(
    wave: WaveCondition, xfer: ExcitationTransfer, env: Environment = Environment()
) -> ForcingSpec:
    """Single-flap forcing from the same wave model (front flap only)."""
    omega = 2.0 * math.pi / wave.period
    cos_b = math.cos(math.radians(wave.heading_deg))
    amp = transfer_at(xfer, wave.period) * wave.amplitude * cos_b
    return ForcingSpec(omega, (amp,))
