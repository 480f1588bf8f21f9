"""Independent frequency-domain solution of the flap model.

Built from the model equations in the repository README and the numbers of
a run-configuration JSON file, without calling any ``oswec`` function:

    (-w^2 M + i w C + K) Theta = F,   P = C_pto * w^2 * |Theta|^2 / 2

with deep-water wavenumber k = w^2/g, the analytic coupling kernel
C_lr = -alpha C cos(kd)/sqrt(max(kd, eps)), Ia_lr = -alpha Ia sin(kd)/sqrt(max(kd, eps)),
back-flap shading tau(d) = 1 - eta exp(-d/lambda) and back-flap phase
-k d (normal incidence). Only the configuration the benchmark runs is
supported: deep water, the analytic coefficient source, a constant
transfer and waves at heading 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FlapModel:
    """The numbers of a run configuration that the wave response depends on."""

    gravity: float
    inertia_dry: float
    stiffness: float
    added_inertia: float
    damping: float
    alpha: float
    eps: float
    gamma: float
    eta: float
    pto_damping: float
    pto_included: bool

    @classmethod
    def from_config(cls, cfg: dict) -> "FlapModel":
        env = cfg["environment"]
        if env.get("water_depth_m", "deep") != "deep":
            raise ValueError("the oracle covers deep water only")
        coeffs = cfg["coefficients"]
        transfer = cfg["transfer"]
        if "analytic" not in coeffs or "gamma_Nm_per_m" not in transfer:
            raise ValueError("the oracle covers the analytic kernel and a constant transfer only")
        a = coeffs["analytic"]
        return cls(
            gravity=float(env.get("gravity_m_per_s2", 9.81)),
            inertia_dry=float(cfg["flap"]["inertia_dry_kg_m2"]),
            stiffness=float(cfg["flap"]["stiffness_Nm_per_rad"]),
            added_inertia=float(a["added_inertia_kg_m2"]),
            damping=float(a["damping_Nm_s_per_rad"]),
            alpha=float(a["alpha"]),
            eps=float(a.get("eps", 0.1)),
            gamma=float(transfer["gamma_Nm_per_m"]),
            eta=float(transfer.get("eta", 0.1)),
            pto_damping=float(cfg["pto"]["damping_Nm_s_per_rad"]),
            pto_included=bool(cfg["pto"].get("included_in_damping", True)),
        )

    @property
    def diagonal_damping(self) -> float:
        return self.damping if self.pto_included else self.damping + self.pto_damping

    def wavenumber(self, period: float) -> float:
        omega = 2.0 * math.pi / period
        return omega * omega / self.gravity

    def d_over_lambda(self, distance: float, period: float) -> float:
        return distance * self.wavenumber(period) / (2.0 * math.pi)

    def power(self, omega: float, theta: complex) -> float:
        return 0.5 * self.pto_damping * omega * omega * abs(theta) ** 2


def solve_1dof(mass: float, damping: float, stiffness: float, omega: float, force: complex) -> complex:
    """Steady complex amplitude of M x'' + C x' + K x = Im{F e^{i w t}}."""
    return force / complex(stiffness - omega * omega * mass, omega * damping)


def solve_2dof_symmetric(
    mass: float,
    mass_lr: float,
    damping: float,
    damping_lr: float,
    stiffness: float,
    omega: float,
    forces: tuple[complex, complex],
) -> tuple[complex, complex]:
    """Steady amplitudes of the pair with matrices [[a, b], [b, a]] (Cramer's rule)."""
    a = complex(stiffness - omega * omega * mass, omega * damping)
    b = complex(-omega * omega * mass_lr, omega * damping_lr)
    det = a * a - b * b
    f0, f1 = forces
    return (a * f0 - b * f1) / det, (a * f1 - b * f0) / det


def single_power(model: FlapModel, height: float, period: float) -> float:
    """Mean PTO power [W] of an isolated flap in a regular wave at normal incidence."""
    omega = 2.0 * math.pi / period
    force = model.gamma * 0.5 * height
    theta = solve_1dof(
        model.inertia_dry + model.added_inertia,
        model.diagonal_damping,
        model.stiffness,
        omega,
        force,
    )
    return model.power(omega, theta)


def dual_power(model: FlapModel, height: float, period: float, distance: float) -> tuple[float, float]:
    """Mean PTO power [W] of the front and back flap of a pair at normal incidence."""
    omega = 2.0 * math.pi / period
    k = model.wavenumber(period)
    wavelength = 2.0 * math.pi / k
    kd = k * distance
    scale = model.alpha / math.sqrt(max(kd, model.eps))
    front = model.gamma * 0.5 * height
    tau = 1.0 - model.eta * math.exp(-distance / wavelength)
    back = tau * front * cmath.exp(-1j * kd)
    theta_front, theta_back = solve_2dof_symmetric(
        mass=model.inertia_dry + model.added_inertia,
        mass_lr=-scale * model.added_inertia * math.sin(kd),
        damping=model.diagonal_damping,
        damping_lr=-scale * model.damping * math.cos(kd),
        stiffness=model.stiffness,
        omega=omega,
        forces=(front, back),
    )
    return model.power(omega, theta_front), model.power(omega, theta_back)
