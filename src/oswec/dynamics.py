"""Equations of motion: the system, time integration, and frequency-domain oracle.

The dual-flap system is

    (diag(I, I) + [[Ia, Ia_lr], [Ia_lr, Ia]]) theta'' +
    [[C, C_lr], [C_lr, C]] theta' + diag(k, k) theta = Im(P exp(i w t))

per flap, with P = T0 exp(i phi) its complex torque phasor: the torque is
T0 sin(w t + phi). The single-flap case drops the coupling terms.
A pair is mirror-symmetric by construction: ``SystemMatrices`` holds one
flap's inertia, damping and stiffness and the pair's two coupling values,
all as given; ``oswec.energy.Model.system_for`` builds them from a flap,
its coefficient source and its PTO.
So a pair is two independent oscillators, its in-phase and out-of-phase
modes. Time integration steps the modes with fixed-step classical RK4 run
to harmonic steady state. The system is linear and time-invariant and its
forcing repeats exactly every ``steps_per_period`` steps, so one RK4 step
is the affine map y <- P y + Im(Q exp(i w t)). Carrying the forcing as a
rotating pair (cos w t, sin w t) in the state makes it one real linear
map, whose powers give every sample of a forcing period as an affine map
of its start state. The one-period map fixes in closed form the period by
which the transient has decayed (``settle_cycle``), so the run's length is
known before it starts, and one array product writes every sample into
the record (the same samples as stepping, up to rounding).
``freq_domain_solve`` solves the physical system with a harmonic ansatz and
serves as an independent oracle for the integrator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, NumericalError


@dataclass(frozen=True)
class SystemMatrices:
    """One flap's total inertia, damping and stiffness, and for a pair the
    (inertia, damping) coupling its two identical flaps; ``None`` for one
    flap. A pair is mirror-symmetric by construction."""

    inertia: float  # kg m^2
    damping: float  # N m s/rad
    stiffness: float  # N m/rad
    coupling: tuple[float, float] | None = None  # (kg m^2, N m s/rad)

    def __post_init__(self):
        # Python floats, so the modes' step maps are built in Python arithmetic
        coupling = self.coupling or ()
        values = [float(x) for x in (self.inertia, self.damping, self.stiffness, *coupling)]
        if not all(map(math.isfinite, values)):
            raise InvalidInputError(f"system values must be finite, got {values}")
        for name, value in zip(("inertia", "damping", "stiffness"), values):
            object.__setattr__(self, name, value)
        if self.coupling is not None:
            object.__setattr__(self, "coupling", tuple(values[3:]))
        modal = [inertia for inertia, _ in self.modes()]
        if not all(x > 0.0 for x in modal):
            raise InvalidInputError(
                f"inertia must be positive-definite, got modal inertias {modal}"
            )
        if self.damping <= 0.0:
            raise InvalidInputError("diagonal damping must be positive")

    @property
    def dof(self) -> int:
        return 1 if self.coupling is None else 2

    def modes(self) -> list[tuple[float, float]]:
        """(inertia, damping) of each mode: a pair's in-phase (sum) and
        out-of-phase (difference) modes, or the lone flap itself."""
        if self.coupling is None:
            return [(self.inertia, self.damping)]
        ci, cd = self.coupling
        return [(self.inertia + ci, self.damping + cd), (self.inertia - ci, self.damping - cd)]

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (n, n) inertia and damping and (n,) stiffness in the flaps'
        own coordinates."""
        m, c = self.inertia, self.damping
        if self.coupling is None:
            return np.array([[m]]), np.array([[c]]), np.array([self.stiffness])
        ci, cd = self.coupling
        return (
            np.array([[m, ci], [ci, m]]), np.array([[c, cd], [cd, c]]), np.full(2, self.stiffness)
        )


@dataclass(frozen=True)
class ForcingSpec:
    """Shared angular frequency plus one complex torque phasor per flap.

    The phasor T0 exp(i phi) drives its flap with Im(T0 exp(i phi) exp(i w t))
    = T0 sin(w t + phi); ``None`` holds the flap fixed. At least one flap
    is free.
    """

    omega: float  # rad/s
    torques: tuple[complex | None, ...]  # N m

    def __post_init__(self):
        if not self.omega > 0.0:
            raise InvalidInputError(f"angular frequency must be positive, got {self.omega}")
        if len(self.torques) not in (1, 2):
            raise InvalidInputError(f"expected 1 or 2 flaps, got {len(self.torques)}")
        for i, t in enumerate(self.torques):
            if t is not None and not cmath.isfinite(t):
                raise InvalidInputError(f"torque phasor of flap {i} is not finite: {t}")
        torques = tuple(None if t is None else complex(t) for t in self.torques)
        if all(t is None for t in torques):
            raise InvalidInputError("a forcing needs at least one free flap")
        object.__setattr__(self, "torques", torques)

    @property
    def dof(self) -> int:
        return len(self.torques)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def free_indices(self) -> list[int]:
        return [i for i, t in enumerate(self.torques) if t is not None]

    def scaled(self, factor: float) -> "ForcingSpec":
        return ForcingSpec(self.omega, [None if t is None else t * factor for t in self.torques])


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step RK4 settings and the steady-state rule: a run is steady
    from the first cycle at which each mode's transient is at most
    convergence_tol of its steady orbit (``settle_cycle``)."""

    steps_per_period: int = 200
    measure_periods: int = 10
    max_periods: int = 200
    convergence_tol: float = 1e-4

    def __post_init__(self):
        # below 3 steps per period the harmonic fit aliases the forcing, and
        # it needs a measure window of at least 3 periods
        lows = {"steps_per_period": 3, "measure_periods": 3}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise InvalidInputError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 < self.convergence_tol < math.inf:
            raise InvalidInputError(
                f"convergence_tol must be positive and finite, got {self.convergence_tol}"
            )
        if self.max_periods <= self.measure_periods:
            raise InvalidInputError("max_periods must exceed measure_periods")


@dataclass(frozen=True)
class ResponseRecord:
    """Uniformly sampled rotation/velocity series for every flap.

    A fixed flap's columns are identically zero. ``steady`` is False when
    no settle cycle leaves room for the measure window within max_periods.
    ``window`` is the sample slice of the final measure periods, the one
    every steady-state reduction averages over; ``integrate`` runs more
    than measure_periods cycles, so the window lies inside the record.
    """

    time: np.ndarray  # (S,) s
    rotation: np.ndarray  # (S, n) rad
    velocity: np.ndarray  # (S, n) rad/s
    omega: float  # rad/s
    steady: bool
    cycles: int
    window: slice

    @property
    def dof(self) -> int:
        return self.rotation.shape[1]

    def measured(self, series: np.ndarray) -> np.ndarray:
        """``series`` (time along axis 0) over the measure window."""
        return series[self.window]


def _free_model(system: SystemMatrices, forcing: ForcingSpec) -> tuple:
    """The free flap indices, the system of the free flaps and their torque
    phasors. A pair with one flap fixed leaves that flap's own system."""
    if forcing.dof != system.dof:
        raise InvalidInputError(
            f"forcing has {forcing.dof} flaps but the system has {system.dof} degrees of freedom"
        )
    free = forcing.free_indices()
    if len(free) < system.dof:
        system = replace(system, coupling=None)
    return free, system, [forcing.torques[i] for i in free]


def _rk4_mode(h: float, a: float, b: float, g: complex, z: complex) -> tuple:
    """One classical RK4 step of size h of the mode x'' + b x' + a x =
    Im(g exp(i w t)), z = exp(i w h / 2): the rows of its step matrix, RK4's
    stability polynomial I + hA(I + hA/2(I + hA/3(I + hA/4))) with
    A = [[0, 1], [-a, -b]], and the forcing part q of its stages as
    (rotation, velocity), so the step from t is y <- step @ y + Im(q exp(i w t))."""
    e, f = -h * a, -h * b  # hA = [[0, h], [e, f]]
    p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
    for s in (4.0, 3.0, 2.0, 1.0):  # P <- I + (hA / s) @ P
        hs, es, fs = h / s, e / s, f / s
        p00, p01, p10, p11 = (
            1.0 + hs * p10, hs * p11, es * p00 + fs * p10, 1.0 + es * p01 + fs * p11
        )
    # the stages (x, v) of y' = A y + (0, g exp(i w t)) at 0, h/2, h/2 and h
    x2, v2 = 0.5 * h * g, 0.5 * h * (-b * g) + g * z
    x3, v3 = 0.5 * h * v2, 0.5 * h * (-a * x2 - b * v2) + g * z
    x4, v4 = h * v3, h * (-a * x3 - b * v3) + g * (z * z)
    q = (h / 6.0) * (2.0 * x2 + 2.0 * x3 + x4), (h / 6.0) * (g + 2.0 * v2 + 2.0 * v3 + v4)
    return ((p00, p01), (p10, p11)), q


def _mode_maps(cycle: np.ndarray) -> list[tuple]:
    """Each mode's (a, b, c, e, s, t), P^N = [[a, b], [c, e]] and S_N = (s, t),
    in Python floats from the modes' [P^N | S_N] (mode i in rows i and
    nf + i); a lone flap's second mode is the zero map, which stays at rest."""
    nf = cycle.shape[0] // 2
    rows = enumerate(zip(cycle[:nf].tolist(), cycle[nf:].tolist()))
    maps = [(x[i], x[nf + i], v[i], v[nf + i], x[-1], v[-1]) for i, (x, v) in rows]
    return maps + [(0.0,) * 6] * (2 - nf)


def settle_cycle(cycle: np.ndarray, omega: float, cfg: IntegrationConfig) -> int | None:
    """The first cycle c >= 1 at whose start a run from rest has settled,
    or None when no c <= max_periods - measure_periods has.

    ``cycle`` is the modes' one-cycle map [P^N | S_N] as ``integrate``
    builds it. A mode's periodic start state is y* = (I - P^N)^-1 S_N, and
    the transient left at the start of cycle c is -(P^N)^c y*. The run has
    settled when every mode's transient is at most convergence_tol of its
    y* in the norm sqrt(w^2 x^2 + v^2), which is constant on a harmonic
    orbit. None also when I - P^N is singular or y* is not finite.
    """
    # each mode's P^N in the coordinates (w x, v), and y* / |y*| there
    modes = []
    for a, b, c, e, s, t in _mode_maps(cycle):
        det = (1.0 - a) * (1.0 - e) - b * c
        if not (det != 0.0 and math.isfinite(det)):
            return None
        u, v = omega * ((1.0 - e) * s + b * t) / det, (c * s + (1.0 - a) * t) / det
        norm = math.hypot(u, v)
        if not norm < math.inf:
            return None
        modes.append((a, b * omega, c / omega, e, u / norm, v / norm) if norm else (0.0,) * 6)
    (a, b, c, e, u, v), (f, g, h, k, p, q) = modes
    tol = cfg.convergence_tol
    for cycles in range(1, cfg.max_periods - cfg.measure_periods + 1):
        u, v, p, q = a * u + b * v, c * u + e * v, f * p + g * q, h * p + k * q
        r, s = math.hypot(u, v), math.hypot(p, q)
        if r <= tol and s <= tol:
            return cycles
        if not r + s < math.inf:  # a transient past the float range never settles
            return None
    return None


def integrate(
    system: SystemMatrices, forcing: ForcingSpec, cfg: IntegrationConfig = IntegrationConfig()
) -> ResponseRecord:
    """Integrate to harmonic steady state with fixed-step classical RK4.

    dt = (2*pi/omega)/steps_per_period, zero initial conditions. With c
    the ``settle_cycle``, the run is c + measure_periods cycles, flagged
    steady; without one it is max_periods cycles, flagged steady=False.
    With one flap of a pair fixed, the free flap's own system (no
    coupling) is integrated and the fixed flap is a zero series.

    The free flaps are stepped as their modes (``SystemMatrices.modes``)
    and mapped back to the flaps, so flaps forced alike are identical.
    Sample j of the cycle that starts from y_c is P^j @ y_c + S_j, with P^j
    the j-th power of RK4's step and S_j the cycle from rest; one array
    product of all start states (y_c, 1) against the stacked [P^j | S_j]
    writes the record, step-by-step RK4's samples up to rounding.

    Raises NumericalError naming the first offending step when a cycle
    holds a non-finite state. A state whose square overflows counts as
    non-finite, and so does a cycle whose rotation RMS overflows.
    """
    free, free_system, phasor = _free_model(system, forcing)
    omega = forcing.omega
    steps = cfg.steps_per_period
    dt = (2.0 * math.pi / omega) / steps

    # The state is y = (rotations, velocities) of the modes, mode i in rows
    # i and nf + i. The forcing phase rides in it too: with x = (y, cos w t,
    # sin w t) a step is the real linear map phi = [[step, b], [0, rot]], with
    # b = [Im q, Re q] and rot the rotation by w dt, built mode by mode. The
    # top of phi^(j+1) is [P^(j+1) | S_(j+1)], the samples' map of any cycle
    # that starts at phase 0; the powers double per pass, in place.
    nf = len(free)
    d = 2 * nf
    phi = [[0.0] * (d + 2) for _ in range(d + 2)]
    cos_h, sin_h = math.cos(omega * dt), math.sin(omega * dt)
    phi[d][d:], phi[d + 1][d:] = [cos_h, -sin_h], [sin_h, cos_h]
    # each mode's inertia, damping and forcing; the modal forcing is (T_l +- T_r)/2
    if nf == 2:
        phasor = [phasor[0] + phasor[1], phasor[0] - phasor[1]]
    z = complex(math.cos(0.5 * omega * dt), math.sin(0.5 * omega * dt))
    for i, ((inertia, damping), force) in enumerate(zip(free_system.modes(), phasor)):
        x, v = i, nf + i
        (px, pv), (qx, qv) = _rk4_mode(
            dt, free_system.stiffness / inertia, damping / inertia, force / inertia / nf, z
        )
        phi[x][x], phi[x][v], phi[x][d], phi[x][d + 1] = *px, qx.imag, qx.real
        phi[v][x], phi[v][v], phi[v][d], phi[v][d + 1] = *pv, qv.imag, qv.real
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.empty((steps, d + 2, d + 2))
        stack[0] = phi
        done = 1
        while done < steps:
            new = slice(done, min(2 * done, steps))
            np.matmul(stack[: new.stop - done], stack[done - 1], out=stack[new])
            done *= 2
        samples_map = stack[:, :d, : d + 1]
        settled = settle_cycle(samples_map[-1], omega, cfg)
        steady = settled is not None
        cycles = settled + cfg.measure_periods if steady else cfg.max_periods

        # Start states advance mode by mode in Python floats and stop before
        # the first that is not finite: the record ends in that state, where
        # the overflow check below finds it. One product of all of them (y, 1)
        # against stacked writes the modal samples, rotations and velocities
        # apart, mode i of step j in column j * nf + i
        (a, b, c, e, s, t), (f, g, h, k, p, q) = _mode_maps(samples_map[-1])
        x = v = y = w = 0.0
        starts = [(x, y, v, w)]
        for _ in range(1, cycles):
            x, v, y, w = a * x + b * v + s, c * x + e * v + t, f * y + g * w + p, h * y + k * w + q
            if not math.isfinite(x + v + y + w):
                break
            starts.append((x, y, v, w))
        cycles = len(starts)
        # (x0, x1, v0, v1), or (x0, v0) for a lone flap, and the offset's 1
        starts = np.column_stack([np.array(starts)[:, :: 3 - nf], np.ones(cycles)])
        stacked = samples_map.reshape(steps, 2, nf, d + 1).swapaxes(0, 1)
        stacked = stacked.reshape(2, steps * nf, d + 1).swapaxes(1, 2)
        total = cycles * steps + 1
        states = np.empty((2, total, nf))
        states[:, 0] = 0.0
        np.matmul(starts, stacked, out=states[:, 1:].reshape(2, cycles, -1))
        if nf == 2:  # the modes become the flaps in place
            difference = states[:, :, 0] - states[:, :, 1]
            states[:, :, 0] += states[:, :, 1]
            states[:, :, 1] = difference

        # While peak^2 * 2 steps is finite no square and no cycle's sum of
        # squares overflows (the 2 leaves room for rounding); past it, name
        # the first sample whose square is not finite, or the last step of a
        # cycle whose rotation RMS is not
        peak = max(-states.min(), states.max())
        if not peak * peak * (2 * steps) < math.inf:
            squares = states[:, 1:].reshape(2, cycles, steps, nf) ** 2
            good = np.isfinite(squares).all(axis=(0, 3))
            good[:, -1] &= np.isfinite(squares[0].sum(axis=1)).all(axis=1)
            if not good.all():
                bad = int(np.argmin(good)) + 1
                raise NumericalError(
                    f"state became non-finite at step {bad} (t={bad * dt:.3f} s); "
                    "the system is unstable (negative effective damping) or its "
                    "forcing is beyond the float range"
                )

    time = np.arange(total) * dt
    if nf < system.dof:  # the fixed flap's columns stay zero
        flaps = np.zeros((2, total, system.dof))
        flaps[:, :, free[0]] = states[:, :, 0]
        states = flaps
    rotation, velocity = states
    window = slice(total - cfg.measure_periods * steps, total)
    return ResponseRecord(time, rotation, velocity, omega, steady, cycles, window)


def freq_domain_solve(system: SystemMatrices, forcing: ForcingSpec) -> np.ndarray:
    """Steady-state complex rotation amplitudes from the harmonic ansatz.

    With theta(t) = Im{Theta exp(i w t)} and each flap forced by
    Im{P exp(i w t)}, P its torque phasor, the system reduces to

        (-w^2 M + i w C + K) Theta = P

    solved in the flaps' own coordinates (``SystemMatrices.matrices``), not
    the modes ``integrate`` steps. With one flap of a pair fixed, the solve
    is that of the free flap's own system; the fixed flap's returned
    amplitude is 0. The magnitude of each entry is the rotation amplitude
    and its argument the phase in the same sine convention as the
    integrator.
    """
    free, free_system, f = _free_model(system, forcing)
    m, c, k = free_system.matrices()
    omega = forcing.omega
    z = -(omega**2) * m + 1j * omega * c + np.diag(k)
    try:
        sol = np.linalg.solve(z, f)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"harmonic system matrix is singular: {exc}") from None
    if not np.isfinite(sol).all():
        raise NumericalError("harmonic solve produced non-finite amplitudes")
    theta = np.zeros(system.dof, dtype=complex)
    theta[free] = sol
    return theta


def _window_sums(time: np.ndarray, series: np.ndarray, omega: float) -> tuple:
    """Sums of series * sin(w t) and series * cos(w t) over a window of whole
    periods, column by column, as two (n,) arrays, with the window's length.

    The window is folded into one period (its samples summed over the
    periods) and projected on one period's sin/cos table. It must span at
    least three periods of at least three samples, on a grid with a whole
    number of samples per period and a whole number of periods, or
    InvalidInputError is raised.
    """
    t = np.asarray(time, dtype=float)
    y = np.asarray(series, dtype=float)
    size = t.size
    if size != y.shape[0]:
        raise InvalidInputError("time and series differ in length")
    if size < 4:
        raise InvalidInputError(f"window of {size} samples is too short to fit")
    dt = (t[-1] - t[0]) / (size - 1)
    span = size * dt
    min_span = 3.0 * (2.0 * math.pi / omega)
    if span < min_span * (1.0 - 1e-9):
        raise InvalidInputError(
            f"fit window spans {span:.4g} s but at least 3 periods ({min_span:.4g} s) are required"
        )
    per_period = 2.0 * math.pi / (omega * dt)
    if per_period < 3.0 * (1.0 - 1e-9):
        raise InvalidInputError(
            f"fit window holds {per_period:.4g} samples per period but at least 3 are required"
        )
    n = round(per_period)
    if abs(per_period - n) > 1e-9 * n or size % n:
        raise InvalidInputError(
            f"fit window of {size} samples at {per_period:.6g} samples per period is "
            "not a whole number of periods of a whole number of samples"
        )
    # column by column, so that a column sums as the same 1-D series would
    folded = y.reshape(size // n, n, -1).sum(axis=0)
    table = np.array([np.sin(omega * t[:n]), np.cos(omega * t[:n])])
    sums = np.array([table @ column for column in np.ascontiguousarray(folded.T)])
    return size, sums[:, 0], sums[:, 1]


def harmonic_fit(
    time: np.ndarray, series: np.ndarray, omega: float
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Least-squares amplitude and phase of a harmonic at frequency omega.

    Fits A*sin(w t) + B*cos(w t) over the whole series and returns
    (sqrt(A^2+B^2), atan2(B, A)); the fitted signal is
    amplitude*sin(w t + phase) with phase in (-pi, pi]. The series must
    hold whole periods, at least three, sampled a whole number of times per
    period, at least three, or InvalidInputError is raised. On such a window
    sin and cos are orthogonal, each with squared norm half the sample
    count, so A and B are the window's sin and cos sums scaled by 2/S. A
    1-D series gives two floats; an (S, n) series is fitted column by
    column and gives two (n,) arrays.
    """
    size, sy, cy = _window_sums(time, series, omega)
    a, b = sy * (2.0 / size), cy * (2.0 / size)
    amplitude = np.hypot(a, b)
    phase = np.arctan2(b, a)
    phase = np.where(phase <= -math.pi, phase + 2.0 * math.pi, phase)
    if np.ndim(series) == 1:
        return float(amplitude[0]), float(phase[0])
    return amplitude, phase


@dataclass(frozen=True)
class ResponseMetrics:
    """Per-flap steady-state statistics over the measurement window."""

    rms_rotation: np.ndarray  # (n,) rad
    amplitude: np.ndarray  # (n,) rad
    phase: np.ndarray  # (n,) rad in (-pi, pi]
    steady: bool
    cycles_used: int

    @property
    def dof(self) -> int:
        return self.rms_rotation.size


def response_metrics(record: ResponseRecord) -> ResponseMetrics:
    """RMS, amplitude, and phase per flap over the record's measure window."""
    t = record.measured(record.time)
    rot = record.measured(record.rotation)
    rms = np.sqrt(np.einsum("ij,ij->j", rot, rot) / rot.shape[0])
    amplitude, phase = harmonic_fit(t, rot, record.omega)
    return ResponseMetrics(rms, amplitude, phase, record.steady, record.cycles)


def wrap_phase(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(phi, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def phase_distance(a: float, b: float) -> float:
    """Smallest absolute difference between two angles."""
    return abs(wrap_phase(a - b))


def input_power(record: ResponseRecord, forcing: ForcingSpec) -> float:
    """Mean power fed in by the forcing over the record's measure window [W]:
    the mean of Im(P exp(i w t)) v per flap, P its torque phasor, which is
    (Re P S_v + Im P C_v) / size from the window's sin and cos sums of the
    velocity. A fixed flap counts as a torque of 0."""
    size, sv, cv = _window_sums(
        record.measured(record.time), record.measured(record.velocity), forcing.omega
    )
    torques = np.array([0.0 if t is None else t for t in forcing.torques])
    return float((torques.real @ sv + torques.imag @ cv) / size)


def dissipated_power(record: ResponseRecord, system: SystemMatrices) -> float:
    """Mean power removed by the damping matrix over the record's measure window [W]."""
    v = record.measured(record.velocity)
    return float(np.mean(np.sum((v @ system.matrices()[1]) * v, axis=1)))
