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
modes. Time integration steps the modes with
fixed-step classical RK4 run to harmonic steady state.
The system is linear and time-invariant and its forcing repeats exactly
every ``steps_per_period`` steps, so one RK4 step is the affine map
y <- P y + Im(Q exp(i w t)). Carrying the forcing as a rotating pair
(cos w t, sin w t) in the state makes it one real linear map, whose powers,
built by one real recurrence per call, give every sample of a forcing
period as an affine map of its start state. A period then costs one 4x4
map of its start state; per block of periods, one array product writes
every sample into the record (the same samples as stepping, up to
rounding), and the convergence test reads each period's RMS from them.
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
    """Fixed-step RK4 settings and steady-state detection thresholds."""

    steps_per_period: int = 200
    ramp_periods: int = 10
    measure_periods: int = 10
    max_periods: int = 200
    convergence_tol: float = 1e-4

    def __post_init__(self):
        # below 3 steps per period the harmonic fit aliases the forcing, and
        # it needs a measure window of at least 3 periods
        lows = {"steps_per_period": 3, "ramp_periods": 1, "measure_periods": 3, "max_periods": 1}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise InvalidInputError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 < self.convergence_tol < math.inf:
            raise InvalidInputError(
                f"convergence_tol must be positive and finite, got {self.convergence_tol}"
            )
        if self.max_periods < self.ramp_periods + self.measure_periods:
            raise InvalidInputError("max_periods must cover ramp plus measure periods")


@dataclass(frozen=True)
class ResponseRecord:
    """Uniformly sampled rotation/velocity series for every flap.

    A fixed flap's columns are identically zero. ``steady`` is False when
    the per-cycle RMS drift never dropped below the configured tolerance.
    ``window`` is the sample slice of the final measure periods, the one
    every steady-state reduction averages over; ``integrate`` runs at least
    ramp plus measure periods, so the window lies inside the record.
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


def integrate(
    system: SystemMatrices, forcing: ForcingSpec, cfg: IntegrationConfig = IntegrationConfig()
) -> ResponseRecord:
    """Integrate to harmonic steady state with fixed-step classical RK4.

    dt = (2*pi/omega)/steps_per_period, zero initial conditions. Runs at
    least ramp_periods + measure_periods full periods, then continues until
    the per-cycle rotation RMS changes by less than convergence_tol
    (relative) for every free flap, or max_periods is reached (in which
    case the record is flagged steady=False). With one flap of a pair
    fixed, the free flap's own system (no coupling) is integrated and the
    fixed flap is reported as a zero series.

    The free flaps are stepped as their modes (``SystemMatrices.modes``)
    and mapped back to the flaps for the test and the record, so flaps
    forced alike are identical. One
    RK4 step is y <- P y + Im(Q exp(i w t)), with P RK4's stability
    polynomial in dt*A; with the forcing phase as a rotating pair
    (cos w t, sin w t) in the state it is one real linear map. Its powers,
    built once per call by a real recurrence that doubles per pass, hold
    P^j and the cycle from rest S_j (j = 1..steps_per_period), so sample j
    of the period that starts from y_c is P^j @ y_c + S_j; every period
    starts at phase 0. A period's own cost is one 4x4 map (plus offset)
    from its start state to the next. The rest costs a few array calls per
    block of periods, ramp_periods + measure_periods first and
    measure_periods after: one array product of the block's start states
    (y_c, 1) against the stacked [P^j | S_j] writes its samples, those of
    step-by-step RK4 up to rounding, straight into the record, and each
    period's rotation RMS and finiteness test are taken from those very
    samples before the drift test runs over the block's RMS list.

    Raises NumericalError naming the first offending step when a period
    holds a non-finite state. A state whose square overflows counts as
    non-finite, and so does a period whose rotation RMS overflows, so
    steady=True is only ever reported for a finite RMS.
    """
    n = system.dof
    free, free_system, phasor = _free_model(system, forcing)
    omega = forcing.omega
    steps = cfg.steps_per_period
    dt = (2.0 * math.pi / omega) / steps
    span = cfg.measure_periods * steps

    # The state is y = (rotations, velocities) of the modes, mode i in rows
    # i and nf + i. The forcing phase rides in it too: with x = (y, cos w t,
    # sin w t) a step is the real linear map phi = [[step, b], [0, rot]], with
    # b = [Im q, Re q] and rot the rotation by w dt, built mode by mode into
    # phi's rows. The forcing repeats every `steps` steps, so the samples of
    # any cycle starting from y at phase 0 are powers @ y + zero_state, where
    # [powers[j] | zero_state[j]] is the top of phi^(j+1): step^(j+1) and the
    # cycle that starts from rest. The powers of phi double per pass, in
    # place, one real product each.
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

        # A cycle is then a function of its start state u = (y, 1): the next
        # start state is cycle_map @ u, and one product of u against stacked
        # gives its modal samples, rotations and velocities apart: column
        # j * nf + i holds mode i at step j. Every cycle restarts at phase 0,
        # so the phase never drifts across cycles. A one-cycle block goes to
        # BLAS gemv, which rounds apart from the gemm of longer blocks; with
        # stacked the transposed view of a C-contiguous array, a flap that is
        # a rounding-level difference of its modes keeps the stepper's verdict.
        cycle_map = np.eye(d + 1)
        cycle_map[:d] = samples_map[-1]
        stacked = samples_map.reshape(steps, 2, nf, d + 1).swapaxes(0, 1)
        stacked = stacked.reshape(2, steps * nf, d + 1).swapaxes(1, 2)

        # Start states advance one map per cycle; samples and tests take a
        # block of cycles at once. The block's samples go straight into the
        # record, the modes become the flaps in place, and each cycle is
        # judged on those very samples: it is non-finite when any flap state,
        # its square or its rotation RMS is, and raises NumericalError. A
        # finite sum of squares clears every square of its cycle at once. The
        # start states and the record grow by doubling, never to max_periods.
        first = cfg.ramp_periods + cfg.measure_periods
        size = min(first + cfg.measure_periods, cfg.max_periods)
        starts = np.zeros((size + 1, d + 1))
        starts[0, d] = 1.0
        states = np.empty((2, size * steps + 1, nf))
        states[:, 0] = 0.0
        ones = np.ones(steps)
        tol = cfg.convergence_tol
        prev_rms = None
        steady = False
        cycles = 0
        while not steady and cycles < cfg.max_periods:
            end = min(max(cycles + cfg.measure_periods, first), cfg.max_periods)
            if end > size:  # rows are written before read
                size = min(2 * end, cfg.max_periods)
                starts = np.resize(starts, (size + 1, d + 1))
                kept = states[:, : cycles * steps + 1]
                states = np.empty((2, size * steps + 1, nf))
                states[:, : kept.shape[1]] = kept
            for cycle in range(cycles, end):
                np.matmul(cycle_map, starts[cycle], out=starts[cycle + 1])
            block = states[:, 1 + cycles * steps : 1 + end * steps]
            np.matmul(starts[cycles:end], stacked, out=block.reshape(2, end - cycles, -1))
            if nf == 2:
                difference = block[:, :, 0] - block[:, :, 1]
                block[:, :, 0] += block[:, :, 1]
                block[:, :, 1] = difference
            block = block.reshape(2, end - cycles, steps, nf)
            squares = block * block
            sums = ones @ squares  # (rotation or velocity, cycle, flap)
            rms_list = np.sqrt(sums[0] / steps).tolist()
            cleared = np.isfinite(sums).all(axis=(0, 2)).tolist()
            for cycle, cycle_squares, rms, finite in zip(
                range(cycles, end), squares.swapaxes(0, 1), rms_list, cleared
            ):
                if not finite:
                    good = np.isfinite(cycle_squares).all(axis=(0, 2))
                    if not (good.all() and np.isfinite(rms).all()):
                        # first sample whose square overflows; if every square
                        # is finite but their sum is not, the cycle's last step
                        bad = cycle * steps + (
                            int(np.argmin(good)) + 1 if not good.all() else steps
                        )
                        raise NumericalError(
                            f"state became non-finite at step {bad} (t={bad * dt:.3f} s); "
                            "the system is unstable (negative effective damping) or its "
                            "forcing is beyond the float range"
                        )
                cycles = cycle + 1
                if prev_rms is not None and cycles >= first:
                    if all(abs(r - p) <= tol * max(r, p) for r, p in zip(rms, prev_rms)):
                        steady = True
                        break
                prev_rms = rms

    total = cycles * steps + 1
    time = np.arange(total) * dt
    if nf < n:  # the fixed flap's columns stay zero
        flaps = np.zeros((2, total, n))
        flaps[:, :, free[0]] = states[:, :total, 0]
        states = flaps
    rotation, velocity = states[:, :total]
    window = slice(total - span, total)
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
