"""Wave kinematics and hydrodynamic coefficient sources.

Linear dispersion (deep and finite depth) and two coefficient sources: a
bilinear table loaded from CSV, and an analytic decaying-oscillatory
coupling kernel for self-contained runs where no tabulated coefficients
are available. A source answers ``single(period, env)`` and
``pair(period, distance, env)`` with three numbers per flap,
``(added_inertia, damping, coupling)``: ``coupling`` is the pair's
(inertia, damping) coupling, ``None`` for one flap. The caller
(``Model.system_for``) checks the distance and builds the system.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError, read_table

DEEP = "deep"

_DISPERSION_TOL = 1e-12
_DISPERSION_MAX_ITER = 100


@dataclass(frozen=True)
class Environment:
    """Site constants: gravity [m/s^2] and water depth [m] or ``"deep"``."""

    gravity: float = 9.81
    water_depth: float | str = DEEP

    def __post_init__(self):
        if not (math.isfinite(self.gravity) and self.gravity > 0.0):
            raise InvalidInputError(f"gravity must be positive and finite, got {self.gravity}")
        if not self.is_deep:
            depth = self.water_depth
            if isinstance(depth, bool) or not isinstance(depth, (int, float)):
                raise InvalidInputError(f"water depth must be a number or 'deep', got {depth!r}")
            if not (math.isfinite(depth) and depth > 0.0):
                raise InvalidInputError(
                    f"water depth must be positive and finite or 'deep', got {depth}"
                )
            object.__setattr__(self, "water_depth", float(depth))

    @property
    def is_deep(self) -> bool:
        return isinstance(self.water_depth, str) and self.water_depth == DEEP


@dataclass(frozen=True)
class FlapProperties:
    """Dry mass moment of inertia [kg m^2] and restoring stiffness [N m/rad]."""

    inertia_dry: float
    stiffness: float

    def __post_init__(self):
        for name in ("inertia_dry", "stiffness"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"{name} must be positive and finite, got {value}")


def wavelength_deep(period: float, env: Environment = Environment()) -> float:
    """Deep-water wavelength g*T^2/(2*pi) [m]."""
    if not period > 0.0:
        raise InvalidInputError(f"period must be positive, got {period}")
    # T * T overflows to inf, where T**2 would raise OverflowError
    return env.gravity * (period * period) / (2.0 * math.pi)


def angular_frequency(period: float, what: str = "wave period") -> float:
    """Angular frequency 2*pi/period [rad/s] of a forcing period.

    Raises InvalidInputError, naming the period as ``what``, if the period
    is not positive or omega^2 is not a positive, finite, normal float.
    """
    if not period > 0.0:
        raise InvalidInputError(f"period must be positive, got {period}")
    omega = 2.0 * math.pi / period
    if not sys.float_info.min <= omega * omega <= sys.float_info.max:
        raise InvalidInputError(f"{what} {period} s is out of range: omega^2 is {omega * omega}")
    return omega


def solve_dispersion(
    period: float, env: Environment = Environment(), distance: float = 0.0
) -> float:
    """Wavenumber k [rad/m] from the linear dispersion relation.

    Solves omega^2 = g*k*tanh(k*h) by safeguarded Newton iteration seeded
    with the deep-water wavenumber (a bisection fallback keeps the iterate
    inside a bracket). For ``"deep"`` water returns 2*pi/wavelength_deep
    directly. ``distance`` is the distance the caller multiplies k by.

    Raises
    ------
    InvalidInputError
        If the period is not positive, or so short or so long that omega^2
        or the deep-water wavenumber is not a positive, finite, normal
        float, or k * distance is not finite for a finite distance.
    NumericalError
        If the residual |omega^2 - g*k*tanh(k*h)| / omega^2 has not dropped
        below 1e-12 after 100 iterations.
    """
    omega = angular_frequency(period)
    omega2 = omega * omega

    def in_range(name, value, low=sys.float_info.min):
        if not low <= value <= sys.float_info.max:
            raise InvalidInputError(f"wave period {period} s is out of range: {name} is {value}")

    k = 2.0 * math.pi / wavelength_deep(period, env)
    in_range("the deep-water wavenumber", k)
    if not env.is_deep:
        g = env.gravity
        h = float(env.water_depth)

        def residual(k):
            return omega2 - g * k * math.tanh(k * h)

        # residual is strictly decreasing in k; the true root is >= the deep-water k
        lo = omega2 / g  # deep-water wavenumber
        hi = lo
        while residual(hi) > 0.0:
            hi *= 2.0
        k = lo

        for _ in range(_DISPERSION_MAX_ITER):
            f = residual(k)
            if abs(f) / omega2 < _DISPERSION_TOL:
                break
            if f > 0.0:
                lo = k
            else:
                hi = k
            th = math.tanh(k * h)
            dfdk = -g * (th + k * h * (1.0 - th * th))
            k_next = k - f / dfdk
            if not lo <= k_next <= hi:
                k_next = 0.5 * (lo + hi)
            k = k_next
        else:
            raise NumericalError(
                f"dispersion solve did not converge for T={period} s, h={h} m: "
                f"relative residual {abs(residual(k)) / omega2:.3e}"
            )
    if math.isfinite(distance):  # a distance out of range is its caller's to name
        in_range(f"k*d at d = {distance} m", k * distance, low=0.0)
    return k


def wavelength(period: float, env: Environment = Environment()) -> float:
    """Wavelength 2*pi/k [m] from the same dispersion solve used everywhere."""
    return 2.0 * math.pi / solve_dispersion(period, env)


def analytic_coupling(
    added_inertia: float,
    damping: float,
    distance: float,
    wavenumber: float,
    alpha: float,
    eps: float = 0.1,
) -> tuple[float, float]:
    """Cross-flap coupling (inertia, damping) from a decaying oscillatory
    kernel on the diagonal added inertia I_a and damping C:

        Ia_lr = -alpha * I_a * sin(k*d) / sqrt(max(k*d, eps))
        C_lr  = -alpha * C   * cos(k*d) / sqrt(max(k*d, eps))

    Negative coupling damping at small k*d reduces the net in-phase damping,
    so closely spaced flaps moving together respond more than an isolated
    one. ``alpha`` in [0, 1] scales the interaction strength; alpha = 0
    means isolated flaps.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInputError(f"coupling gain alpha must be in [0, 1], got {alpha}")
    if not (math.isfinite(distance) and distance > 0.0):
        raise InvalidInputError(f"distance must be positive and finite, got {distance}")
    if not wavenumber > 0.0:
        raise InvalidInputError(f"wavenumber must be positive, got {wavenumber}")
    kd = wavenumber * distance
    scale = alpha / math.sqrt(max(kd, eps))
    return -scale * added_inertia * math.sin(kd), -scale * damping * math.cos(kd)


@dataclass(frozen=True)
class AnalyticCoefficientSource:
    """Period-independent added inertia [kg m^2] and damping [N m s/rad] per
    flap; a pair's coupling comes from the analytic kernel
    (``analytic_coupling``) at the wavenumber of the requested period."""

    added_inertia: float
    damping: float
    alpha: float
    eps: float = 0.1

    def __post_init__(self):
        for name in ("added_inertia", "damping"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)}")
        if self.added_inertia < 0.0:
            raise InvalidInputError(f"added inertia must be >= 0, got {self.added_inertia}")
        if not self.damping > 0.0:
            raise InvalidInputError(f"damping must be positive, got {self.damping}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidInputError(f"coupling gain alpha must be in [0, 1], got {self.alpha}")
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise InvalidInputError(f"kernel floor eps must be finite and >= 0, got {self.eps}")

    def single(self, period: float, env: Environment) -> tuple:
        return self.added_inertia, self.damping, None

    def pair(self, period: float, distance: float, env: Environment) -> tuple:
        k = solve_dispersion(period, env, distance)
        coupling = analytic_coupling(
            self.added_inertia, self.damping, distance, k, self.alpha, self.eps
        )
        return self.added_inertia, self.damping, coupling

    def describe(self) -> dict:
        return {
            "source": "analytic",
            "added_inertia_kg_m2": self.added_inertia,
            "damping_Nm_s_per_rad": self.damping,
            "alpha": self.alpha,
            "eps": self.eps,
        }


def _clamped_segment(grid: np.ndarray, x: float) -> tuple[int, int, float]:
    """Index pair and interpolation fraction for x on a sorted grid, clamped."""
    if grid.size == 1:
        return 0, 0, 0.0
    x = min(max(x, grid[0]), grid[-1])
    i = int(np.searchsorted(grid, x, side="right")) - 1
    i = min(max(i, 0), grid.size - 2)
    t = (x - grid[i]) / (grid[i + 1] - grid[i])
    return i, i + 1, t


@dataclass(frozen=True)
class TableCoefficientSource:
    """Coefficients tabulated on a (period, distance) grid.

    The four arrays are indexed ``[i_period, i_distance]`` and interpolated
    bilinearly. Queries outside the grid clamp to the nearest edge; there is
    no extrapolation. The single flap takes the diagonal values at the
    largest tabulated distance (far-field isolation).
    """

    period_grid: np.ndarray  # s, strictly increasing
    distance_grid: np.ndarray  # m, strictly increasing
    added_inertia: np.ndarray  # kg m^2
    damping: np.ndarray  # N m s/rad
    coupling_inertia: np.ndarray  # kg m^2
    coupling_damping: np.ndarray  # N m s/rad
    label: str = "table"

    def __post_init__(self):
        periods = np.asarray(self.period_grid, dtype=float)
        distances = np.asarray(self.distance_grid, dtype=float)
        if periods.size == 0 or distances.size == 0:
            raise InvalidInputError("coefficient table must have at least one grid point")
        if np.any(np.diff(periods) <= 0.0) or np.any(np.diff(distances) <= 0.0):
            raise InvalidInputError("coefficient table grids must be strictly increasing")
        shape = (periods.size, distances.size)
        for name in ("added_inertia", "damping", "coupling_inertia", "coupling_damping"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise InvalidInputError(
                    f"coefficient table field {name} has shape {arr.shape}, expected {shape}"
                )
            if not np.isfinite(arr).all():
                raise InvalidInputError(f"coefficient table field {name} must be finite")
            object.__setattr__(self, name, arr)
        if np.any(self.added_inertia < 0.0):
            raise InvalidInputError("coefficient table added inertia must be >= 0")
        if np.any(self.damping <= 0.0):
            raise InvalidInputError("coefficient table damping must be positive")
        object.__setattr__(self, "period_grid", periods)
        object.__setattr__(self, "distance_grid", distances)

    def _at(self, period: float, distance: float, fields: tuple) -> list:
        """Bilinear interpolation of each array at (period, distance), clamped."""
        i0, i1, tp = _clamped_segment(self.period_grid, period)
        j0, j1, td = _clamped_segment(self.distance_grid, distance)
        values = []
        for arr in fields:
            row0 = (1.0 - td) * arr[i0, j0] + td * arr[i0, j1]
            row1 = (1.0 - td) * arr[i1, j0] + td * arr[i1, j1]
            values.append((1.0 - tp) * row0 + tp * row1)
        return values

    def single(self, period: float, env: Environment) -> tuple:
        far = float(self.distance_grid[-1])
        return (*self._at(period, far, (self.added_inertia, self.damping)), None)

    def pair(self, period: float, distance: float, env: Environment) -> tuple:
        fields = (self.added_inertia, self.damping, self.coupling_inertia, self.coupling_damping)
        added_inertia, damping, *coupling = self._at(period, distance, fields)
        return added_inertia, damping, tuple(coupling)

    def describe(self) -> dict:
        return {"source": self.label}


def load_coefficient_table(path, label: str = "table") -> TableCoefficientSource:
    """Load a coefficient table CSV: period_s,distance_m,Ia,C,Ia_lr,C_lr.

    One row per grid cell; the grids are inferred from the distinct period
    and distance values and every (period, distance) cell must be present.
    """
    columns = ["period_s", "distance_m", "Ia", "C", "Ia_lr", "C_lr"]
    cells: dict[tuple[float, float], list[float]] = {}
    for lineno, values in read_table(path, "coefficient table", columns):
        for name, value in zip(columns[:2], values):
            if not math.isfinite(value):
                raise InvalidInputError(f"{path}:{lineno}: {name} {value} is not finite")
        key = (values[0], values[1])
        if key in cells:
            raise InvalidInputError(
                f"{path}:{lineno}: duplicate cell for period={key[0]}, distance={key[1]}"
            )
        cells[key] = values[2:]

    periods = np.array(sorted({p for p, _ in cells}))
    distances = np.array(sorted({d for _, d in cells}))
    shape = (periods.size, distances.size)
    fields = [np.empty(shape) for _ in range(4)]
    for i, p in enumerate(periods):
        for j, d in enumerate(distances):
            if (p, d) not in cells:
                raise InvalidInputError(
                    f"{path}: missing cell for period={p} s, distance={d} m"
                )
            for arr, v in zip(fields, cells[(p, d)]):
                arr[i, j] = v
    return TableCoefficientSource(periods, distances, *fields, label=label)
