"""Mechanical power extraction, power matrices, wave-resource JPDs, and AEP.

Power is taken by a linear rotational damper: P = C_pto * <theta_dot^2> per
flap, averaged over the steady measurement window. A power matrix evaluates
that over (Hs, Te) bins; weighting by a joint probability distribution of
sea states and the hours in a year gives annual energy production.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    ForcingSpec,
    IntegrationConfig,
    ResponseMetrics,
    ResponseRecord,
    SystemMatrices,
    integrate,
    response_metrics,
)
from .errors import InvalidInputError, NumericalError, format_number, open_input
from .forcing import (
    ExcitationTransfer,
    Scenario,
    TorqueScenario,
    WaveCondition,
    build_single_wave_forcing,
    build_torque_scenario,
    build_wave_forcing,
)
from .hydro import Environment, FlapProperties

HOURS_PER_YEAR = 8766.0  # mean Gregorian year


@dataclass(frozen=True)
class PTOModel:
    """Linear power take-off damper C_pto [N m s/rad] per flap.

    ``included_in_damping`` means C_pto is already part of the hydrodynamic
    damping C used by the dynamics (and must not exceed it); otherwise it is
    added on top of C by ``Model.system_for``.
    """

    damping: float
    included_in_damping: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.damping) and self.damping >= 0.0):
            raise InvalidInputError(f"PTO damping must be finite and >= 0, got {self.damping}")


@dataclass(frozen=True)
class Model:
    """Everything needed to simulate one case except the case itself."""

    environment: Environment
    flap: FlapProperties
    coefficients: object  # AnalyticCoefficientSource or TableCoefficientSource
    transfer: ExcitationTransfer
    pto: PTOModel
    integration: IntegrationConfig

    def system_for(self, period: float, distance: float, dual: bool) -> SystemMatrices:
        """The system of a pair at ``distance`` or of one flap (``distance``
        unused) at ``period``: the source's added inertia, damping and
        coupling, the PTO damping added unless the source's damping includes
        it (which it may then not exceed), and the dry flap."""
        if dual:
            if not (math.isfinite(distance) and distance > 0.0):
                raise InvalidInputError(f"distance must be positive and finite, got {distance}")
            added_inertia, damping, coupling = self.coefficients.pair(
                period, distance, self.environment
            )
        else:
            added_inertia, damping, coupling = self.coefficients.single(period, self.environment)
        if not self.pto.included_in_damping:
            damping = damping + self.pto.damping
        elif self.pto.damping > damping:
            raise InvalidInputError(
                f"PTO damping {self.pto.damping:.4g} exceeds the system damping "
                f"{damping:.4g} it is supposed to be part of"
            )
        return SystemMatrices(
            self.flap.inertia_dry + added_inertia, damping, self.flap.stiffness, coupling
        )


@dataclass(frozen=True)
class Design:
    """A model pinned to one layout: separation distance, heading, flap count."""

    model: Model
    distance: float  # m
    heading_deg: float = 0.0
    dual: bool = True

    def __post_init__(self):
        if self.dual and not (math.isfinite(self.distance) and self.distance > 0.0):
            raise InvalidInputError(
                f"dual designs need a positive, finite distance, got {self.distance}"
            )

    def describe(self) -> dict:
        return {
            "distance_m": self.distance if self.dual else None,
            "heading_deg": self.heading_deg,
            "dual": self.dual,
            "coefficients": self.model.coefficients.describe(),
            "transfer": self.model.transfer.describe(),
            "pto_damping_Nm_s_per_rad": self.model.pto.damping,
            "pto_included_in_damping": self.model.pto.included_in_damping,
        }


@dataclass(frozen=True)
class CaseResult:
    """Metrics and mean PTO power [W] per flap for one simulated case, and
    the record they were reduced from. Grid cells (``evaluate_linear``)
    carry no record: ``record`` is None."""

    record: ResponseRecord | None
    metrics: ResponseMetrics
    power: np.ndarray  # (n,) W

    @property
    def total_power(self) -> float:
        return float(np.sum(self.power))

    def scaled(self, factor: float) -> "CaseResult":
        """This case, without its record, with its forcing amplitude times
        ``factor``: RMS and amplitude scale by it and power by its square,
        while phase, ``steady`` and ``cycles_used`` stay. Grids only scale
        down (``factor`` <= 1), so no value overflows."""
        m = self.metrics
        metrics = replace(m, rms_rotation=m.rms_rotation * factor, amplitude=m.amplitude * factor)
        return CaseResult(None, metrics, self.power * (factor * factor))


def mean_power(record: ResponseRecord, pto: PTOModel) -> np.ndarray:
    """Mean PTO power per flap [W] over the record's measure window."""
    v = record.velocity
    return pto.damping * (np.einsum("ij,ij->j", v, v) / v.shape[0])


def _simulate(model: Model, system: SystemMatrices, forcing: ForcingSpec) -> CaseResult:
    """Integrate one case and reduce it to finite metrics and power.

    ``integrate`` rejects cycles whose squares or RMS overflow, but the
    measure-window mean of squares spans several cycles and ``mean_power``
    squares velocity, so either can still overflow; that raises
    NumericalError instead of returning inf.
    """
    record = integrate(system, forcing, model.integration)
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = response_metrics(record)
        power = mean_power(record, model.pto)
    for name, values in (
        ("rotation RMS", metrics.rms_rotation),
        ("amplitude", metrics.amplitude),
        ("mean power", power),
    ):
        if not np.isfinite(values).all():
            raise NumericalError(
                f"{name} over the measure window is non-finite (cycles_used={record.cycles}); "
                "the system is unstable (negative effective damping) or its forcing is "
                "beyond the float range"
            )
    return CaseResult(record, metrics, power)


def run_wave_case(model: Model, wave: WaveCondition, distance: float, dual: bool) -> CaseResult:
    """Simulate one regular-wave case (dual pair or single flap) to steady state."""
    system = model.system_for(wave.period, distance, dual)
    if dual:
        forcing = build_wave_forcing(wave, distance, model.transfer, model.environment)
    else:
        forcing = build_single_wave_forcing(wave, model.transfer, model.environment)
    return _simulate(model, system, forcing)


def run_torque_case(model: Model, scenario: TorqueScenario) -> CaseResult:
    """Simulate one torque-forced case to steady state."""
    dual = scenario.variant is not Scenario.SINGLE
    system = model.system_for(scenario.period, scenario.distance, dual)
    forcing = build_torque_scenario(scenario, model.environment)
    return _simulate(model, system, forcing)


@dataclass(frozen=True)
class JPD:
    """Joint probability of sea states: occurrence fraction per (Hs, Te) bin.

    A partial matrix (fractions summing below 1) is allowed; the total may
    not exceed 1.
    """

    hs_bins: np.ndarray  # m, bin centers
    te_bins: np.ndarray  # s, bin centers
    occurrence: np.ndarray  # (nH, nT) fractions

    def __post_init__(self):
        hs = np.atleast_1d(np.asarray(self.hs_bins, dtype=float))
        te = np.atleast_1d(np.asarray(self.te_bins, dtype=float))
        occ = np.atleast_2d(np.asarray(self.occurrence, dtype=float))
        if hs.size == 0 or te.size == 0:
            raise InvalidInputError("JPD must have at least one bin on each axis")
        if not (np.isfinite(hs).all() and np.isfinite(te).all()):
            raise InvalidInputError("JPD bin centers must be finite")
        if np.any(np.diff(hs) <= 0.0) or np.any(np.diff(te) <= 0.0):
            raise InvalidInputError("JPD bin centers must be strictly increasing")
        if occ.shape != (hs.size, te.size):
            raise InvalidInputError(
                f"JPD occurrence shape {occ.shape} does not match bins ({hs.size}, {te.size})"
            )
        if not np.isfinite(occ).all():
            raise InvalidInputError("JPD occurrence fractions must be finite")
        if np.any(occ < 0.0):
            raise InvalidInputError("JPD occurrence fractions must be >= 0")
        total = float(occ.sum())
        if total > 1.0 + 1e-9:
            raise InvalidInputError(f"JPD occurrence fractions sum to {total:.6f} > 1")
        object.__setattr__(self, "hs_bins", hs)
        object.__setattr__(self, "te_bins", te)
        object.__setattr__(self, "occurrence", occ)

    @property
    def total_occurrence(self) -> float:
        return float(self.occurrence.sum())


JPD_HEADER_CELL = r"hs_m\te_s"


def _has_duplicates(values: list[float]) -> bool:
    """Whether two values are equal, counting 0.0 and -0.0 as one value and
    every NaN as one value, as ``np.unique`` does (which would import
    ``numpy.ma``)."""
    return len({v if v == v else None for v in values}) != len(values)


def load_jpd(path) -> JPD:
    """Load a JPD CSV: header ``hs_m\\te_s,<te centers>``, one row per Hs center."""
    with open_input(path, "JPD") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise InvalidInputError(f"{path}: empty JPD file")
    header = rows[0]
    if header[0].strip() != JPD_HEADER_CELL:
        raise InvalidInputError(
            f"{path}: first header cell must be {JPD_HEADER_CELL!r}, got {header[0]!r}"
        )
    try:
        te = [float(c) for c in header[1:]]
    except ValueError as exc:
        raise InvalidInputError(f"{path}:1: bad period header: {exc}") from None
    if not te:
        raise InvalidInputError(f"{path}: JPD header has no period bins")
    hs = []
    occ = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(te) + 1:
            raise InvalidInputError(
                f"{path}:{lineno}: expected {len(te) + 1} columns, got {len(row)}"
            )
        try:
            hs.append(float(row[0]))
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{lineno}: bad Hs value: {exc}") from None
        fractions = []
        for col, cell in enumerate(row[1:], start=2):
            try:
                value = float(cell)
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: column {col}: {exc}") from None
            if not math.isfinite(value):
                raise InvalidInputError(
                    f"{path}:{lineno}: column {col}: occurrence {value} is not finite"
                )
            if value < 0.0:
                raise InvalidInputError(
                    f"{path}:{lineno}: column {col}: occurrence {value} is negative"
                )
            fractions.append(value)
        occ.append(fractions)
    if not hs:
        raise InvalidInputError(f"{path}: JPD has no Hs rows")
    if _has_duplicates(hs):
        raise InvalidInputError(f"{path}: duplicate Hs rows")
    if _has_duplicates(te):
        raise InvalidInputError(f"{path}: duplicate Te columns")
    # cells may come in any order; sort both axes so reordering a file
    # never changes the parsed distribution
    hs_arr = np.array(hs)
    te_arr = np.array(te)
    occ_arr = np.array(occ)
    row_order = np.argsort(hs_arr)
    col_order = np.argsort(te_arr)
    try:
        return JPD(hs_arr[row_order], te_arr[col_order], occ_arr[np.ix_(row_order, col_order)])
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class PowerMatrix:
    """Mean mechanical power per (Hs, Te) cell, per flap and total; ``stable``
    is False when a computed cell's system is unstable (``ResponseRecord.stable``)."""

    hs_bins: np.ndarray
    te_bins: np.ndarray
    power_per_flap: np.ndarray  # (nH, nT, n_flaps) W
    power_total: np.ndarray  # (nH, nT) W
    steady: np.ndarray  # (nH, nT) bool
    computed: np.ndarray  # (nH, nT) bool, False for skipped cells
    errors: tuple[str, ...]  # "cell hs=.. te=..: <failure_text>" per failed cell
    config: dict
    stable: bool = True


def failure_text(exc: Exception) -> str:
    """How a grid reports a failed case: ``"<ExceptionType>: <message>"``."""
    return f"{type(exc).__name__}: {exc}"


def _attempt(fn, *args):
    """The CaseResult ``fn(*args)`` without its record, or the exception it
    raised, stripped of its traceback so that a kept failure holds no frame
    of the run."""
    try:
        return replace(fn(*args), record=None)
    except Exception as exc:  # noqa: BLE001 - one failed case must not kill the grid
        return exc.with_traceback(None)


def evaluate_linear(fn, model: Model, cases) -> list:
    """``fn(model, *case)`` for each case, in case order: a CaseResult
    without a record, or the exception the case raised.

    A case's first item is a WaveCondition or a TorqueScenario. The model is
    linear in the forcing, so cases that differ only in wave height or
    torque amplitude share a key, and ``fn`` runs once per key, at the
    key's largest height or torque (its first case with that factor, the
    key's reference). Each run's record is dropped before the next key
    runs. Every case of a key whose run succeeded scales the reference
    result down by its factor over the largest (``CaseResult.scaled``), so
    the reference case itself is its own run bit for bit. When a key's run
    failed, its reference case, and any case with the same factor, keeps
    that failure; every other case of the key runs on its own, after all
    key runs: an unstable system overflows at a step that depends on the
    amplitude, so only the case's own run gives its error. No case runs
    twice.
    """
    keys, factors = [], []
    for condition, *rest in cases:
        if isinstance(condition, WaveCondition):
            keys.append((replace(condition, height=1.0), *rest))
            factors.append(condition.height)
        else:
            keys.append((replace(condition, amplitude=1.0), *rest))
            factors.append(condition.amplitude)

    reference = {}
    for index, (key, factor) in enumerate(zip(keys, factors)):
        if key not in reference or factor > factors[reference[key]]:
            reference[key] = index
    runs = {key: _attempt(fn, model, *cases[index]) for key, index in reference.items()}

    results = []
    for key, factor in zip(keys, factors):
        run, largest = runs[key], factors[reference[key]]
        if isinstance(run, CaseResult):
            run = run.scaled(factor / largest)
        elif factor != largest:
            run = None
        results.append(run)
    for index, result in enumerate(results):
        if result is None:
            results[index] = _attempt(fn, model, *cases[index])
    return results


def compute_power_matrix(
    design: Design,
    hs_bins: np.ndarray,
    te_bins: np.ndarray,
    occurrence: np.ndarray | None = None,
) -> PowerMatrix:
    """Evaluate the mean-power matrix: each period is integrated once, at
    its largest occupied wave height, and every other Hs row of that period
    scales it down (``evaluate_linear``).

    When ``occurrence`` is given, cells with zero occurrence are skipped
    (partial power matrix); their power stays 0 and ``computed`` is False.
    """
    hs_bins = np.atleast_1d(np.asarray(hs_bins, dtype=float))
    te_bins = np.atleast_1d(np.asarray(te_bins, dtype=float))
    if occurrence is not None:
        occurrence = np.asarray(occurrence, dtype=float)
        if occurrence.shape != (hs_bins.size, te_bins.size):
            raise InvalidInputError(
                f"occurrence shape {occurrence.shape} does not match the requested bins"
            )
    n_flaps = 2 if design.dual else 1
    shape = (hs_bins.size, te_bins.size)
    per_flap = np.zeros(shape + (n_flaps,))
    steady = np.zeros(shape, dtype=bool)
    computed = np.zeros(shape, dtype=bool)
    failures: list[str] = []

    cells = [
        (i, j)
        for i in range(hs_bins.size)
        for j in range(te_bins.size)
        if occurrence is None or occurrence[i, j] > 0.0
    ]
    cases = [
        (
            WaveCondition(float(hs_bins[i]), float(te_bins[j]), design.heading_deg),
            design.distance,
            design.dual,
        )
        for i, j in cells
    ]
    outcomes = evaluate_linear(run_wave_case, design.model, cases)
    for (i, j), outcome in zip(cells, outcomes):
        if isinstance(outcome, Exception):
            failures.append(f"cell hs={hs_bins[i]:g} te={te_bins[j]:g}: {failure_text(outcome)}")
            continue
        per_flap[i, j] = outcome.power
        steady[i, j] = outcome.metrics.steady
        computed[i, j] = True
    return PowerMatrix(
        hs_bins=hs_bins,
        te_bins=te_bins,
        power_per_flap=per_flap,
        power_total=per_flap.sum(axis=2),
        steady=steady,
        computed=computed,
        errors=tuple(failures),
        config=design.describe(),
        stable=all(o.metrics.stable for o in outcomes if isinstance(o, CaseResult)),
    )


def _energy_wh(pm: PowerMatrix, jpd: JPD) -> np.ndarray:
    """Annual energy per (Hs, Te) cell [Wh]; the bin axes must match."""
    if not (
        pm.hs_bins.size == jpd.hs_bins.size
        and pm.te_bins.size == jpd.te_bins.size
        and np.allclose(pm.hs_bins, jpd.hs_bins, rtol=1e-12, atol=0.0)
        and np.allclose(pm.te_bins, jpd.te_bins, rtol=1e-12, atol=0.0)
    ):
        raise InvalidInputError("power matrix and JPD bin axes do not match")
    return pm.power_total * jpd.occurrence * HOURS_PER_YEAR


def _gwh(energy_wh: np.ndarray) -> float:
    """The total of an annual energy table [Wh], in GWh."""
    return float(energy_wh.sum()) / 1e9


def annual_energy(pm: PowerMatrix, jpd: JPD) -> float:
    """JPD-weighted annual energy of a power matrix [GWh]."""
    return _gwh(_energy_wh(pm, jpd))


def write_power_matrix_csv(pm: PowerMatrix, jpd: JPD, path) -> None:
    """Long-form CSV of a power matrix, one row per cell, units in headers."""
    energy = _energy_wh(pm, jpd)
    dual = pm.power_per_flap.shape[2] == 2
    flap_cols = ["power_front_W", "power_back_W"] if dual else ["power_W"]
    te_bins = pm.te_bins.tolist()
    # one list per Hs row of each table, walked as Python floats and bools
    hs_rows = zip(
        pm.hs_bins.tolist(),
        pm.power_per_flap.tolist(),
        pm.power_total.tolist(),
        jpd.occurrence.tolist(),
        energy.tolist(),
        pm.steady.tolist(),
        pm.computed.tolist(),
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["hs_m", "te_s", *flap_cols, "power_total_W", "occurrence_fraction", "energy_Wh", "steady", "computed"]
        )
        for hs, *row in hs_rows:
            for te, flaps, total, occurrence, wh, steady, computed in zip(te_bins, *row):
                numbers = (hs, te, *flaps, total, occurrence, wh)
                writer.writerow([*map(format_number, numbers), int(steady), int(computed)])
        fh.write(f"# total_annual_energy_GWh={format_number(_gwh(energy))}\n")


def power_matrix_payload(pm: PowerMatrix, jpd: JPD) -> dict:
    """JSON-ready dict of a power matrix with its configuration descriptor."""
    energy = _energy_wh(pm, jpd)
    return {
        "config": dict(pm.config),
        "hs_bins_m": pm.hs_bins.tolist(),
        "te_bins_s": pm.te_bins.tolist(),
        "power_total_W": pm.power_total.tolist(),
        "power_per_flap_W": pm.power_per_flap.tolist(),
        "steady": pm.steady.tolist(),
        "computed": pm.computed.tolist(),
        "errors": list(pm.errors),
        "occurrence": jpd.occurrence.tolist(),
        "energy_Wh": energy.tolist(),
        "total_annual_energy_GWh": _gwh(energy),
    }
