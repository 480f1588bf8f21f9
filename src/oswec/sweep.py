"""Experiment grids: torque-scenario studies, wave-forced distance sweeps,
and heading sweeps, each reported against a single-flap baseline.

Rows are emitted in lexicographic grid order and every run is deterministic
for a given plan and model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .energy import CaseResult, Model, evaluate_linear, failure_text, run_torque_case, run_wave_case
from .errors import InvalidInputError, format_number, write_json
from .forcing import Scenario, TorqueScenario, WaveCondition
from .hydro import solve_dispersion

DEFAULT_DISTANCES = (10.0, 15.0, 33.0, 45.0, 55.0, 70.0, 86.0)
DEFAULT_TORQUE_PERIODS = (7.5, 8.5, 9.5, 10.5)
DEFAULT_WAVE_PERIODS = tuple(7.5 + 0.5 * i for i in range(9))  # 7.5 .. 11.5
DEFAULT_TORQUE_AMPLITUDES = (0.6e6, 0.8e6, 1.0e6, 1.2e6)
DEFAULT_WAVE_HEIGHTS = (1.75, 3.25)
DEFAULT_HEADINGS = tuple(float(b) for b in range(0, 50, 5))  # 0 .. 45
DEFAULT_SCENARIOS = (
    Scenario.RIGHT_ONLY_LEFT_FIXED,
    Scenario.RIGHT_ONLY_LEFT_FREE,
    Scenario.IN_PHASE,
    Scenario.OUT_OF_PHASE,
    Scenario.ARBITRARY_PHASE,
)
# the heading study's fixed layout and sea: the 45 m pair under the
# most-occurring wave
HEADING_DISTANCE = 45.0  # m
HEADING_PERIOD = 8.5  # s
HEADING_HEIGHT = 1.75  # m


@dataclass(frozen=True)
class SweepPlan:
    """Axes of the experiment grids; defaults copy the studied case sets."""

    distances: tuple[float, ...] = DEFAULT_DISTANCES
    torque_periods: tuple[float, ...] = DEFAULT_TORQUE_PERIODS
    wave_periods: tuple[float, ...] = DEFAULT_WAVE_PERIODS
    torque_amplitudes: tuple[float, ...] = DEFAULT_TORQUE_AMPLITUDES
    wave_heights: tuple[float, ...] = DEFAULT_WAVE_HEIGHTS
    headings: tuple[float, ...] = DEFAULT_HEADINGS
    scenarios: tuple[Scenario, ...] = DEFAULT_SCENARIOS

    def __post_init__(self):
        for name, values in vars(self).items():
            if len(values) == 0:
                raise InvalidInputError(f"sweep plan axis {name} is empty")
            if name == "headings":
                if any(not 0.0 <= b < 90.0 for b in values):
                    raise InvalidInputError("headings must lie in [0, 90) degrees")
            elif name != "scenarios" and not all(math.isfinite(v) and v > 0.0 for v in values):
                raise InvalidInputError(f"sweep plan axis {name} must be positive and finite")
        # equal values (headings 0, -0) repeat, and so do values that print alike
        for name, values in vars(self).items():
            keys = [_axis_key(v) for v in values]
            repeats = [v for i, v in enumerate(values) if v in values[:i] or keys[i] in keys[:i]]
            if repeats:
                raise InvalidInputError(
                    f"sweep plan axis {name} repeats {_axis_key(repeats[0])}"
                )


@dataclass
class SweepReport:
    """Ordered rows of one study, the column names they share, and the grid
    axes (outermost first, the leading columns) that nest the rows in the
    JSON report."""

    study: str
    columns: tuple[str, ...]
    axes: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(
                f"# {self.study} sweep; columns carry units in their names "
                "(_m metres, _s seconds, _Nm newton-metres, _rad radians, _W watts, "
                "_deg degrees); ratios and fractions are dimensionless\n"
            )
            writer = csv.DictWriter(fh, fieldnames=list(self.columns))
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: _csv_value(row.get(k)) for k in self.columns})

    def to_json(self, path) -> None:
        nested: dict = {}
        for row in self.rows:
            node = nested
            for ax in self.axes[:-1]:
                node = node.setdefault(_axis_key(row[ax]), {})
            node[_axis_key(row[self.axes[-1]])] = row
        write_json(path, {"study": self.study, "config": self.config, "rows": nested})


def _csv_value(value):
    return format_number(value) if isinstance(value, float) else value


def _axis_key(value) -> str:
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def classify_band(d_over_lambda: float) -> str:
    """Separation regime label; ratios are rounded to two decimals first."""
    r = round(d_over_lambda, 2)
    if 0.06 <= r <= 0.11:
        return "0.06-0.11"
    if 0.25 <= r <= 0.80:
        return "0.25-0.80"
    return "outside"


def _ratio(value: float, reference: float) -> float | None:
    """``value / reference``; None (null in JSON, empty in CSV) for a zero reference."""
    return value / reference if reference != 0.0 else None


def _pair_columns(names: tuple[str, str], baseline: bool) -> tuple[str, ...]:
    """The columns ``_pair_fields`` fills, in its order."""
    columns = [
        f"{name}_{metric}"
        for name in names
        for metric in ("rms_rad", "amplitude_rad", "phase_rad", "power_W")
    ]
    if baseline:
        columns += ["single_rms_rad", "single_amplitude_rad", "single_power_W"]
        columns += [f"{name}_rms_ratio" for name in names]
    return tuple(columns)


def _pair_fields(names: tuple[str, str], result: CaseResult, base: CaseResult | None) -> dict:
    """Both flaps' metrics; with a single-flap ``base``, also the baseline
    and each flap's RMS ratio to it."""
    m = result.metrics
    values = [
        float(column[index])
        for index in range(len(names))
        for column in (m.rms_rotation, m.amplitude, m.phase, result.power)
    ]
    if base is not None:
        single_rms = float(base.metrics.rms_rotation[0])
        values += [single_rms, float(base.metrics.amplitude[0]), float(base.power[0])]
        values += [_ratio(float(m.rms_rotation[i]), single_rms) for i in range(len(names))]
    return dict(zip(_pair_columns(names, base is not None), values))


def _run_against(fn, model: Model, grid: list, baseline_of) -> list:
    """``(case, outcome, baseline outcome)`` for each grid case, in grid
    order; the baseline of a case is the case ``baseline_of(case)``.

    Every distinct case is evaluated once, baselines first, in one
    ``evaluate_linear`` batch, which runs each key at its largest amplitude
    and scales the others down. A failed baseline fails the whole study
    with its own exception (a NumericalError exits 2).
    """
    baselines = [baseline_of(case) for case in grid]
    cases = list(dict.fromkeys(baselines + grid))
    outcomes = dict(zip(cases, evaluate_linear(fn, model, cases)))
    for base in baselines:
        if isinstance(outcomes[base], Exception):
            raise outcomes[base]
    return [(case, outcomes[case], outcomes[base]) for case, base in zip(grid, baselines)]


def _row(axes: dict, names: tuple[str, str], outcome, base, extra=None) -> dict:
    """A report row: the grid ``axes`` and the error text; for a case that
    ran, also both flaps against ``base`` (``_pair_fields``), the study's
    ``extra(outcome)`` fields and whether the case and its base were steady."""
    if isinstance(outcome, Exception):
        return {**axes, "error": failure_text(outcome)}
    row = {**axes, "error": "", **_pair_fields(names, outcome, base)}
    if extra is not None:
        row.update(extra(outcome))
    row["steady"] = outcome.metrics.steady and (base is None or base.metrics.steady)
    return row


TORQUE_COLUMNS = (
    "scenario",
    "distance_m",
    "period_s",
    "torque_Nm",
    "d_over_lambda",
    *_pair_columns(("left", "right"), True),
    "steady",
    "error",
)


def run_torque_study(plan: SweepPlan, model: Model) -> SweepReport:
    """Grid of torque scenarios compared against the single-flap baseline.

    Each scenario, distance and period, and the single flap at each period,
    is integrated once at its largest torque and scaled down to every other
    amplitude (``evaluate_linear``). The single baseline is shared across
    scenarios and distances.
    """
    grid = [
        (TorqueScenario(variant, amplitude, period, d),)
        for variant in plan.scenarios
        for d in plan.distances
        for period in plan.torque_periods
        for amplitude in plan.torque_amplitudes
    ]

    def single(case):
        return (TorqueScenario(Scenario.SINGLE, case[0].amplitude, case[0].period),)

    runs = _run_against(run_torque_case, model, grid, single)
    report = SweepReport("torque", TORQUE_COLUMNS, TORQUE_COLUMNS[:4])
    for (scenario,), outcome, base in runs:
        lam = 2.0 * math.pi / solve_dispersion(scenario.period, model.environment)
        axes = {
            "scenario": scenario.variant.value,
            "distance_m": float(scenario.distance),
            "period_s": float(scenario.period),
            "torque_Nm": float(scenario.amplitude),
            "d_over_lambda": scenario.distance / lam,
        }
        report.rows.append(_row(axes, ("left", "right"), outcome, base))
    return report


WAVE_COLUMNS = (
    "distance_m",
    "period_s",
    "height_m",
    "d_over_lambda",
    "band",
    *_pair_columns(("front", "back"), True),
    "total_power_W",
    "steady",
    "error",
)


def run_wave_study(plan: SweepPlan, model: Model) -> SweepReport:
    """Wave-forced dual runs over (distance, period, height) with baselines.

    Each distance and period, and the single flap at each period, is
    integrated once at its largest wave height and scaled down to every
    other height (``evaluate_linear``).
    """
    grid = [
        (WaveCondition(height, period), d, True)
        for d in plan.distances
        for period in plan.wave_periods
        for height in plan.wave_heights
    ]
    runs = _run_against(run_wave_case, model, grid, lambda case: (case[0], 0.0, False))

    def total_power(result):
        return {"total_power_W": result.total_power}

    report = SweepReport("wave", WAVE_COLUMNS, WAVE_COLUMNS[:3])
    for (wave, d, _), outcome, base in runs:
        lam = 2.0 * math.pi / solve_dispersion(wave.period, model.environment)
        ratio = d / lam
        axes = {
            "distance_m": float(d),
            "period_s": float(wave.period),
            "height_m": float(wave.height),
            "d_over_lambda": ratio,
            "band": classify_band(ratio),
        }
        report.rows.append(_row(axes, ("front", "back"), outcome, base, total_power))
    return report


HEADING_COLUMNS = (
    "heading_deg",
    "distance_m",
    "period_s",
    "height_m",
    *_pair_columns(("front", "back"), False),
    "total_power_W",
    "power_loss_fraction",
    "steady",
    "error",
)


def run_heading_study(plan: SweepPlan, model: Model) -> SweepReport:
    """Heading sweep over ``plan.headings`` at HEADING_DISTANCE under the
    HEADING_HEIGHT, HEADING_PERIOD wave; the plan's other axes are unused.

    The loss fraction of each row is relative to the zero-heading run of
    the same configuration (the zero-heading row itself is exactly 0).
    """
    grid = [
        (WaveCondition(HEADING_HEIGHT, HEADING_PERIOD, float(beta)), HEADING_DISTANCE, True)
        for beta in plan.headings
    ]
    zero_case = (WaveCondition(HEADING_HEIGHT, HEADING_PERIOD, 0.0), HEADING_DISTANCE, True)
    runs = _run_against(run_wave_case, model, grid, lambda case: zero_case)
    report = SweepReport("heading", HEADING_COLUMNS, HEADING_COLUMNS[:1])
    for (wave, _, _), outcome, zero in runs:
        beta = wave.heading_deg
        axes = {
            "heading_deg": beta,
            "distance_m": HEADING_DISTANCE,
            "period_s": HEADING_PERIOD,
            "height_m": HEADING_HEIGHT,
        }

        def extra(result):
            ratio = 1.0 if beta == 0.0 else _ratio(result.total_power, zero.total_power)
            loss = None if ratio is None else 1.0 - ratio
            return {"total_power_W": result.total_power, "power_loss_fraction": loss}

        report.rows.append(_row(axes, ("front", "back"), outcome, None, extra))
    return report
