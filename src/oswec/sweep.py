"""Experiment grids: torque-scenario studies, wave-forced distance sweeps,
and heading sweeps, each reported against a single-flap baseline.

Rows are emitted in lexicographic grid order and every run is deterministic
for a given plan and model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

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
        for name in (
            "distances",
            "torque_periods",
            "wave_periods",
            "torque_amplitudes",
            "wave_heights",
            "scenarios",
        ):
            values = getattr(self, name)
            if len(values) == 0:
                raise InvalidInputError(f"sweep plan axis {name} is empty")
            if name != "scenarios" and not all(math.isfinite(v) and v > 0.0 for v in values):
                raise InvalidInputError(f"sweep plan axis {name} must be positive and finite")
        if len(self.headings) == 0:
            raise InvalidInputError("sweep plan axis headings is empty")
        if any(not 0.0 <= b < 90.0 for b in self.headings):
            raise InvalidInputError("headings must lie in [0, 90) degrees")
        for name, values in vars(self).items():
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise InvalidInputError(
                    f"sweep plan axis {name} repeats {_axis_key(repeats[0])}"
                )


@dataclass
class SweepReport:
    """Ordered rows of one study, the column names they share, and the grid
    axes (outermost first) that nest the rows in the JSON report."""

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


def _ratio(value: float, reference: float) -> float:
    return value / reference if reference != 0.0 else math.nan


def _pair_fields(names: tuple[str, str], result: CaseResult, base: CaseResult | None) -> dict:
    """Both flaps' metrics; with a single-flap ``base``, also the baseline
    and each flap's RMS ratio to it."""
    fields = {}
    for index, name in enumerate(names):
        fields[f"{name}_rms_rad"] = float(result.metrics.rms_rotation[index])
        fields[f"{name}_amplitude_rad"] = float(result.metrics.amplitude[index])
        fields[f"{name}_phase_rad"] = float(result.metrics.phase[index])
        fields[f"{name}_power_W"] = float(result.power[index])
    if base is not None:
        single_rms = float(base.metrics.rms_rotation[0])
        fields["single_rms_rad"] = single_rms
        fields["single_amplitude_rad"] = float(base.metrics.amplitude[0])
        fields["single_power_W"] = float(base.power[0])
        for name in names:
            fields[f"{name}_rms_ratio"] = _ratio(fields[f"{name}_rms_rad"], single_rms)
    return fields


def _baseline(outcome: CaseResult | Exception) -> CaseResult:
    """A baseline's outcome. A failed baseline fails the whole study with
    its own exception (a NumericalError exits 2)."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


TORQUE_COLUMNS = (
    "scenario",
    "distance_m",
    "period_s",
    "torque_Nm",
    "d_over_lambda",
    "left_rms_rad",
    "left_amplitude_rad",
    "left_phase_rad",
    "left_power_W",
    "right_rms_rad",
    "right_amplitude_rad",
    "right_phase_rad",
    "right_power_W",
    "single_rms_rad",
    "single_amplitude_rad",
    "single_power_W",
    "left_rms_ratio",
    "right_rms_ratio",
    "steady",
    "error",
)


def run_torque_study(plan: SweepPlan, model: Model) -> SweepReport:
    """Grid of torque scenarios compared against the single-flap baseline.

    Each scenario, distance and period, and the single flap at each period,
    is integrated once at unit torque and scaled to every amplitude
    (``evaluate_linear``). The single baseline is shared across scenarios
    and distances.
    """
    singles = [
        TorqueScenario(Scenario.SINGLE, amplitude, period)
        for period in plan.torque_periods
        for amplitude in plan.torque_amplitudes
    ]
    grid = [
        TorqueScenario(variant, amplitude, period, d)
        for variant in plan.scenarios
        for d in plan.distances
        for period in plan.torque_periods
        for amplitude in plan.torque_amplitudes
    ]
    outcomes = evaluate_linear(run_torque_case, model, [(s,) for s in singles + grid])
    baselines = {
        (single.period, single.amplitude): _baseline(outcome)
        for single, outcome in zip(singles, outcomes)
    }
    outcomes = outcomes[len(singles):]

    report = SweepReport(
        "torque", TORQUE_COLUMNS, ("scenario", "distance_m", "period_s", "torque_Nm")
    )
    for scenario, outcome in zip(grid, outcomes):
        lam = 2.0 * math.pi / solve_dispersion(scenario.period, model.environment)
        failed = isinstance(outcome, Exception)
        row: dict = {
            "scenario": scenario.variant.value,
            "distance_m": float(scenario.distance),
            "period_s": float(scenario.period),
            "torque_Nm": float(scenario.amplitude),
            "d_over_lambda": scenario.distance / lam,
            "error": failure_text(outcome) if failed else "",
        }
        if not failed:
            base = baselines[(scenario.period, scenario.amplitude)]
            row.update(_pair_fields(("left", "right"), outcome, base))
            row["steady"] = outcome.metrics.steady and base.metrics.steady
        report.rows.append(row)
    return report


WAVE_COLUMNS = (
    "distance_m",
    "period_s",
    "height_m",
    "d_over_lambda",
    "band",
    "front_rms_rad",
    "front_amplitude_rad",
    "front_phase_rad",
    "front_power_W",
    "back_rms_rad",
    "back_amplitude_rad",
    "back_phase_rad",
    "back_power_W",
    "single_rms_rad",
    "single_amplitude_rad",
    "single_power_W",
    "front_rms_ratio",
    "back_rms_ratio",
    "total_power_W",
    "steady",
    "error",
)


def run_wave_study(plan: SweepPlan, model: Model) -> SweepReport:
    """Wave-forced dual runs over (distance, period, height) with baselines.

    Each distance and period, and the single flap at each period, is
    integrated once at unit wave height and scaled to every height
    (``evaluate_linear``).
    """
    singles = [
        (WaveCondition(height, period), 0.0, False)
        for period in plan.wave_periods
        for height in plan.wave_heights
    ]
    grid = [
        (WaveCondition(height, period), d, True)
        for d in plan.distances
        for period in plan.wave_periods
        for height in plan.wave_heights
    ]
    outcomes = evaluate_linear(run_wave_case, model, singles + grid)
    baselines = {
        (single[0].period, single[0].height): _baseline(outcome)
        for single, outcome in zip(singles, outcomes)
    }
    outcomes = outcomes[len(singles):]

    report = SweepReport("wave", WAVE_COLUMNS, ("distance_m", "period_s", "height_m"))
    for (wave, d, _), outcome in zip(grid, outcomes):
        lam = 2.0 * math.pi / solve_dispersion(wave.period, model.environment)
        ratio = d / lam
        failed = isinstance(outcome, Exception)
        row: dict = {
            "distance_m": float(d),
            "period_s": float(wave.period),
            "height_m": float(wave.height),
            "d_over_lambda": ratio,
            "band": classify_band(ratio),
            "error": failure_text(outcome) if failed else "",
        }
        if not failed:
            base = baselines[(wave.period, wave.height)]
            row.update(_pair_fields(("front", "back"), outcome, base))
            row["total_power_W"] = outcome.total_power
            row["steady"] = outcome.metrics.steady and base.metrics.steady
        report.rows.append(row)
    return report


HEADING_COLUMNS = (
    "heading_deg",
    "distance_m",
    "period_s",
    "height_m",
    "front_rms_rad",
    "front_amplitude_rad",
    "front_phase_rad",
    "front_power_W",
    "back_rms_rad",
    "back_amplitude_rad",
    "back_phase_rad",
    "back_power_W",
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
    waves = [
        WaveCondition(HEADING_HEIGHT, HEADING_PERIOD, float(beta)) for beta in plan.headings
    ]
    batch = list(waves)
    if 0.0 not in plan.headings:
        batch.append(WaveCondition(HEADING_HEIGHT, HEADING_PERIOD, 0.0))
    cases = [(wave, HEADING_DISTANCE, True) for wave in batch]
    outcomes = evaluate_linear(run_wave_case, model, cases)
    zero = next(
        _baseline(outcome)
        for case, outcome in zip(cases, outcomes)
        if case[0].heading_deg == 0.0
    )

    report = SweepReport("heading", HEADING_COLUMNS, ("heading_deg",))
    for wave, outcome in zip(waves, outcomes):
        beta = wave.heading_deg
        failed = isinstance(outcome, Exception)
        row: dict = {
            "heading_deg": beta,
            "distance_m": HEADING_DISTANCE,
            "period_s": HEADING_PERIOD,
            "height_m": HEADING_HEIGHT,
            "error": failure_text(outcome) if failed else "",
        }
        if not failed:
            row.update(_pair_fields(("front", "back"), outcome, None))
            row.update(
                {
                    "total_power_W": outcome.total_power,
                    "power_loss_fraction": (
                        0.0 if beta == 0.0 else 1.0 - _ratio(outcome.total_power, zero.total_power)
                    ),
                    "steady": outcome.metrics.steady,
                }
            )
        report.rows.append(row)
    return report
