"""Command-line entry point.

    oswec CONFIG simulate ...   one torque-scenario or wave case
    oswec CONFIG sweep ...      torque / wave / heading study
    oswec CONFIG aep ...        power matrices and annual energy per distance
    oswec CONFIG verify ...     built-in oracle suite

Exit codes: 0 success, 1 configuration/usage error, 2 numerical error,
3 verification failure. Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .config import RunConfig, load_run_config
from .energy import (
    Design,
    compute_power_matrix,
    load_jpd,
    power_matrix_payload,
    run_torque_case,
    run_wave_case,
    write_power_matrix_csv,
)
from .errors import InvalidInputError, NumericalError, format_number, write_json
from .forcing import Scenario, TorqueScenario, WaveCondition
from .sweep import SweepPlan, run_heading_study, run_torque_study, run_wave_study
from .verify import format_report, run_verification

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> tuple[float, ...]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    try:
        return tuple(float(s) for s in items)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oswec", description=__doc__.splitlines()[0])
    parser.add_argument("config", help="path to the run-configuration JSON file")
    parser.add_argument("--out", help="output directory (default: the config's output_dir)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: every grid runs in this process "
        "(at least 1; default: 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one case and write its metrics")
    sim.add_argument("--scenario", choices=[s.value for s in Scenario])
    sim.add_argument("--wave", action="store_true", help="wave-forced dual case")
    sim.add_argument("--d", type=float, default=0.0, help="separation distance [m]")
    sim.add_argument("--Te", type=float, required=True, help="excitation period [s]")
    sim.add_argument("--T0", type=float, help="torque amplitude [N m] (scenario mode)")
    sim.add_argument("--H", type=float, help="wave height [m] (wave mode)")
    sim.add_argument("--beta", type=float, default=0.0, help="wave heading [deg]")
    sim.add_argument(
        "--dump-timeseries", action="store_true", help="also write the rotation time series CSV"
    )

    swp = sub.add_parser("sweep", help="run a study grid and write CSV/JSON reports")
    swp.add_argument("--study", choices=["torque", "wave", "heading"], required=True)
    swp.add_argument("--distances", type=_float_list, help="comma-separated distances [m]")
    swp.add_argument("--periods", type=_float_list, help="comma-separated periods [s]")
    swp.add_argument("--amplitudes", type=_float_list, help="comma-separated torques [N m]")
    swp.add_argument("--heights", type=_float_list, help="comma-separated wave heights [m]")
    swp.add_argument("--headings", type=_float_list, help="comma-separated headings [deg]")

    aep = sub.add_parser("aep", help="power matrices and annual energy per distance")
    aep.add_argument("--jpd", required=True, help="JPD CSV file")
    aep.add_argument("--distances", type=_float_list, help="comma-separated distances [m]")
    aep.add_argument("--heading", type=float, default=0.0, help="wave heading [deg]")

    ver = sub.add_parser("verify", help="run the built-in oracle suite")
    ver.add_argument("--cases", type=int, default=20, help="number of randomized cases")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.workers < 1:
            raise InvalidInputError(f"--workers must be >= 1, got {args.workers}")
        run_config = load_run_config(args.config)
        # each command creates out_dir just before its first write, so a run
        # that stops on bad input leaves nothing behind
        out_dir = args.out or run_config.output_dir
        if args.command == "simulate":
            return _cmd_simulate(args, run_config, out_dir)
        if args.command == "sweep":
            return _cmd_sweep(args, run_config, out_dir)
        if args.command == "aep":
            return _cmd_aep(args, run_config, out_dir)
        return _cmd_verify(args, run_config)
    except InvalidInputError as exc:
        print(f"oswec: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"oswec: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _flap_names(n: int, wave: bool) -> list[str]:
    if n == 1:
        return ["flap"]
    return ["front", "back"] if wave else ["left", "right"]


def _cmd_simulate(args, run_config: RunConfig, out_dir: str) -> int:
    model = run_config.model
    if args.wave == (args.scenario is not None):
        raise InvalidInputError("simulate needs exactly one of --scenario or --wave")
    if args.wave:
        if args.H is None:
            raise InvalidInputError("wave mode needs --H")
        wave = WaveCondition(args.H, args.Te, args.beta)
        result = run_wave_case(model, wave, args.d, dual=True)
        case_desc = {
            "mode": "wave",
            "height_m": args.H,
            "period_s": args.Te,
            "heading_deg": args.beta,
            "distance_m": args.d,
        }
    else:
        if args.T0 is None:
            raise InvalidInputError("scenario mode needs --T0")
        scenario = TorqueScenario(Scenario(args.scenario), args.T0, args.Te, args.d)
        result = run_torque_case(model, scenario)
        case_desc = {
            "mode": "scenario",
            "scenario": args.scenario,
            "torque_Nm": args.T0,
            "period_s": args.Te,
            "distance_m": args.d,
        }

    if not result.metrics.stable:
        raise NumericalError(
            "the system is unstable (a mode's one-period map has spectral radius >= 1, "
            "e.g. negative effective damping), so it has no steady response"
        )
    names = _flap_names(result.record.dof, args.wave)
    payload = {
        "case": case_desc,
        "steady": result.metrics.steady,
        "cycles_used": result.metrics.cycles_used,
        "flaps": {
            name: {
                "rms_rotation_rad": float(result.metrics.rms_rotation[i]),
                "amplitude_rad": float(result.metrics.amplitude[i]),
                "phase_rad": float(result.metrics.phase[i]),
                "mean_power_W": float(result.power[i]),
            }
            for i, name in enumerate(names)
        },
        "total_power_W": result.total_power,
    }
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "simulate_metrics.json")
    write_json(metrics_path, payload)
    if args.dump_timeseries:
        _write_timeseries(result.record, os.path.join(out_dir, "simulate_timeseries.csv"))
    _note_unsettled("simulate", 0 if result.metrics.steady else 1, 1, "cases", 0)
    rms_text = ", ".join(
        f"{name} rms={result.metrics.rms_rotation[i]:.4f} rad" for i, name in enumerate(names)
    )
    print(f"{rms_text}, total power={result.total_power / 1e3:.1f} kW -> {metrics_path}")
    return EXIT_OK


def _write_timeseries(record, path) -> None:
    sides = ("l", "r")[: record.dof]
    header = ["t", *(f"theta_{s}" for s in sides), *(f"omega_{s}" for s in sides)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, rotation, velocity in zip(*record.history()):
            writer.writerow([format(t, ".9g"), *map(format_number, (*rotation, *velocity))])


def _note_unsettled(label: str, not_steady: int, total: int, unit: str, failed: int) -> None:
    """One stderr line for a design or study with non-steady or failed cases."""
    if not_steady or failed:
        print(
            f"oswec: {label}: {not_steady} of {total} {unit} not steady, {failed} failed",
            file=sys.stderr,
        )


# the plan field each sweep flag sets, per study; any other flag given is an error
_SWEEP_FLAGS = {
    "torque": {
        "distances": "distances",
        "periods": "torque_periods",
        "amplitudes": "torque_amplitudes",
    },
    "wave": {"distances": "distances", "periods": "wave_periods", "heights": "wave_heights"},
    "heading": {"headings": "headings"},
}


def _cmd_sweep(args, run_config: RunConfig, out_dir: str) -> int:
    fields = _SWEEP_FLAGS[args.study]
    given = [
        flag
        for flag in ("distances", "periods", "amplitudes", "heights", "headings")
        if getattr(args, flag) is not None
    ]
    ignored = [f"--{flag}" for flag in given if flag not in fields]
    if ignored:
        raise InvalidInputError(
            f"sweep --study {args.study} does not read {', '.join(ignored)}"
        )
    plan = SweepPlan(**{fields[flag]: getattr(args, flag) for flag in given})

    model = run_config.model
    if args.study == "torque":
        report = run_torque_study(plan, model)
    elif args.study == "wave":
        report = run_wave_study(plan, model)
    else:
        report = run_heading_study(plan, model)
    report.config = {"config_file": os.path.abspath(args.config)}

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"sweep_{args.study}.csv")
    json_path = os.path.join(out_dir, f"sweep_{args.study}.json")
    report.to_csv(csv_path)
    report.to_json(json_path)
    failures = sum(1 for row in report.rows if row["error"])
    not_steady = sum(1 for row in report.rows if not (row["error"] or row["steady"]))
    _note_unsettled(f"sweep_{args.study}", not_steady, len(report.rows), "rows", failures)
    print(f"{len(report.rows)} rows ({failures} failed) -> {csv_path}, {json_path}")
    return EXIT_OK


def _cmd_aep(args, run_config: RunConfig, out_dir: str) -> int:
    jpd = load_jpd(args.jpd)
    # the plan checks the distances before any case runs
    plan = SweepPlan() if args.distances is None else SweepPlan(distances=args.distances)
    model = run_config.model

    # the single flap first, its energy doubled, then the pair at each distance:
    # (file tag, row label, row distance, design)
    single = Design(model, 0.0, args.heading, dual=False)
    designs = [("single", "single_doubled", "", single)]
    for d in plan.distances:
        tag = f"d{format(float(d), 'g')}"
        designs.append((tag, f"dual_{tag}", float(d), Design(model, float(d), args.heading)))
    rows = []
    for tag, label, distance, design in designs:
        pm = compute_power_matrix(design, jpd.hs_bins, jpd.te_bins, jpd.occurrence)
        # counted in Python: a numpy sum over bools adds ~0.1 MiB to the peak
        # RSS; only a computed cell can be steady
        computed = sum(map(sum, pm.computed.tolist()))
        not_steady = computed - sum(map(sum, pm.steady.tolist()))
        _note_unsettled(label, not_steady, computed + len(pm.errors), "cells", len(pm.errors))
        os.makedirs(out_dir, exist_ok=True)
        write_power_matrix_csv(pm, jpd, os.path.join(out_dir, f"power_matrix_{tag}.csv"))
        payload = power_matrix_payload(pm, jpd)
        write_json(os.path.join(out_dir, f"power_matrix_{tag}.json"), payload)
        energy = payload["total_annual_energy_GWh"] * (1.0 if design.dual else 2.0)
        rows.append(
            {
                "label": label,
                "distance_m": distance,
                "annual_energy_GWh": energy if pm.stable else None,
            }
        )

    table_csv = os.path.join(out_dir, "aep_table.csv")
    with open(table_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "distance_m", "annual_energy_GWh"])
        for row in rows:
            energy = row["annual_energy_GWh"]
            writer.writerow(
                [
                    row["label"],
                    "" if row["distance_m"] == "" else format_number(row["distance_m"]),
                    "" if energy is None else format_number(energy),
                ]
            )
    table_json = os.path.join(out_dir, "aep_table.json")
    write_json(
        table_json,
        {
            "jpd_file": os.path.abspath(args.jpd),
            "heading_deg": args.heading,
            "config": single.describe(),
            "rows": rows,
        },
    )
    for row in rows:
        energy = row["annual_energy_GWh"]
        print(f"{row['label']}: {'unstable' if energy is None else f'{energy:.4f} GWh'}")
    print(f"-> {table_csv}, {table_json}")
    return EXIT_OK


def _cmd_verify(args, run_config: RunConfig) -> int:
    if args.cases < 1:
        raise InvalidInputError(f"--cases must be >= 1, got {args.cases}")
    outcome = run_verification(
        n_cases=args.cases,
        seed=run_config.seed,
        integration=run_config.model.integration,
    )
    print(format_report(outcome))
    failed = sum(1 for _, failures in outcome.cases if failures)
    _note_unsettled("verify", outcome.steady.count(False), len(outcome.cases), "cases", failed)
    if not outcome.passed:
        print("oswec: verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
