#!/usr/bin/env python3
"""Torque-forced study: five excitation scenarios against the single-flap
baseline over three separation distances and four excitation periods.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from oswec import reference_model  # noqa: E402
from oswec.sweep import SweepPlan, run_torque_study  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    plan = SweepPlan(
        distances=(10.0, 45.0, 70.0),
        torque_amplitudes=(0.6e6, 1.0e6),
    )
    report = run_torque_study(plan, reference_model(), workers=args.workers)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "torque_study.csv")
    report.to_json(out / "torque_study.json")

    print(f"{'scenario':24s} {'d [m]':>6s} {'Te [s]':>7s} {'left/single':>12s} {'right/single':>13s}")
    for row in report.rows:
        if row["torque_Nm"] != 0.6e6:
            continue
        print(
            f"{row['scenario']:24s} {row['distance_m']:6.0f} {row['period_s']:7.1f} "
            f"{row['left_rms_ratio']:12.3f} {row['right_rms_ratio']:13.3f}"
        )
    print(f"\n{len(report.rows)} rows -> {out / 'torque_study.csv'}")


if __name__ == "__main__":
    main()
