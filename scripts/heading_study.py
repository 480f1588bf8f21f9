#!/usr/bin/env python3
"""Heading study: power loss versus wave direction for the 45 m pair under
the most-occurring wave (8.5 s, 1.75 m), headings 0-45 degrees.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from oswec import reference_model  # noqa: E402
from oswec.sweep import SweepPlan, run_heading_study  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    report = run_heading_study(SweepPlan(), reference_model(), workers=args.workers)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "heading_study.csv")
    report.to_json(out / "heading_study.json")

    print(f"{'beta [deg]':>10s} {'front rms [rad]':>16s} {'back rms [rad]':>15s} "
          f"{'total power [kW]':>17s} {'loss':>7s}")
    for row in report.rows:
        print(
            f"{row['heading_deg']:10.0f} {row['front_rms_rad']:16.4f} "
            f"{row['back_rms_rad']:15.4f} {row['total_power_W'] / 1e3:17.1f} "
            f"{row['power_loss_fraction']:7.2%}"
        )
    print(f"\n{len(report.rows)} rows -> {out / 'heading_study.csv'}")


if __name__ == "__main__":
    main()
