#!/usr/bin/env python3
"""Wave-forced study: dual-flap response versus the single flap over
separation distances 10/45/70 m, periods 7.5-11.5 s, and two wave heights.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from oswec import reference_model  # noqa: E402
from oswec.sweep import SweepPlan, run_wave_study  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    plan = SweepPlan(distances=(10.0, 45.0, 70.0))
    report = run_wave_study(plan, reference_model(), workers=args.workers)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "wave_study.csv")
    report.to_json(out / "wave_study.json")

    print(f"{'d [m]':>6s} {'Te [s]':>7s} {'H [m]':>6s} {'d/lambda':>9s} {'band':>10s} "
          f"{'front/single':>13s} {'back/single':>12s}")
    for row in report.rows:
        if row["height_m"] != 1.75:
            continue
        print(
            f"{row['distance_m']:6.0f} {row['period_s']:7.1f} {row['height_m']:6.2f} "
            f"{row['d_over_lambda']:9.3f} {row['band']:>10s} "
            f"{row['front_rms_ratio']:13.3f} {row['back_rms_ratio']:12.3f}"
        )
    print(f"\n{len(report.rows)} rows -> {out / 'wave_study.csv'}")


if __name__ == "__main__":
    main()
