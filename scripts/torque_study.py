#!/usr/bin/env python3
"""Torque-forced study: five excitation scenarios against the single-flap
baseline over three separation distances and four excitation periods.
Runs ``oswec sweep --study torque`` on configs/reference.json at 0.6 and
1.0 MN m and prints the 0.6 MN m RMS ratios from the written JSON.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from oswec.cli import main as oswec_main  # noqa: E402

REPO = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    code = oswec_main(
        [
            str(REPO / "configs" / "reference.json"),
            "--out", args.out,
            "--workers", str(args.workers),
            "sweep", "--study", "torque",
            "--distances", "10,45,70",
            "--amplitudes", "600000,1000000",
        ]
    )
    if code != 0:
        return code
    report = json.loads((pathlib.Path(args.out) / "sweep_torque.json").read_text())

    print(f"\n{'scenario':24s} {'d [m]':>6s} {'Te [s]':>7s} {'left/single':>12s} {'right/single':>13s}")
    for by_distance in report["rows"].values():
        for by_period in by_distance.values():
            for by_torque in by_period.values():
                row = by_torque["600000"]
                ratios = (
                    f"{row['left_rms_ratio']:12.3f} {row['right_rms_ratio']:13.3f}"
                    if not row["error"]
                    else row["error"]
                )
                print(
                    f"{row['scenario']:24s} {row['distance_m']:6.0f} "
                    f"{row['period_s']:7.1f} {ratios}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
