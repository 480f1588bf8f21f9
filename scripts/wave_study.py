#!/usr/bin/env python3
"""Wave-forced study: dual-flap response versus the single flap over
separation distances 10/45/70 m, periods 7.5-11.5 s, and two wave heights.
Runs ``oswec sweep --study wave`` on configs/reference.json and prints the
1.75 m rows from the written JSON.
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
            "sweep", "--study", "wave",
            "--distances", "10,45,70",
        ]
    )
    if code != 0:
        return code
    report = json.loads((pathlib.Path(args.out) / "sweep_wave.json").read_text())

    print(f"\n{'d [m]':>6s} {'Te [s]':>7s} {'H [m]':>6s} {'d/lambda':>9s} {'band':>10s} "
          f"{'front/single':>13s} {'back/single':>12s}")
    for by_period in report["rows"].values():
        for by_height in by_period.values():
            row = by_height["1.75"]
            ratios = (
                f"{row['front_rms_ratio']:13.3f} {row['back_rms_ratio']:12.3f}"
                if not row["error"]
                else row["error"]
            )
            print(
                f"{row['distance_m']:6.0f} {row['period_s']:7.1f} {row['height_m']:6.2f} "
                f"{row['d_over_lambda']:9.3f} {row['band']:>10s} {ratios}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
