#!/usr/bin/env python3
"""Heading study: power loss versus wave direction for the 45 m pair under
the most-occurring wave (8.5 s, 1.75 m), headings 0-45 degrees. Runs
``oswec sweep --study heading`` on configs/reference.json and prints the
losses from the written JSON.
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
            "sweep", "--study", "heading",
        ]
    )
    if code != 0:
        return code
    report = json.loads((pathlib.Path(args.out) / "sweep_heading.json").read_text())

    print(f"\n{'beta [deg]':>10s} {'front rms [rad]':>16s} {'back rms [rad]':>15s} "
          f"{'total power [kW]':>17s} {'loss':>7s}")
    for row in report["rows"].values():
        if row["error"]:
            print(f"{row['heading_deg']:10.0f} {row['error']}")
            continue
        print(
            f"{row['heading_deg']:10.0f} {row['front_rms_rad']:16.4f} "
            f"{row['back_rms_rad']:15.4f} {row['total_power_W'] / 1e3:17.1f} "
            f"{row['power_loss_fraction']:7.2%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
