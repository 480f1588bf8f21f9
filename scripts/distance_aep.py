#!/usr/bin/env python3
"""Annual energy production versus separation distance: runs ``oswec aep``
on configs/reference.json (partial power matrices for the seven studied
spacings plus the doubled single-flap baseline, weighted by a sea-state
occurrence table) and prints the spread of the dual totals.
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
    parser.add_argument("--jpd", default=str(REPO / "data" / "sample_jpd.csv"))
    args = parser.parse_args()

    code = oswec_main(
        [
            str(REPO / "configs" / "reference.json"),
            "--out", args.out,
            "--workers", str(args.workers),
            "aep", "--jpd", args.jpd,
        ]
    )
    if code != 0:
        return code
    rows = json.loads((pathlib.Path(args.out) / "aep_table.json").read_text())["rows"]
    totals = [row["annual_energy_GWh"] for row in rows if row["distance_m"] != ""]
    spread = (max(totals) - min(totals)) / (sum(totals) / len(totals))
    print(f"\nspread across distances: {spread:.2%} of the mean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
