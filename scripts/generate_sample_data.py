#!/usr/bin/env python3
"""Regenerate the shipped sample data files deterministically.

Writes data/sample_jpd.csv (synthetic sea-state occurrence table),
data/sample_coefficients.csv (demo coefficient table consistent with the
reference kernel), and data/sample_transfer.csv (demo per-period transfer).
"""

import csv
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from oswec import Environment, analytic_coupling, solve_dispersion  # noqa: E402
from oswec.config import (  # noqa: E402
    REFERENCE_ADDED_INERTIA,
    REFERENCE_ALPHA,
    REFERENCE_DAMPING,
    REFERENCE_GAMMA,
)

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"

TE_BINS = [7.5 + 0.5 * i for i in range(9)]  # s
HS_BINS = [1.25 + 0.5 * i for i in range(9)]  # m, 1.25 .. 5.25


def write_jpd():
    """Synthetic partial JPD: occurrence peak at (1.75 m, 8.5 s), an
    energy-weighted secondary bump of taller longer waves near 10.5 s,
    total occurrence 0.85 (the remaining sea states are out of the studied
    window). Entirely synthetic - not site measurements.
    """
    raw = np.zeros((len(HS_BINS), len(TE_BINS)))
    for i, hs in enumerate(HS_BINS):
        for j, te in enumerate(TE_BINS):
            raw[i, j] = math.exp(-(((hs - 1.75) / 1.1) ** 2) - ((te - 8.5) / 1.5) ** 2)
            raw[i, j] += 0.35 * math.exp(-(((hs - 3.25) / 1.3) ** 2) - ((te - 10.5) / 1.2) ** 2)
    raw[raw < 0.02] = 0.0
    occ = np.round(raw * (0.85 / raw.sum()), 5)
    assert occ.sum() <= 1.0
    with open(DATA / "sample_jpd.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([r"hs_m\te_s"] + [format(t, "g") for t in TE_BINS])
        for i, hs in enumerate(HS_BINS):
            writer.writerow([format(hs, "g")] + [format(x, "g") for x in occ[i]])
    print(f"sample_jpd.csv: {int((occ > 0).sum())} nonzero cells, total {occ.sum():.5f}")


def write_coefficient_table():
    """Demo table: reference-kernel coefficients evaluated on a small grid."""
    env = Environment()
    periods = [7.5, 8.5, 9.5, 10.5, 11.5]
    distances = [10.0, 33.0, 55.0, 86.0]
    with open(DATA / "sample_coefficients.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period_s", "distance_m", "Ia", "C", "Ia_lr", "C_lr"])
        for t in periods:
            k = solve_dispersion(t, env)
            for d in distances:
                coupling = analytic_coupling(
                    REFERENCE_ADDED_INERTIA, REFERENCE_DAMPING, d, k, REFERENCE_ALPHA
                )
                writer.writerow(
                    [
                        format(t, "g"),
                        format(d, "g"),
                        *(
                            format(x, ".6g")
                            for x in (REFERENCE_ADDED_INERTIA, REFERENCE_DAMPING, *coupling)
                        ),
                    ]
                )
    print(f"sample_coefficients.csv: {len(periods)}x{len(distances)} grid")


def write_transfer_table():
    """Demo per-period transfer with a mild peak near the flap resonance."""
    periods = [7.5, 8.5, 9.5, 10.5, 11.5]
    with open(DATA / "sample_transfer.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period_s", "gamma_Nm_per_m"])
        for t in periods:
            gamma = REFERENCE_GAMMA * (1.0 + 0.1 * math.exp(-(((t - 9.5) / 1.5) ** 2)))
            writer.writerow([format(t, "g"), format(gamma, ".6g")])
    print(f"sample_transfer.csv: {len(periods)} points")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    write_jpd()
    write_coefficient_table()
    write_transfer_table()
