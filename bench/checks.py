"""Output checks for the benchmark workloads.

Every check compares what ``oswec`` wrote against the benchmark's own
frequency-domain solution (``oracle.py``) or against a property the method
must have; none compares against a stored copy of earlier output. Each
check returns the number of failed operations (those the program itself
reported as errors) and a list of problems. An operation the program
reported as an error is both failed and a problem, since every ``error``
field must be empty.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field

from oracle import FlapModel, dual_power, single_power

HOURS_PER_YEAR = 8766.0
# today's worst gap to the frequency-domain solution is about 0.52% (front
# flap, Te = 9.5 s, d = 10 m); a 5% error in one cell must still show
POWER_RTOL = 0.01
# values written with 12 significant digits
FORMAT_RTOL = 1e-9
VERIFY_PROPERTIES = ("oracle-amplitude", "oracle-phase", "energy-balance", "linearity")

_TOKEN_SEP = re.compile(r"[,=\s]+")
_ERROR_CELL = re.compile(r"^cell hs=([^ ]+) te=([^:]+):")


@dataclass
class Outcome:
    """Failed operations (reported by the program) and problems in the rest."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _close(got: float, expected: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - expected) <= rtol * abs(expected)


def read_jpd(path) -> dict[tuple[float, float], float]:
    """Occurrence per (Hs, Te) from a JPD CSV (header ``hs_m\\te_s,<periods>``)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    periods = [float(c) for c in rows[0][1:]]
    return {
        (float(row[0]), te): float(cell)
        for row in rows[1:]
        for te, cell in zip(periods, row[1:])
    }


def _nonfinite_tokens(text: str) -> list[str]:
    bad = []
    for token in _TOKEN_SEP.split(text):
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            bad.append(token)
    return bad


def scan_nonfinite(out_dir) -> list[str]:
    """Every output file holding a NaN or infinite value.

    JSON files are parsed (``NaN``/``Infinity`` constants); other files are
    split into tokens at commas, ``=`` and whitespace, and every token that
    parses as a number must be finite.
    """
    problems = []
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            if name.endswith(".json"):
                bad: list[str] = []
                json.load(fh, parse_constant=bad.append)
            else:
                bad = _nonfinite_tokens(fh.read())
        if bad:
            problems.append(f"{name}: non-finite value {bad[0]!r}")
    return problems


def _data_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _float(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        return math.nan


def check_power_matrix(
    path, json_path, jpd: dict, model: FlapModel, distance: float | None
) -> tuple[Outcome, float]:
    """One power matrix against the oracle and the JPD; returns its AEP [GWh].

    ``distance`` None means the single-flap baseline.
    """
    out = Outcome()
    tag = os.path.basename(path)
    with open(json_path, encoding="utf-8") as fh:
        errors = json.load(fh).get("errors", [])
    errored = set()
    for message in errors:
        match = _ERROR_CELL.match(message)
        if match:
            errored.add((float(match.group(1)), float(match.group(2))))
        out.problems.append(f"{tag}: error entry {message!r}")
    out.failed = len(errors)

    rows = {}
    for row in _data_rows(path):
        rows[(_float(row, "hs_m"), _float(row, "te_s"))] = row
    missing = sorted(set(jpd) - set(rows))
    extra = sorted(set(rows) - set(jpd))
    if missing:
        out.problems.append(f"{tag}: missing cells {missing}")
    if extra:
        out.problems.append(f"{tag}: cells not in the JPD {extra}")

    flap_cols = ("power_W",) if distance is None else ("power_front_W", "power_back_W")
    energy_wh = 0.0
    for (hs, te), row in sorted(rows.items()):
        occ = jpd.get((hs, te), 0.0)
        total = _float(row, "power_total_W")
        energy_wh += total * occ * HOURS_PER_YEAR
        if (hs, te) in errored:
            continue
        computed = row.get("computed") == "1"
        if computed != (occ > 0.0):
            out.problems.append(f"{tag}: cell ({hs:g}, {te:g}) computed={computed} but occurrence {occ}")
            continue
        if not computed:
            if any(_float(row, c) != 0.0 for c in flap_cols):
                out.problems.append(f"{tag}: skipped cell ({hs:g}, {te:g}) has non-zero power")
            continue
        if row.get("steady") != "1":
            out.problems.append(f"{tag}: cell ({hs:g}, {te:g}) is not steady")
        if distance is None:
            expected = (single_power(model, hs, te),)
        else:
            expected = dual_power(model, hs, te, distance)
        got = tuple(_float(row, c) for c in flap_cols)
        for col, g, e in zip(flap_cols, got, expected):
            if not _close(g, e, POWER_RTOL):
                out.problems.append(f"{tag}: cell ({hs:g}, {te:g}) {col}={g} vs oracle {e:.6g}")
        if not _close(total, sum(got), FORMAT_RTOL):
            out.problems.append(f"{tag}: cell ({hs:g}, {te:g}) total {total} != sum of flaps")
    return out, energy_wh / 1e9


def check_aep(out_dir, jpd_path, model: FlapModel, distances) -> Outcome:
    """Power matrices, AEP table and its derived rows of one ``oswec aep`` run."""
    out = Outcome()
    jpd = read_jpd(jpd_path)
    designs = [("single", None)] + [(f"d{format(float(d), 'g')}", float(d)) for d in distances]
    aep = {}
    for tag, distance in designs:
        path = os.path.join(out_dir, f"power_matrix_{tag}.csv")
        json_path = os.path.join(out_dir, f"power_matrix_{tag}.json")
        if not (os.path.exists(path) and os.path.exists(json_path)):
            out.problems.append(f"power matrix {tag} was not written")
            continue
        sub, aep[tag] = check_power_matrix(path, json_path, jpd, model, distance)
        out.failed += sub.failed
        out.problems += sub.problems

    table_path = os.path.join(out_dir, "aep_table.csv")
    if not os.path.exists(table_path):
        out.problems.append("aep_table.csv was not written")
        return out
    table = {row["label"]: _float(row, "annual_energy_GWh") for row in _data_rows(table_path)}
    expected = {"single_doubled": 2.0 * aep["single"]} if "single" in aep else {}
    expected.update({f"dual_{tag}": aep[tag] for tag, d in designs[1:] if tag in aep})
    if set(table) != {"single_doubled"} | {f"dual_{tag}" for tag, _ in designs[1:]}:
        out.problems.append(f"aep_table.csv rows {sorted(table)} do not match the designs")
    for label, value in expected.items():
        if label in table and not _close(table[label], value, FORMAT_RTOL):
            out.problems.append(
                f"aep_table.csv {label}={table[label]} but the power matrix and JPD give {value:.12g}"
            )
    out.problems += scan_nonfinite(out_dir)
    return out


def check_wave_sweep(out_dir, model: FlapModel, distances, periods, height: float) -> Outcome:
    """Every row of ``sweep_wave.csv`` against the oracle, plus the JSON report."""
    out = Outcome()
    path = os.path.join(out_dir, "sweep_wave.csv")
    json_path = os.path.join(out_dir, "sweep_wave.json")
    if not (os.path.exists(path) and os.path.exists(json_path)):
        out.problems.append("sweep_wave.csv/json were not written")
        return out
    rows = {}
    for row in _data_rows(path):
        key = (_float(row, "distance_m"), _float(row, "period_s"), _float(row, "height_m"))
        if key in rows:
            out.problems.append(f"duplicate sweep row {key}")
        rows[key] = row
    grid = {(float(d), float(p), float(height)) for d in distances for p in periods}
    if set(rows) != grid:
        out.problems.append(
            f"sweep rows differ from the grid: missing {sorted(grid - set(rows))}, "
            f"extra {sorted(set(rows) - grid)}"
        )
    for (d, te, h), row in sorted(rows.items()):
        where = f"sweep row (d={d:g}, Te={te:g}, H={h:g})"
        if row.get("error"):
            out.failed += 1
            out.problems.append(f"{where}: error {row['error']!r}")
            continue
        if row.get("steady") != "True":
            out.problems.append(f"{where}: not steady")
        if not _close(_float(row, "d_over_lambda"), model.d_over_lambda(d, te), FORMAT_RTOL):
            out.problems.append(f"{where}: d_over_lambda={row.get('d_over_lambda')}")
        front, back = dual_power(model, h, te, d)
        single = single_power(model, h, te)
        for col, expected in (
            ("front_power_W", front),
            ("back_power_W", back),
            ("single_power_W", single),
        ):
            got = _float(row, col)
            if not _close(got, expected, POWER_RTOL):
                out.problems.append(f"{where}: {col}={got} vs oracle {expected:.6g}")
    with open(json_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    nested = payload.get("rows", {})
    count = sum(len(by_h) for by_te in nested.values() for by_h in by_te.values())
    if count != len(rows):
        out.problems.append(f"sweep_wave.json holds {count} rows, the CSV {len(rows)}")
    out.problems += scan_nonfinite(out_dir)
    return out


def check_verify(stdout_text: str, returncode: int, n_cases: int) -> Outcome:
    """Exit code 0 and an ``N/N cases ok`` PASS line for every property."""
    out = Outcome()
    if returncode != 0:
        out.problems.append(f"oswec verify exited {returncode}")
    lines = set(stdout_text.splitlines())
    for prop in VERIFY_PROPERTIES:
        expected = f"PASS {prop}: {n_cases}/{n_cases} cases ok"
        if expected not in lines:
            out.problems.append(f"missing {expected!r}")
    return out
