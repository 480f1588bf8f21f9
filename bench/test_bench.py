"""Self-tests of the benchmark: the oracle, the output checks and a smoke run.

    python3 -m pytest bench -q
"""

import csv
import json
import math
import os
import shutil
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from oracle import FlapModel, dual_power, single_power, solve_1dof  # noqa: E402

REFERENCE = {
    "environment": {"gravity_m_per_s2": 9.81, "water_depth_m": "deep"},
    "flap": {"inertia_dry_kg_m2": 8.0e6, "stiffness_Nm_per_rad": 4.375e6},
    "coefficients": {"analytic": {"added_inertia_kg_m2": 2.0e6, "damping_Nm_s_per_rad": 1.0e6,
                                  "alpha": 0.05, "eps": 0.1}},
    "transfer": {"gamma_Nm_per_m": 1.0e6 / 0.875, "eta": 0.1},
    "pto": {"damping_Nm_s_per_rad": 5.0e5, "included_in_damping": True},
}


def test_oracle_closed_form_resonance():
    mass, damping, stiffness, torque = 1.0e7, 1.0e6, 4.375e6, 0.6e6
    omega = math.sqrt(stiffness / mass)
    theta = solve_1dof(mass, damping, stiffness, omega, torque)
    assert abs(theta) == pytest.approx(torque / (omega * damping), rel=1e-12)
    model = FlapModel.from_config(REFERENCE)
    force = model.gamma * 0.5 * 1.75
    expected = 0.5 * model.pto_damping * (force / model.damping) ** 2
    assert single_power(model, 1.75, 2.0 * math.pi / omega) == pytest.approx(expected, rel=1e-12)


def test_oracle_pair_without_coupling_is_two_single_flaps():
    cfg = {**REFERENCE, "transfer": {"gamma_Nm_per_m": 1.0e6, "eta": 0.0}}
    cfg["coefficients"] = {"analytic": {**REFERENCE["coefficients"]["analytic"], "alpha": 0.0}}
    model = FlapModel.from_config(cfg)
    front, back = dual_power(model, 2.25, 8.5, 33.0)
    assert front == pytest.approx(single_power(model, 2.25, 8.5), rel=1e-12)
    assert back == pytest.approx(front, rel=1e-12)


def _spawn_round(workload, tmp_path, seed=3):
    run_dir = str(tmp_path / workload.name)
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(out_dir)
    argv = workload.prepare(run_dir, seed, out_dir)
    _timing, rc, stdout_text, _ = run.Runner(run_dir, argv, time.monotonic() + 120).spawn("run")
    return out_dir, stdout_text, rc


@pytest.fixture(scope="module")
def aep_round(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("aep")
    jpd = tmp / "tiny_jpd.csv"
    jpd.write_text("hs_m\\te_s,9.5,10\n1.25,0.2,0.1\n1.75,0.3,0\n", encoding="utf-8")
    workload = run.AepSite(distances=(10.0,), heights=1, jpd=str(jpd))
    out_dir, stdout_text, rc = _spawn_round(workload, tmp)
    return workload, out_dir, stdout_text, rc


@pytest.fixture(scope="module")
def sweep_round(tmp_path_factory):
    workload = run.WaveSweep(distances=(10.0, 45.0), periods=(9.5,))
    out_dir, stdout_text, rc = _spawn_round(workload, tmp_path_factory.mktemp("sweep"))
    return workload, out_dir, stdout_text, rc


def _copy(out_dir, tmp_path):
    dst = tmp_path / "corrupt"
    shutil.copytree(out_dir, dst)
    return str(dst)


def _edit_rows(path, match, edit):
    """Rewrite the CSV data rows for which ``match(row)`` holds; ``edit`` returns the new row or None."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    comments = [i for i, line in enumerate(lines) if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    header = next(csv.reader(data[:1]))
    out = [data[0]]
    hits = 0
    for row in csv.DictReader(data):
        if match(row) and hits == 0:
            hits += 1
            row = edit(row)
            if row is None:
                continue
        out.append(",".join(row[k] for k in header) + "\n")
    assert hits == 1
    prefix = [lines[i] for i in comments if i == 0]
    suffix = [lines[i] for i in comments if i > 0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(prefix + out + suffix)


def _scaled(key, factor):
    def edit(row):
        row[key] = format(float(row[key]) * factor, ".12g")
        return row
    return edit


def _set(key, value):
    def edit(row):
        row[key] = value
        return row
    return edit


def _check_aep(workload, out_dir):
    return checks.check_aep(out_dir, workload.jpd_path, workload.model, workload.distances)


def test_aep_round_passes(aep_round):
    workload, out_dir, _, rc = aep_round
    assert rc == 0
    outcome = _check_aep(workload, out_dir)
    assert outcome.problems == [] and outcome.failed == 0
    assert workload.items == 4  # the one full row at two periods, single and dual


@pytest.mark.parametrize(
    "edit",
    [
        _scaled("power_front_W", 1.05),
        _set("power_back_W", "nan"),
        lambda row: None,
        _set("steady", "0"),
    ],
    ids=["power_x1.05", "nan", "missing_row", "not_steady"],
)
def test_aep_check_rejects_corrupted_cell(aep_round, tmp_path, edit):
    workload, out_dir, _, _ = aep_round
    bad = _copy(out_dir, tmp_path)
    _edit_rows(os.path.join(bad, "power_matrix_d10.csv"), lambda r: r["computed"] == "1", edit)
    assert _check_aep(workload, bad).problems


def test_aep_check_rejects_single_baseline_scaled(aep_round, tmp_path):
    workload, out_dir, _, _ = aep_round
    bad = _copy(out_dir, tmp_path)
    _edit_rows(os.path.join(bad, "power_matrix_single.csv"), lambda r: r["computed"] == "1",
               _scaled("power_W", 1.05))
    assert _check_aep(workload, bad).problems


def test_aep_check_rejects_wrong_table_row(aep_round, tmp_path):
    workload, out_dir, _, _ = aep_round
    bad = _copy(out_dir, tmp_path)
    _edit_rows(os.path.join(bad, "aep_table.csv"), lambda r: r["label"] == "single_doubled",
               _scaled("annual_energy_GWh", 0.5))
    assert _check_aep(workload, bad).problems


def test_aep_check_rejects_reported_error_cell(aep_round, tmp_path):
    workload, out_dir, _, _ = aep_round
    bad = _copy(out_dir, tmp_path)
    path = os.path.join(bad, "power_matrix_d10.json")
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["errors"] = ["cell hs=1.25 te=9.5: state became non-finite at step 7"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    outcome = _check_aep(workload, bad)
    assert outcome.failed == 1 and outcome.problems


def _check_sweep(workload, out_dir):
    return checks.check_wave_sweep(out_dir, workload.model, workload.distances,
                                   workload.periods, workload.height)


def test_sweep_round_passes(sweep_round):
    workload, out_dir, _, rc = sweep_round
    assert rc == 0
    outcome = _check_sweep(workload, out_dir)
    assert outcome.problems == [] and outcome.failed == 0


@pytest.mark.parametrize(
    "edit",
    [
        _scaled("back_power_W", 1.05),
        _scaled("single_power_W", 1.05),
        _set("front_power_W", "nan"),
        lambda row: None,
        _set("steady", "False"),
        _scaled("d_over_lambda", 1.001),
    ],
    ids=["power_x1.05", "single_x1.05", "nan", "missing_row", "not_steady", "d_over_lambda"],
)
def test_sweep_check_rejects_corrupted_row(sweep_round, tmp_path, edit):
    workload, out_dir, _, _ = sweep_round
    bad = _copy(out_dir, tmp_path)
    _edit_rows(os.path.join(bad, "sweep_wave.csv"), lambda r: r["distance_m"] == "10", edit)
    assert _check_sweep(workload, bad).problems


def test_sweep_check_rejects_reported_error_row(sweep_round, tmp_path):
    workload, out_dir, _, _ = sweep_round
    bad = _copy(out_dir, tmp_path)
    _edit_rows(os.path.join(bad, "sweep_wave.csv"), lambda r: r["distance_m"] == "10",
               _set("error", "state became non-finite at step 7"))
    outcome = _check_sweep(workload, bad)
    assert outcome.failed == 1 and outcome.problems


def test_nonfinite_scan_reads_json_reports(sweep_round, tmp_path):
    _, out_dir, _, _ = sweep_round
    bad = _copy(out_dir, tmp_path)
    path = os.path.join(bad, "sweep_wave.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace('"front_power_W": ', '"front_power_W": NaN, "was": ', 1))
    assert checks.scan_nonfinite(bad)


def test_verify_check():
    good = "\n".join(f"PASS {p}: 3/3 cases ok" for p in checks.VERIFY_PROPERTIES)
    assert checks.check_verify(good, 0, 3).problems == []
    assert checks.check_verify(good, 3, 3).problems
    assert checks.check_verify(good.replace("PASS linearity: 3/3", "FAIL linearity: 2/3"), 0, 3).problems
    assert checks.check_verify(good, 0, 4).problems


def test_missing_wrap_point_is_reported_missing_not_zero():
    trace = {"spans": [["cli.main", 0.0, 1.0, None, None]], "missing": ["oswec.verify.integrate"]}
    metrics = spans.per_layer_metrics([trace], cells=1, steps_per_period=200, overhead_s=0.0)
    assert metrics["dynamics.integrate.calls"]["value"] is None
    assert metrics["dynamics.integrate.us_per_step"]["value"] is None
    assert metrics["cli.main.self_s"]["value"] == pytest.approx(1.0)


def test_self_time_subtracts_children():
    trace = [
        ["cli.main", 0.0, 10.0, None, None],
        ["dynamics.integrate", 1.0, 4.0, 0, {"cycles": 20}],
        ["dynamics.integrate", 5.0, 9.0, 0, {"cycles": 30}],
    ]
    totals = spans.layer_totals(trace)
    assert totals["cli.main"]["self_s"] == pytest.approx(3.0)
    assert totals["dynamics.integrate"]["self_s"] == pytest.approx(7.0)
    assert totals["dynamics.integrate"]["periods"] == 50


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_smoke_run_one_distance_one_period(tmp_path, trace):
    start = time.monotonic()
    workload = run.WaveSweep(distances=(45.0,), periods=(8.5,))
    result, problems = run.run(workload, seed=7, seconds=0.1, trace=trace, run_dir=str(tmp_path))
    assert time.monotonic() - start < 30.0
    assert problems == [] and result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    names = set(spans.PER_LAYER) | {spans.OVERHEAD_METRIC} if trace else {
        "cpu_s", "setup_s", "peak_rss_mb"}
    assert set(result["metrics"]) == names
    assert all(m["value"] is not None for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["dynamics.integrate.calls_per_cell"]["value"] == 2.0
