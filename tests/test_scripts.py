import csv
import importlib.util
import subprocess
import sys

import pytest


def test_distance_aep_script(repo_root, tmp_path):
    # one JPD cell keeps the run to the baseline plus seven dual integrations
    jpd = tmp_path / "jpd.csv"
    jpd.write_text("hs_m\\te_s,9.5\n1.75,0.5\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(repo_root / "scripts" / "distance_aep.py"),
         "--out", str(out), "--workers", "1", "--jpd", str(jpd)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out / "aep_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert rows[0]["label"] == "single_doubled"
    assert "spread across distances" in proc.stdout


STUDY_SCRIPTS = {
    # script: (rows written, a line its summary prints)
    "torque_study.py": (120, "right-only-left-fixed        10     7.5        0.000         1.000"),
    "wave_study.py": (54, "d/lambda"),
    "heading_study.py": (10, "loss"),
}


def run_script(repo_root, name, *args):
    return subprocess.run(
        [sys.executable, str(repo_root / "scripts" / name), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(STUDY_SCRIPTS))
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_study_script_rejects_bad_workers(repo_root, tmp_path, name, workers):
    proc = run_script(repo_root, name, "--out", str(tmp_path), "--workers", workers)
    assert proc.returncode == 1
    assert "--workers must be >= 1" in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", sorted(STUDY_SCRIPTS))
def test_study_script_smoke(repo_root, tmp_path, name):
    rows, line = STUDY_SCRIPTS[name]
    proc = run_script(repo_root, name, "--out", str(tmp_path), "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    study = name.split("_")[0]
    assert f"{rows} rows (0 failed)" in proc.stdout
    assert line in proc.stdout
    with open(tmp_path / f"sweep_{study}.csv", newline="") as fh:
        assert sum(1 for _ in fh) == 2 + rows


def test_sample_data_generator_reproduces_data(repo_root, data_dir, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "generate_sample_data", repo_root / "scripts" / "generate_sample_data.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.DATA = tmp_path
    module.write_jpd()
    module.write_coefficient_table()
    module.write_transfer_table()
    names = ["sample_coefficients.csv", "sample_jpd.csv", "sample_transfer.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name
