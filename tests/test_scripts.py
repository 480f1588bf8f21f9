import csv
import subprocess
import sys


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
