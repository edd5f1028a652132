import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainlab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, cwd, *argv):
    """Run a script from scripts/ on the imported package's source tree."""
    env = dict(os.environ)
    src = str(Path(chainlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300, env=env)


def test_revival_report_at_defaults_records_failures(tmp_path):
    proc = run_script("revival_report.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "revival_out" / "revival_report.json").read_text())
    assert [row["delta"] for row in rows] == [100.0, 300.0, 1000.0, 3000.0]
    # at delta 100 the leaky block is not re-unitarized, so the invariants refuse it
    assert rows[0] == {"delta": 100.0, "failure": rows[0]["failure"]}
    assert "unitarity defect" in rows[0]["failure"]
    for row in rows[1:]:
        assert row["distance_to_target"] < 2e-3
        assert row["leakage"] < 1e-3


def test_sweep_defects_with_ising_fit(tmp_path):
    proc = run_script("sweep_defects.py", tmp_path, "--deltas", "10,100,1000")
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "sweep_out" / "defect_sweep.csv").read_text().splitlines()
    assert rows[0].startswith("delta,") and len(rows) == 4
    defects = [float(row.split(",")[2]) for row in rows[1:]]
    assert defects == sorted(defects, reverse=True)
    fit = json.loads((tmp_path / "sweep_out" / "ising_fit.json").read_text())
    assert fit["delta_grid"] == [10.0, 100.0, 1000.0]
    # distance falls one decade per detuning decade, leakage two
    assert abs(fit["distance_slope"] + 1.0) < 0.1
    assert abs(fit["leakage_slope"] + 2.0) < 0.1


def test_zeno_study_small_run(tmp_path):
    proc = run_script("zeno_study.py", tmp_path, "--trials", "200", "--gates", "4")
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "zeno_out" / "zeno_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["mode"], r["interval_gates"], r["n_collapse_points"]) for r in rows] == [
        (mode, k, n) for mode in ("independent", "systematic")
        for k, n in (("1", "4"), ("2", "2"), ("4", "1"), ("inf", "1"))]
    assert all(0.0 <= float(r["wrong_collapse_probability"]) <= 1.0 for r in rows)
    # collapsing after every gate suppresses the coherent systematic error
    systematic = {r["interval_gates"]: float(r["mean_fidelity"]) for r in rows
                  if r["mode"] == "systematic"}
    assert systematic["1"] > systematic["inf"]


@pytest.mark.parametrize("argv", [
    ("--trials", "0"), ("--gates", "0"), ("--modes", "bogus"),
    *[("--intervals", tok) for tok in ("0", "-2", "nan", "abc", "1.5")],
    ("--stddev", "-0.1"), ("--stddev", "nan"), ("--seed", "-1")])
def test_zeno_study_rejects_bad_arguments(tmp_path, argv):
    proc = run_script("zeno_study.py", tmp_path, *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and argv[0] in proc.stderr
    assert not (tmp_path / "zeno_out").exists()


@pytest.mark.parametrize("argv, message", [
    (("--threads", "0"), "--threads must be >= 1"),
    (("--threads", "-3"), "--threads must be >= 1"),
    (("--deltas", "abc"), "--deltas takes comma-separated numbers"),
    (("--deltas", "1000,300"), "--deltas: delta_values must be ascending"),
    (("--deltas", "nan,1000"), "--deltas: delta_values must be positive and finite")])
def test_sweep_defects_rejects_bad_arguments(tmp_path, argv, message):
    proc = run_script("sweep_defects.py", tmp_path, *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and message in proc.stderr
    assert not (tmp_path / "sweep_out").exists()


def test_refocus_scan_small_run(tmp_path):
    proc = run_script("refocus_scan.py", tmp_path, "--periods", "0.01,0.3")
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "refocus_out" / "refocus.csv").read_text().splitlines()
    assert rows[0] == "pulse_period,residual" and len(rows) == 3
    assert all(float(row.split(",")[1]) < 1e-4 for row in rows[1:])
    assert "unpulsed baseline at period=0.3" in proc.stdout
