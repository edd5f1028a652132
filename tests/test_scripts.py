import csv
import json
import os
import runpy
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


@pytest.mark.parametrize("name", ["revival_report.py", "sweep_defects.py"])
def test_script_leaves_blas_workers_idle(blas_worker_ticks, tmp_path, name):
    # unpinned, sweep_defects.py at its defaults spent 0.92-1.35 CPU s at
    # 0.47-0.71 s wall, against 0.64-0.81 CPU s on one BLAS thread
    worker_ticks, cpu_s = blas_worker_ticks(
        f"import runpy; sys.argv = [{name!r}, '--out', {str(tmp_path / 'out')!r}]; "
        f"runpy.run_path({str(SCRIPTS / name)!r}, run_name='__main__')")
    assert worker_ticks <= 2, f"BLAS workers took {worker_ticks} ticks of {cpu_s:.2f} CPU s"


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
    ("--stddev", "-0.1"), ("--stddev", "nan"), ("--seed", "-1"), ("--out", "/dev/null/out")])
def test_zeno_study_rejects_bad_arguments(tmp_path, argv):
    proc = run_script("zeno_study.py", tmp_path, *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and argv[0] in proc.stderr
    assert not (tmp_path / "zeno_out").exists()


def test_zeno_study_refuses_a_jitter_whose_hold_overflows(tmp_path):
    # a stddev of 1e308 draws duration factors past 1e307, whose holds overflow their phase
    proc = run_script("zeno_study.py", tmp_path, "--stddev", "1e308", "--trials", "10",
                      "--gates", "2")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("zeno_study.py: internal_error: ValueError: a hold of ")
    assert "overflows its phase" in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (("--threads", "0"), "--threads must be >= 1"),
    (("--threads", "-3"), "--threads must be >= 1"),
    (("--deltas", "abc"), "--deltas takes comma-separated numbers"),
    (("--deltas", "1000,300"), "--deltas: delta_values must be ascending"),
    (("--deltas", "nan,1000"),
     "--deltas: delta_values[0] = nan: delta must be positive and finite"),
    (("--coupling", "0"), "--coupling must be positive"),
    (("--coupling", "-1"), "--coupling must be positive"),
    (("--coupling", "inf"), "--coupling must be positive and finite"),
    (("--out", "/dev/null/out"), "--out: cannot create /dev/null/out"),
    (("--coupling", "1e300", "--deltas", "1e10,2e10"), "as must 2 delta J"),
    (("--coupling", "1e300", "--deltas", "8e7,9e7"), "chain's diagonal energy"),
    (("--coupling", "1e-310", "--deltas", "300,1000"),
     "--deltas: delta_values[0] = 300.0: the revival window at coupling 1e-310: "),
    (("--coupling", "1e-300", "--deltas", "300,1e308"),
     "--deltas: delta_values[1] = 1e+308: the revival window at coupling 1e-300: ")])
def test_sweep_defects_rejects_bad_arguments(tmp_path, argv, message):
    proc = run_script("sweep_defects.py", tmp_path, *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and message in proc.stderr
    assert not (tmp_path / "sweep_out").exists()


@pytest.mark.parametrize("argv, message", [
    (("--deltas", "abc"), "--deltas: could not convert string to float: 'abc'"),
    (("--deltas", "300,-5"), "--deltas: delta must be positive"),
    (("--coupling", "0"), "--coupling must be positive"),
    (("--pad", "-1"), "--pad must be >= 0"),
    (("--pad", "nan"), "--pad must be >= 0"),
    (("--coupling", "inf"), "--coupling must be positive and finite"),
    (("--out", "/dev/null/out"), "--out: cannot create /dev/null/out"),
    (("--coupling", "1e300", "--deltas", "1e10"), "as must 2 delta J"),
    (("--coupling", "1e300", "--deltas", "8e7"), "chain's diagonal energy"),
    # --pad is in units of 1/J: 1e306 at J = 1e10 is a hold of 1e296
    (("--coupling", "1e10", "--pad", "1e306", "--deltas", "300"), "--pad: a hold of 1e+296"),
    (("--coupling", "1e-310", "--deltas", "300"),
     "--deltas: the revival window at coupling 1e-310: "),
    (("--coupling", "1e-300", "--deltas", "1e308"),
     "--deltas: the revival window at coupling 1e-300: ")])
def test_revival_report_rejects_bad_arguments(tmp_path, argv, message):
    proc = run_script("revival_report.py", tmp_path, *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and message in proc.stderr
    assert not (tmp_path / "revival_out").exists()


def test_refocus_scan_small_run(tmp_path):
    proc = run_script("refocus_scan.py", tmp_path, "--periods", "0.01,0.3")
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "refocus_out" / "refocus.csv").read_text().splitlines()
    assert rows[0] == "pulse_period,residual" and len(rows) == 3
    assert all(float(row.split(",")[1]) < 1e-4 for row in rows[1:])
    assert "unpulsed baseline at period=0.3" in proc.stdout


@pytest.mark.parametrize("argv, message", [
    (("--periods", "abc"), "could not convert string to float: 'abc'"),
    (("--periods", "-1"), "segment duration must be positive"),
    (("--periods", "0.01,0"), "segment duration must be positive"),
    (("--delta", "-3"), "delta must be positive"),
    (("--cycles", "0"), "--cycles must be >= 1"),
    (("--periods", "0.01,inf"), "segment duration must be positive and finite"),
    (("--delta", "inf"), "delta must be positive and finite"),
    (("--out", "/dev/null/out"), "--out: cannot create /dev/null/out"),
    (("--periods", "1e300", "--delta", "1e300"), "a hold of 1e+300")])
def test_refocus_scan_rejects_bad_arguments(tmp_path, argv, message):
    proc = run_script("refocus_scan.py", tmp_path, *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and message in proc.stderr
    assert not (tmp_path / "refocus_out").exists()


@pytest.mark.parametrize("name, argv", [
    ("refocus_scan.py", ("--periods", "0.01,0.3")),
    ("revival_report.py", ("--deltas", "300,1000")),
    ("sweep_defects.py", ("--deltas", "300,1000")),
    ("zeno_study.py", ("--trials", "200", "--gates", "4"))])
def test_script_rerun_gives_byte_identical_output(tmp_path, monkeypatch, capsys, name, argv):
    # in-process, as the CLI's rerun test: the second run also meets warm caches
    monkeypatch.setattr(sys, "argv", [name, *argv])
    outputs = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
        files = sorted(p for p in (tmp_path / run).rglob("*") if p.is_file())
        outputs.append((capsys.readouterr().out,
                        {p.relative_to(tmp_path / run): p.read_bytes() for p in files}))
    assert outputs[0][1], "the script wrote no file"
    assert outputs[0] == outputs[1]
