import json
import os
import subprocess
import sys
from pathlib import Path

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
