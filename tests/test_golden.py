"""Golden artifacts: every command at its default config and every script at
its defaults, held to the files under tests/golden/.

Each run's file names and every non-numeric field must match exactly; each
number must lie within ATOL of its golden value.  On one machine a rerun is
byte-identical.  Across OpenBLAS kernels (OPENBLAS_CORETYPE unset, Haswell
and Sandybridge, one BLAS thread, on an AVX-512 Xeon) the numbers moved by
at most 8.6e-12 (revival_report invariant_deviation; pair_gate_report
conditional_phase 5.6e-12, six_settings edge_pair_mismatch 3.8e-12), so
ATOL = 1e-10 leaves a margin of about 12.  synthesize's BFGS starts land on
equivalent optima whose local angles differ by up to 18.8 rad across
kernels, at fidelities within 4.4e-16, so the angles are not compared:
circuit_fidelity of the fresh angles must reach the golden fidelity instead.

The same comparison is the J-scaling oracle of the commands.  Every duration
is in units of 1/J and every energy in units of J (model.py's H), so a run at
coupling J, with its times multiplied by J and its energies divided by J,
must match the J = 1 golden files.  Measured at J = 0.001 and 1000, the
largest deviation was 3.6e-11 (pair_gate_report conditional_phase at
J = 1000), a margin of about 3 to ATOL.

After a deliberate change to an artifact, regenerate the files with
    PYTHONPATH=src python tests/test_golden.py
and review the diff.
"""

import csv
import json
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from chainlab import cli, gates

ATOL = 1e-10
GOLDEN = Path(__file__).resolve().parent / "golden"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
RUNS = [*cli.COMMANDS, "revival_report", "sweep_defects", "zeno_study", "refocus_scan"]
# powers of J that make a field dimensionless: durations times J, energies over J
J_UNITS = {"revival_time": 1, "t_gate": 1, "t_r": 1, "collapse_interval": 1, "eps": -1}
J_SCALED = ("verify-g", "verify-m", "sweep", "zeno", "six-settings")


def produce(run, out, coupling=None):
    """Write the artifacts of one command or script at its defaults into out,
    the commands at the given coupling if one is given."""
    if run in cli.COMMANDS:
        argv = [run, "--out", str(out)]
        if coupling is not None:
            config = out.parent / f"{run}-coupling.json"
            config.write_text(json.dumps({"coupling": coupling}))
            argv += ["--config", str(config)]
        assert cli.main(argv) == 0
        return
    argv, sys.argv = sys.argv, [f"{run}.py", "--out", str(out)]
    try:
        runpy.run_path(str(SCRIPTS / f"{run}.py"), run_name="__main__")
    finally:
        sys.argv = argv


def _cell(text):
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def load(path):
    """An artifact as JSON values: a JSON file parsed, a CSV table as one dict
    per row, with its finite numbers parsed."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def deviations(fresh, golden, coupling=1.0, where="", key=None):
    """(path, |fresh - golden|) of every numeric leaf, the fresh value made
    dimensionless by J_UNITS at the given coupling; (path, inf) where a
    non-numeric leaf, a key set or a length differs.  local_angles are
    skipped (see check_synthesis)."""
    if key == "local_angles":
        return
    if _is_number(fresh) and _is_number(golden):
        yield where, abs(fresh * coupling ** J_UNITS.get(key, 0) - golden)
    elif isinstance(fresh, dict) and isinstance(golden, dict) and fresh.keys() == golden.keys():
        for k in golden:
            yield from deviations(fresh[k], golden[k], coupling, f"{where}/{k}", k)
    elif isinstance(fresh, list) and isinstance(golden, list) and len(fresh) == len(golden):
        for i, (f, g) in enumerate(zip(fresh, golden)):
            yield from deviations(f, g, coupling, f"{where}/{i}", key)
    elif fresh != golden:
        yield where, math.inf


def assert_matches_golden(run, out, coupling=1.0):
    golden = GOLDEN / run
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    worst = {}
    for name in names:
        for where, d in deviations(load(out / name), load(golden / name), coupling, name):
            worst[where] = max(worst.get(where, 0.0), d)
    off = {where: d for where, d in worst.items() if not d <= ATOL}
    assert not off, f"{len(off)} fields off the golden {run} by more than {ATOL}: {off}"


def check_synthesis(out):
    """Each job's fresh local angles reach its golden fidelity."""
    jobs = load(out / "synthesis.json")["jobs"]
    golden = load(GOLDEN / "synthesize" / "synthesis.json")["jobs"]
    for config, job, want in zip(cli.DEFAULT_CONFIG["synthesize"]["jobs"], jobs, golden):
        entangler = (gates.exchange_gate_target() if config["entangler"] == "exchange"
                     else gates.controlled_phase(config.get("phase", cli.ENTANGLING_PHASE)))
        fidelity = gates.circuit_fidelity(entangler, np.array(job["local_angles"]),
                                          gates.cnot_target())
        assert fidelity >= want["fidelity"] - ATOL


@pytest.mark.parametrize("run", RUNS)
def test_artifacts_match_golden(capsys, tmp_path, run):
    out = tmp_path / "out"
    produce(run, out)
    capsys.readouterr()
    assert_matches_golden(run, out)
    if run == "synthesize":
        check_synthesis(out)


@pytest.mark.parametrize("coupling", [1e-3, 1e3])
@pytest.mark.parametrize("run", J_SCALED)
def test_commands_scale_with_the_coupling(capsys, tmp_path, run, coupling):
    out = tmp_path / "out"
    produce(run, out, coupling)
    capsys.readouterr()
    assert_matches_golden(run, out, coupling)


if __name__ == "__main__":
    import shutil
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for run in RUNS:
            produce(run, Path(tmp) / run)
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(tmp, GOLDEN)
