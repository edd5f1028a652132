import csv
import io
import itertools
import json
from dataclasses import astuple

import numpy as np
import pytest

from chainlab import analysis, linalg
from chainlab.errors import ConfigInvalid, IoFailure
from chainlab.model import ChainSpec, build_heisenberg, classical_ising_energies


# ---------------------------------------------------------------------------
# sweep configuration


def test_sweep_spec_validation():
    with pytest.raises(ConfigInvalid):
        analysis.SweepSpec(delta_values=(10.0,), coupling=1.0)
    with pytest.raises(ConfigInvalid):
        analysis.SweepSpec(delta_values=(10.0, -1.0), coupling=1.0)
    with pytest.raises(ConfigInvalid):
        analysis.SweepSpec(delta_values=(100.0, 10.0), coupling=1.0)
    spec = analysis.SweepSpec(delta_values=[10, 100], coupling=2.0)
    assert spec.delta_values == (10.0, 100.0)
    # one arch-1 section per detuning, built once for the sweep to use
    assert [s.levels.b for s in spec.sections] == [20.0, 200.0]
    assert all(s.chain.coupling == 2.0 for s in spec.sections)


def test_sweep_spec_names_the_point_it_refuses():
    # B = delta J overflows at the second point only
    with pytest.raises(ConfigInvalid, match=r"^delta_values\[1\] = 10000000000\.0: delta must be"):
        analysis.SweepSpec(delta_values=(300.0, 1e10), coupling=1e300)
    # at a subnormal J the revival window pi/(3J) is inf
    with pytest.raises(ConfigInvalid, match=r"^delta_values\[0\] = 300\.0: the revival window"):
        analysis.SweepSpec(delta_values=(300.0, 1000.0), coupling=1e-310)


# ---------------------------------------------------------------------------
# the default sweep (session fixture)


def test_sweep_covers_grid_in_order(default_sweep):
    assert [r.delta for r in default_sweep] == list(analysis.DEFAULT_DELTA_GRID)


def test_sweep_frozen_rows(default_sweep):
    by_delta = {r.delta: r for r in default_sweep}
    r = by_delta[1000.0]
    assert r.t_r == pytest.approx(1.047861622, rel=1e-6)
    assert r.defect_worst == pytest.approx(2.787568e-5, rel=1e-3)
    assert r.phase_noise_rad == pytest.approx(4.475519e-6, rel=1e-3)
    assert r.leakage == pytest.approx(2.307694e-5, rel=1e-3)
    assert by_delta[100.0].defect_worst == pytest.approx(2.732300e-3, rel=1e-3)
    assert by_delta[5.0].defect_worst == pytest.approx(0.5697030, rel=1e-3)


def test_sweep_defect_monotone(default_sweep):
    defects = [r.defect_worst for r in default_sweep]
    assert all(b < a for a, b in zip(defects, defects[1:]))


def test_sweep_phase_noise_subdominant(default_sweep):
    # the residual phase wobble never explains more than the worst defect
    for r in default_sweep:
        assert np.sin(r.phase_noise_rad / 2.0) ** 2 <= r.defect_worst


def test_sweep_revival_time_approaches_nominal(default_sweep):
    r = default_sweep[-1]
    assert r.t_r == pytest.approx(np.pi / 3.0, rel=1e-3)


def test_sweep_has_rows_even_at_strong_coupling():
    recs = analysis.defect_sweep(analysis.SweepSpec(delta_values=(0.3, 1.0), coupling=1.0))
    assert len(recs) == 2
    # in this regime the trend inverts; downstream monotonicity checks flag it
    assert recs[0].defect_worst < recs[1].defect_worst


# ---------------------------------------------------------------------------
# wrap-free phase-model fit


def all_sign_rows(k):
    return np.array([[1 - 2 * b for b in bits]
                     for bits in itertools.product((0, 1), repeat=k)], dtype=float)


def test_walsh_residual_ignores_modelled_phases():
    signs = all_sign_rows(3)
    theta = 3.0 + 2.5 * signs[:, 0] - 1.7 * signs[:, 1] + 0.9 * signs[:, 2]
    resid = analysis._walsh_phase_residual(np.exp(1j * theta), signs)
    assert resid < 1e-12


def test_walsh_residual_detects_cross_terms():
    signs = all_sign_rows(3)
    theta = 0.4 * signs[:, 0] + 0.05 * signs[:, 0] * signs[:, 1]
    resid = analysis._walsh_phase_residual(np.exp(1j * theta), signs)
    assert resid == pytest.approx(0.05, abs=1e-12)
    # a three-way product is also outside the model
    theta3 = theta + 0.02 * signs.prod(axis=1)
    resid3 = analysis._walsh_phase_residual(np.exp(1j * theta3), signs)
    assert resid3 == pytest.approx(0.07, abs=1e-12)


def test_walsh_residual_immune_to_branch_cuts():
    # model angles far beyond pi must not alias into the residual
    signs = all_sign_rows(2)
    theta = 40.0 + 11.0 * signs[:, 0] + 7.0 * signs[:, 1] + 0.03 * signs.prod(axis=1)
    resid = analysis._walsh_phase_residual(np.exp(1j * theta), signs)
    assert resid == pytest.approx(0.03, abs=1e-12)


# ---------------------------------------------------------------------------
# effective Ising convergence


def test_ising_convergence_slopes():
    fit = analysis.ising_convergence((10.0, 30.0, 100.0, 300.0, 1000.0), 1.0)
    assert fit.distance_slope == pytest.approx(-0.9967, abs=0.02)
    assert fit.leakage_slope == pytest.approx(-2.0284, abs=0.05)
    by_delta = {r.delta: r for r in fit.records}
    assert by_delta[10.0].distance == pytest.approx(0.5912804, rel=1e-3)
    assert by_delta[1000.0].leakage == pytest.approx(9.036911e-6, rel=1e-3)


def test_ising_convergence_grid_validation():
    with pytest.raises(ConfigInvalid):
        analysis.ising_convergence((10.0, 20.0), 1.0)
    with pytest.raises(ConfigInvalid):
        analysis.ising_convergence((10.0, 20.0, 40.0), 1.0)


def test_effective_ising_fails_at_equal_levels():
    # with no level separation the frozen-neighbor picture has no basis
    from scipy.linalg import expm
    chain = ChainSpec(n=4, coupling=1.0, roles="ABAB")
    energies = (0.0, 0.0, 0.0, 0.0)
    u = expm(-1j * build_heisenberg(chain, energies))
    ui = np.diag(np.exp(-1j * classical_ising_energies(chain, energies)))
    assert linalg.op_distance(u, ui) == pytest.approx(1.221062, rel=1e-3)


# ---------------------------------------------------------------------------
# tabular output


def test_emit_table_csv_round_trip(tmp_path, default_sweep):
    path = tmp_path / "sweep.csv"
    analysis.emit_table(analysis.record_columns(default_sweep), path, fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "delta,t_r,defect_worst,phase_noise_rad,leakage"
    assert len(lines) == len(default_sweep) + 1
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row, rec in zip(rows, default_sweep):
        assert float(row["delta"]) == rec.delta
        assert float(row["defect_worst"]) == pytest.approx(rec.defect_worst, rel=1e-10)


def test_emit_table_json(tmp_path, default_sweep):
    path = tmp_path / "sweep.json"
    analysis.emit_table(analysis.record_columns(default_sweep), path, fmt="json")
    doc = json.loads(path.read_text())
    assert len(doc) == len(default_sweep)
    assert doc[0]["delta"] == default_sweep[0].delta
    assert set(doc[0]) == {"delta", "t_r", "defect_worst", "phase_noise_rad", "leakage"}


def test_emit_table_uses_twelve_digits(tmp_path):
    rec = analysis.DefectRecord(delta=1.0, t_r=np.pi, defect_worst=1e-5,
                                phase_noise_rad=0.0, leakage=0.0)
    path = tmp_path / "one.csv"
    analysis.emit_table(analysis.record_columns([rec]), path, fmt="csv")
    assert "3.14159265359" in path.read_text()


def test_emit_table_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigInvalid):
        analysis.emit_table({}, tmp_path / "x.csv")
    with pytest.raises(ConfigInvalid):
        analysis.emit_table({"a": [], "b": []}, tmp_path / "x.csv")
    with pytest.raises(ConfigInvalid):
        analysis.emit_table({"a": [1.0, 2.0], "b": [1.0]}, tmp_path / "x.csv")
    rec = analysis.DefectRecord(delta=1.0, t_r=1.0, defect_worst=0.0,
                                phase_noise_rad=0.0, leakage=0.0)
    with pytest.raises(ConfigInvalid):
        analysis.emit_table(analysis.record_columns([rec]), tmp_path / "x.tsv", fmt="tsv")
    assert not list(tmp_path.iterdir())
    with pytest.raises(IoFailure):
        analysis.emit_table(analysis.record_columns([rec]), tmp_path / "missing" / "x.csv")


def test_emit_json_writes_the_artifact_format(tmp_path):
    path = tmp_path / "doc.json"
    analysis.emit_json({"zeta": [1, 2.5], "alpha": {"b": np.inf, "a": None}}, path)
    assert path.read_bytes() == (b'{\n "alpha": {\n  "a": null,\n  "b": Infinity\n },\n'
                                 b' "zeta": [\n  1,\n  2.5\n ]\n}\n')
    with pytest.raises(IoFailure):
        analysis.emit_json({}, tmp_path / "missing" / "x.json")
    # a DefectRecord table in JSON keeps its bytes: 12-digit floats, one object per row
    records = [analysis.DefectRecord(delta=300.0, t_r=1.0463038171829868, defect_worst=1 / 3,
                                     phase_noise_rad=2.5e-13, leakage=0.0),
               analysis.DefectRecord(delta=1000.0, t_r=1.0478616219295298,
                                     defect_worst=2 / 3e5, phase_noise_rad=1e-15, leakage=7e-7)]
    analysis.emit_table(analysis.record_columns(records), path, fmt="json")
    assert path.read_bytes() == (
        b'[\n {\n  "defect_worst": 0.333333333333,\n  "delta": 300.0,\n  "leakage": 0.0,\n'
        b'  "phase_noise_rad": 2.5e-13,\n  "t_r": 1.04630381718\n },\n'
        b' {\n  "defect_worst": 6.66666666667e-06,\n  "delta": 1000.0,\n  "leakage": 7e-07,\n'
        b'  "phase_noise_rad": 1e-15,\n  "t_r": 1.04786162193\n }\n]\n')


def _csv_writer_bytes(names, rows):
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(names)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return ref.getvalue().encode()


def test_emit_table_bytes_match_csv_writer(tmp_path):
    # a Zeno trial table that crosses a write-chunk boundary
    n = analysis._CSV_CHUNK_ROWS + 7
    special = [0.0, 1.0, 5e-324, 1.0 - 1e-16, 0.1]
    fid = np.resize(np.array(special), n)
    fid[len(special):] *= np.random.default_rng(5).random(n - len(special))
    wrong = np.random.default_rng(6).random(n) < 0.3
    path = tmp_path / "stats.csv"
    analysis.emit_table({"trial": np.arange(n), "wrong_collapse": wrong.astype(np.uint8),
                         "fidelity": fid}, path)
    assert path.read_bytes() == _csv_writer_bytes(
        ["trial", "wrong_collapse", "fidelity"],
        [(i, int(w), float(f)) for i, (w, f) in enumerate(zip(wrong, fid))])
    # and a DefectRecord table
    records = [analysis.DefectRecord(delta=d, t_r=np.pi / d, defect_worst=5e-324 * d,
                                     phase_noise_rad=0.1 * d, leakage=1.0 - 1e-16)
               for d in (5.0, 1000.0, 1e300)]
    path = tmp_path / "sweep.csv"
    analysis.emit_table(analysis.record_columns(records), path)
    assert path.read_bytes() == _csv_writer_bytes(
        ["delta", "t_r", "defect_worst", "phase_noise_rad", "leakage"],
        [astuple(r) for r in records])
