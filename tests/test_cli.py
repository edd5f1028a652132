import contextlib
import copy
import functools
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import chainlab
from chainlab import cli, linalg, schemes


def run_cli(capsys, command, config=None, out=None, extra=()):
    argv = [command]
    if config is not None:
        argv += ["--config", str(config)]
    if out is not None:
        argv += ["--out", str(out)]
    argv += list(extra)
    code = cli.main(argv)
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["exit_code"] == code
    return code, summary


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# configuration handling


def test_defaults_validate():
    cfg = cli.load_config(None)
    assert cfg["coupling"] == 1.0
    assert cfg["verify_g"]["delta"] == 1000.0


def test_partial_config_merges_into_defaults(tmp_path):
    path = write_config(tmp_path, {"verify_m": {"delta": 2000.0}})
    cfg = cli.load_config(str(path))
    assert cfg["verify_m"]["delta"] == 2000.0
    assert cfg["verify_m"]["tolerance"] == 1e-3
    assert cfg["seed"] == 1234


def test_unknown_key_rejected(tmp_path):
    from chainlab.errors import ConfigInvalid
    path = write_config(tmp_path, {"verify_g": {"bogus": 1}})
    with pytest.raises(ConfigInvalid, match="bogus"):
        cli.load_config(str(path))


def test_unknown_flag_is_an_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["verify-m", "--frobnicate"])
    assert info.value.code == 2


def test_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--config", "--out", "--seed", "--threads", "--tolerance"):
        assert flag in text


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--threads", "-3")])
def test_out_of_range_flag_is_config_error(capsys, tmp_path, flag, value):
    code, summary = run_cli(capsys, "zeno", out=tmp_path / "out", extra=[flag, value])
    assert code == 2
    assert summary["reason"] == "config_invalid"
    assert flag[2:] in summary["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "synthesize", "zeno", "six-settings"])
def test_tolerance_flag_without_tolerance_field_is_config_error(capsys, tmp_path, command):
    code, summary = run_cli(capsys, command, out=tmp_path / "out",
                            extra=["--tolerance", "-1"])
    assert code == 2
    assert summary["reason"] == "config_invalid"
    assert "--tolerance" in summary["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify-g", "verify-m", "synthesize", "zeno",
                                     "six-settings"])
def test_threads_flag_outside_sweep_is_config_error(capsys, tmp_path, command):
    code, summary = run_cli(capsys, command, out=tmp_path / "out",
                            extra=["--threads", "2"])
    assert code == 2
    assert summary["reason"] == "config_invalid"
    assert "--threads" in summary["detail"]
    assert not (tmp_path / "out").exists()


def numeric_leaves(schema, path=()):
    """(path, schema) of every number or integer field; list items at index 0."""
    kinds = schema.get("type")
    if {"number", "integer"} & set(kinds if isinstance(kinds, list) else [kinds]):
        yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from numeric_leaves(sub, path + (key,))
    if "items" in schema:
        yield from numeric_leaves(schema["items"], path + (0,))


# The minima of the numeric fields whose range a library constructor judges
# in cli._build (ChainSpec, ZeemanLevels, ArchitectureOne, ArchitectureThree,
# SweepSpec, ZenoConfig); the schema holds the minima of the others.  ArchitectureTwo
# judges only that its gate hold at eps stays finite, so eps has no minimum, and
# ArchitectureThree judges tol_identity, given or defaulted, as positive and finite.
LIBRARY_MINIMA = {
    ("coupling",): {"exclusiveMinimum": 0},
    ("seed",): {"minimum": 0},
    ("verify_g", "delta"): {"exclusiveMinimum": 0},
    ("verify_g", "pad"): {"minimum": 0},
    ("verify_m", "delta"): {"exclusiveMinimum": 0},
    ("sweep", "delta_values", 0): {"exclusiveMinimum": 0},
    ("zeno", "trials"): {"minimum": 1},
    ("zeno", "jitter_stddev"): {"minimum": 0},
    ("zeno", "collapse_every_gates"): {"minimum": 1},
    ("six_settings", "delta"): {"exclusiveMinimum": 0},
    ("six_settings", "tol_identity"): {"exclusiveMinimum": 0},
}


@pytest.mark.parametrize("path, schema", [pytest.param(p, s, id="/".join(map(str, p)))
                                          for p, s in numeric_leaves(cli.CONFIG_SCHEMA)])
def test_non_finite_or_below_minimum_number_is_config_error(capsys, tmp_path, path, schema):
    # Python's json reads NaN, Infinity and 1e400 (= inf) as numbers
    values = ["NaN", "Infinity", "-Infinity", "1e400"]
    if path in LIBRARY_MINIMA:   # one judge per rule
        assert not {"minimum", "exclusiveMinimum"} & set(schema)
        schema = LIBRARY_MINIMA[path]
    low = schema.get("minimum", schema.get("exclusiveMinimum"))
    if low is not None:
        values.append(repr(low - 1))
    doc = copy.deepcopy(cli.DEFAULT_CONFIG)
    node = doc
    for i, key in enumerate(path[:-1]):
        if isinstance(key, int):   # the first default list item that sets the next key
            key = next((j for j, item in enumerate(node) if path[i + 1] in item), key)
        node = node[key]
    node[path[-1]] = "VALUE"
    config = tmp_path / "config.json"
    # control: the same document with an in-range value is valid
    config.write_text(json.dumps({path[0]: doc[path[0]]})
                      .replace('"VALUE"', repr(1 if low is None else low + 1)))
    cli.load_config(str(config))
    for value in values:
        config.write_text(json.dumps({path[0]: doc[path[0]]}).replace('"VALUE"', value))
        code = cli.main(["verify-m", "--config", str(config), "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2, (path, value)
        assert len(lines) == 1 and json.loads(lines[0])["reason"] == "config_invalid"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify-g", "verify-m"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tolerance_flag_is_config_error(capsys, tmp_path, command, value):
    code, summary = run_cli(capsys, command, out=tmp_path / "out",
                            extra=["--tolerance", value])
    assert code == 2
    assert summary["reason"] == "config_invalid"
    assert "tolerance" in summary["detail"]
    assert not (tmp_path / "out").exists()


SHAPE_ERRORS = [   # (command, config document, path of the offending field)
    ("verify-m", [], "<root>"),
    ("verify-m", {"coupling": True}, "coupling"),
    ("zeno", {"zeno": {"trials": True}}, "zeno/trials"),
    ("verify-m", {"coupling": None}, "coupling"),
    # Python's 2.0 == 2, but an integer field takes a JSON integer
    ("zeno", {"zeno": {"trials": 100.0}}, "zeno/trials"),
    ("synthesize", {"synthesize": {"jobs": [
        {"entangler": "cphase", "n_uses": 2.0, "n_starts": 2.0}]}}, "synthesize/jobs/0/n_starts"),
    ("zeno", {"seed": 5.0}, "seed"),
    ("synthesize", {"seed": 5.0}, "seed"),
    ("sweep", {"threads": 1.0}, "threads"),
    ("zeno", {"zeno": {"jitter_mode": "sometimes"}}, "zeno/jitter_mode"),
    ("sweep", {"sweep": {"format": "xml"}}, "sweep/format"),
    ("sweep", {"sweep": {"delta_values": [1000]}}, "sweep/delta_values"),
    ("synthesize", {"synthesize": {"jobs": []}}, "synthesize/jobs"),
    ("synthesize", {"synthesize": {"jobs": [{"entangler": "cphase"}]}}, "synthesize/jobs/0"),
    ("verify-m", {"output_dir": 5}, "output_dir"),
    # schema-valid, but B = delta J overflows; every command builds every section
    ("verify-g", {"coupling": 1e300, "verify_g": {"delta": 1e10}}, "verify_g/delta"),
    ("verify-m", {"coupling": 1e300, "verify_m": {"delta": 1e10}}, "verify_m/delta"),
    ("six-settings", {"coupling": 1e300, "six_settings": {"delta": 1e10}}, "six_settings/delta"),
    ("sweep", {"coupling": 1e300, "sweep": {"delta_values": [1e10, 2e10]}},
     "sweep/delta_values"),
    ("zeno", {"coupling": 1e300, "verify_g": {"delta": 1e10}}, "verify_g/delta"),
    ("verify-g", {"sweep": {"delta_values": [1000, 300]}}, "sweep/delta_values"),
    # levels finite, but the nine-site chain's diagonal sum of |E_i| overflows
    ("verify-g", {"coupling": 1e300, "verify_g": {"delta": 8e7}}, "verify_g/delta"),
    # B = delta J is 1, but six-settings' default tol_identity 10 J/delta overflows
    ("six-settings", {"coupling": 1e300, "six_settings": {"delta": 1e-300}},
     "six_settings/tol_identity"),
]


@pytest.mark.parametrize("command, doc, where", SHAPE_ERRORS)
def test_config_of_the_wrong_shape_is_config_error(capsys, tmp_path, command, doc, where):
    config = write_config(tmp_path, doc)
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 2
    assert captured.err == ""
    assert len(lines) == 1
    summary = json.loads(lines[0])
    assert summary["reason"] == "config_invalid"
    # the schema names the path it refuses; a library constructor in _build
    # refuses a schema-valid document, and the detail names its section
    if next(cli._violations(cli.CONFIG_SCHEMA, doc), None) is None:
        where = where.split("/")[0]
    assert summary["detail"].startswith(f"config invalid at {where}: ")
    assert not (tmp_path / "out").exists()


def assert_finite_artifacts(out):
    """No artifact under out holds NaN or Infinity: JSON is parsed strictly,
    and every number in a CSV table is finite."""
    for path in sorted(out.glob("*")):
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=_refuse_constant)
            continue
        for field in re.split(r"[,\r\n]+", text):
            try:
                assert math.isfinite(float(field)), (path.name, field)
            except ValueError:   # a header name
                pass


# (command, config): a hold whose phase w t overflows, found only as it runs: zeno
# draws each trial's hold durations, so no constructor sees them
OVERFLOW_REPRODUCERS = [
    ("zeno", {"coupling": 1e-9, "zeno": {"trials": 35, "gates": 2, "jitter_stddev": 1e300}}),
]


@pytest.mark.parametrize("command, doc", OVERFLOW_REPRODUCERS)
def test_hold_whose_phase_overflows_is_an_internal_error(tmp_path, command, doc):
    out = tmp_path / "out"
    proc = python_m(command, "--config", str(write_config(tmp_path, doc)), "--out", str(out))
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    summary = json.loads(lines[0], parse_constant=_refuse_constant)
    assert proc.returncode == summary["exit_code"] == 3
    assert summary["detail"].startswith("ValueError: a hold of ")
    assert summary["detail"].endswith(" overflows its phase")
    assert_finite_artifacts(out)


# (config, section, the start of the refusal): a layout's hold whose phase
# overflows, which its section refuses as it is built, before any output
PHASE_REFUSALS = [
    ({"coupling": 1000.0, "verify_g": {"delta": 1e6, "pad": 1e300}}, "verify_g",
     "pad: a hold of 1e+300 "),
    # the revival grid's own phases w t
    ({"coupling": 1e-300, "verify_g": {"delta": 1e308}}, "verify_g",
     "the revival window at coupling 1e-300: "),
    # the paired-site gate time pi/(sqrt(5) J) under the default working point
    ({"coupling": 1e-300, "verify_m": {"delta": 1e308}}, "verify_m", "the gate hold: a hold of "),
    ({"coupling": 1e-300, "six_settings": {"delta": 1e308, "tol_identity": 1.0}}, "six_settings",
     "even:B odd:A: a hold of "),
    ({"coupling": 1e-300, "verify_m": {"delta": 1e6, "eps": -1e300}}, "verify_m",
     "the gate hold: a hold of "),
]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("doc, section, refusal", PHASE_REFUSALS,
                         ids=["pad-1e300", "window-1e308", "gate-1e308", "settings-1e308",
                              "eps-1e300"])
def test_hold_whose_phase_overflows_is_config_error(capsys, tmp_path, command, doc, section,
                                                   refusal):
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    summary = json.loads(lines[0], parse_constant=_refuse_constant)
    assert code == summary["exit_code"] == 2
    assert summary["reason"] == "config_invalid"
    assert summary["detail"].startswith(f"config invalid at {section}: {refusal}")
    assert summary["detail"].endswith(" overflows its phase")
    assert not out.exists()


BUILD_RULES = [   # (config, section, field): a range that one constructor in _build judges
    ({"coupling": 0}, "verify_g", "coupling"),
    ({"verify_g": {"delta": 0}}, "verify_g", "delta"),
    ({"verify_m": {"delta": 0}}, "verify_m", "delta"),
    ({"six_settings": {"delta": 0}}, "six_settings", "delta"),
    ({"sweep": {"delta_values": [1000]}}, "sweep", "delta_values"),
    ({"sweep": {"delta_values": [1000, 300]}}, "sweep", "delta_values"),
    ({"zeno": {"trials": 0}}, "zeno", "trials"),
    ({"zeno": {"jitter_stddev": -1}}, "zeno", "jitter_stddev"),
    ({"zeno": {"collapse_every_gates": 0}}, "zeno", "collapse_every_gates"),
    ({"zeno": {"jitter_mode": "x"}}, "zeno", "jitter_mode"),
    ({"seed": -1}, "zeno", "seed"),
    ({"verify_g": {"pad": -1}}, "verify_g", "pad"),
    # a subnormal J: the arch-1 revival window pi/(3J) is inf
    ({"coupling": 1e-310}, "verify_g", "coupling"),
    ({"six_settings": {"tol_identity": 0}}, "six_settings", "tol_identity"),
    # the default tol_identity 10 J/delta underflows to 0.0
    ({"coupling": 1e-300, "six_settings": {"delta": 1e300}}, "six_settings", "tol_identity"),
]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("doc, section, field", BUILD_RULES,
                         ids=[f"{s}-{f}-{i}" for i, (_, s, f) in enumerate(BUILD_RULES)])
def test_every_rule_build_judges_is_config_error_from_every_command(capsys, tmp_path, command,
                                                                    doc, section, field):
    config = write_config(tmp_path, doc)
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2 and len(lines) == 1
    summary = json.loads(lines[0])
    assert summary["reason"] == "config_invalid"
    assert summary["detail"].startswith(f"config invalid at {section}: ")
    assert field in summary["detail"].split(": ", 1)[1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_build_makes_each_object_once_before_any_output(capsys, tmp_path, monkeypatch, command):
    out = tmp_path / "out"
    made = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            made.append((name, out.exists()))
            return real(*args, **kwargs)
        return wrapper

    for cls in (cli.ZeemanLevels, schemes.Section, cli.analysis.SweepSpec, schemes.ZenoConfig):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    config = write_config(tmp_path, {
        "sweep": {"delta_values": [300, 1000]}, "zeno": {"trials": 8},
        "synthesize": {"jobs": [{"entangler": "cphase", "n_uses": 1, "n_starts": 1}]}})
    code, _ = run_cli(capsys, command, config=config, out=out)
    assert code in (0, 1)
    # verify_g, verify_m and six_settings, then one section per sweep point
    assert sorted(name for name, _ in made) == sorted(
        ["ZeemanLevels", "Section"] * (3 + 2) + ["SweepSpec", "ZenoConfig"])
    assert not any(after_mkdir for _, after_mkdir in made)


# ---------------------------------------------------------------------------
# schema-driven fuzzing: every document CONFIG_SCHEMA describes, run through
# every command, ends in a documented exit code with clean output

# integers whose size sets the run time, bounded so that an example takes
# well under a second; the seed spans its whole range
FUZZ_INTEGERS = {"seed": (0, 10**300), "threads": (1, 2), "gates": (1, 4), "trials": (1, 40),
                 "collapse_every_gates": (1, 6), "n_uses": (1, 3), "n_starts": (1, 2)}
FUZZ_STRINGS = {"jitter_mode": st.sampled_from(schemes.JITTER_MODES),
                "output_dir": st.just("overridden by --out")}
FUZZ_SWEEP_POINTS = (2, 3)
# magnitudes from 1e-300 to 1e300, mostly positive so that most examples get
# past the range checks and run
FUZZ_NUMBERS = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                         st.sampled_from([1.0] * 8 + [0.0, -1.0]),
                         st.floats(min_value=-300, max_value=300))


def _config_strategy(schema, name=None):
    """Documents of the given CONFIG_SCHEMA node: each object holds its
    required keys and any of its others, and only keys the schema names."""
    kinds = schema.get("type", [])
    kinds = kinds if isinstance(kinds, list) else [kinds]
    if "enum" in schema:
        base = st.sampled_from(schema["enum"])
    elif "object" in kinds:
        props = {k: _config_strategy(sub, k) for k, sub in schema["properties"].items()}
        required = schema.get("required", [])
        base = st.fixed_dictionaries(
            {k: props[k] for k in required},
            optional={k: v for k, v in props.items() if k not in required},
        ).map(functools.partial(_drop_unmet_dependencies, schema))
    elif "array" in kinds:
        items = _config_strategy(schema["items"], name)
        if schema["items"].get("type") == "number":   # the sweep grid, ascending
            return st.lists(items, min_size=FUZZ_SWEEP_POINTS[0],
                            max_size=FUZZ_SWEEP_POINTS[1]).map(sorted)
        return st.lists(items, min_size=1, max_size=2)
    elif "integer" in kinds:
        base = st.integers(*FUZZ_INTEGERS[name])
    elif "number" in kinds:
        base = FUZZ_NUMBERS
    else:
        base = FUZZ_STRINGS[name]
    return st.one_of(st.none(), base) if "null" in kinds else base


def _drop_unmet_dependencies(schema, doc):
    for key, sub in schema.get("dependencies", {}).items():
        if key in doc and next(cli._violations(sub, doc), None) is not None:
            del doc[key]
    return doc


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_config_strategy(cli.CONFIG_SCHEMA))
@example(doc=OVERFLOW_REPRODUCERS[0][1])
@example(doc=PHASE_REFUSALS[0][0])
@example(doc=PHASE_REFUSALS[1][0])
@example(doc=PHASE_REFUSALS[2][0])
@example(doc=PHASE_REFUSALS[3][0])
@example(doc=PHASE_REFUSALS[4][0])
def test_every_schema_document_ends_cleanly(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config = write_config(Path(tmp), doc)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", str(config), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0], parse_constant=_refuse_constant)["exit_code"] == code
        assert "Traceback" not in stderr.getvalue()
        assert "RuntimeWarning" not in stderr.getvalue()
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        if out.exists():
            assert_finite_artifacts(out)


# ---------------------------------------------------------------------------
# verify-g


def test_verify_g_default_success(capsys, tmp_path):
    code, summary = run_cli(capsys, "verify-g", out=tmp_path / "out")
    assert code == 0
    assert summary["reason"] is None
    report = json.loads((tmp_path / "out" / "gate_report.json").read_text())
    assert report["status"] == "ok"
    assert report["distance_to_target"] < 1e-3
    # logical_unitary is written as rows of [re, im] pairs
    u = np.array([[complex(re, im) for re, im in row] for row in report["logical_unitary"]])
    assert u.shape == (4, 4)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-8
    assert 0.0 <= report["leakage"] < 1e-3


def test_verify_g_low_detuning_fails(capsys, tmp_path):
    path = write_config(tmp_path, {"verify_g": {"delta": 3.0}})
    code, summary = run_cli(capsys, "verify-g", config=path, out=tmp_path / "out")
    assert code == 1
    assert summary["reason"] == "tolerance_exceeded"
    # the report is still written for post-mortem inspection
    report = json.loads((tmp_path / "out" / "gate_report.json").read_text())
    assert report["status"] == "fail"


def test_verify_g_malformed_config(capsys, tmp_path):
    path = write_config(tmp_path, {"verify_g": {"delta": "big"}})
    code, summary = run_cli(capsys, "verify-g", config=path, out=tmp_path / "out")
    assert code == 2
    assert summary["reason"] == "config_invalid"
    assert "verify_g/delta" in summary["detail"]


def test_verify_g_negative_pad_is_config_error(capsys, tmp_path):
    path = write_config(tmp_path, {"verify_g": {"pad": -1}})
    code, summary = run_cli(capsys, "verify-g", config=path, out=tmp_path / "out")
    assert code == 2
    assert summary["reason"] == "config_invalid"
    assert summary["detail"].startswith("config invalid at verify_g: pad must be >= 0")
    assert not (tmp_path / "out").exists()
    zero = write_config(tmp_path, {"verify_g": {"pad": 0}}, name="zero.json")
    assert cli.load_config(str(zero))["verify_g"]["pad"] == 0


# ---------------------------------------------------------------------------
# verify-m


def test_verify_m_default_success(capsys, tmp_path):
    code, summary = run_cli(capsys, "verify-m", out=tmp_path / "out")
    assert code == 0
    report = json.loads((tmp_path / "out" / "pair_gate_report.json").read_text())
    assert report["phase_error"] < 1e-3
    assert report["off_diagonal_residual"] < 1e-3


def test_verify_m_wrong_target_phase_fails(capsys, tmp_path):
    path = write_config(tmp_path, {"verify_m": {"target_phase": -np.pi / np.sqrt(5.0)}})
    code, summary = run_cli(capsys, "verify-m", config=path, out=tmp_path / "out")
    assert code == 1
    assert summary["reason"] == "tolerance_exceeded"


def test_verify_m_tolerance_flag_overrides(capsys, tmp_path):
    code, _ = run_cli(capsys, "verify-m", out=tmp_path / "out",
                      extra=["--tolerance", "1e-12"])
    assert code == 1


def test_verify_m_leaky_gate_fails_with_a_report(capsys, tmp_path):
    # at delta 20 the leaky block is not re-unitarized, so the phase split refuses it
    path = write_config(tmp_path, {"verify_m": {"delta": 20}})
    code, summary = run_cli(capsys, "verify-m", config=path, out=tmp_path / "out")
    assert code == 1
    assert summary["reason"] == "tolerance_exceeded"
    report = json.loads((tmp_path / "out" / "pair_gate_report.json").read_text())
    assert report["status"] == "fail"
    assert report["failure"].startswith("NotUnitary: unitarity defect")
    assert report["leakage"] == pytest.approx(1.095e-2, rel=1e-3)


def test_verify_m_malformed_config(capsys, tmp_path):
    path = write_config(tmp_path, {"verify_m": {"eps": "auto"}})
    code, summary = run_cli(capsys, "verify-m", config=path, out=tmp_path / "out")
    assert code == 2
    assert summary["reason"] == "config_invalid"


def artifacts(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_rerun_gives_byte_identical_artifacts(capsys, tmp_path, command):
    out = tmp_path / "out"
    run_cli(capsys, command, out=out)
    first = artifacts(out)
    assert first
    run_cli(capsys, command, out=out)
    assert artifacts(out) == first


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command, doc", [
    *((command, {}) for command in cli.COMMANDS),
    ("zeno", {"zeno": {"collapse_every_gates": None, "trials": 8}}),
])
def test_artifacts_and_summary_are_strict_json(capsys, tmp_path, command, doc):
    # NaN and Infinity are Python's extensions; RFC 8259 parsers refuse them
    out = tmp_path / "out"
    cli.main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    texts = [capsys.readouterr().out.strip().splitlines()[-1]]
    texts += [p.read_text() for p in sorted(out.glob("*.json"))]
    # every command but sweep (a CSV table at its default) writes a JSON artifact
    assert len(texts) == (1 if command == "sweep" else 2)
    for text in texts:
        json.loads(text, parse_constant=_refuse_constant)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_small_grid_success(capsys, tmp_path):
    path = write_config(tmp_path, {"sweep": {"delta_values": [300.0, 1000.0]}})
    code, summary = run_cli(capsys, "sweep", config=path, out=tmp_path / "out")
    assert code == 0
    assert summary["rows"] == 2 and summary["missing"] == 0
    lines = (tmp_path / "out" / "defect_sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_sweep_json_format(capsys, tmp_path):
    path = write_config(tmp_path, {"sweep": {"delta_values": [300.0, 1000.0],
                                             "format": "json"}})
    code, _ = run_cli(capsys, "sweep", config=path, out=tmp_path / "out")
    assert code == 0
    doc = json.loads((tmp_path / "out" / "defect_sweep.json").read_text())
    assert [row["delta"] for row in doc] == [300.0, 1000.0]


def test_sweep_inverted_trend_fails(capsys, tmp_path):
    # below delta ~ J the defect grows with detuning; the trend check trips
    path = write_config(tmp_path, {"sweep": {"delta_values": [0.3, 1.0]}})
    code, summary = run_cli(capsys, "sweep", config=path, out=tmp_path / "out")
    assert code == 1
    assert summary["reason"] == "tolerance_exceeded"
    assert summary["monotone"] is False


def test_sweep_descending_grid_is_config_error(capsys, tmp_path):
    path = write_config(tmp_path, {"sweep": {"delta_values": [1000.0, 300.0]}})
    code, summary = run_cli(capsys, "sweep", config=path, out=tmp_path / "out")
    assert code == 2
    assert summary["reason"] == "config_invalid"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_quick_job_success(capsys, tmp_path):
    path = write_config(tmp_path, {"synthesize": {"jobs": [
        {"entangler": "cphase", "phase": np.pi, "n_uses": 1, "n_starts": 8}]}})
    code, summary = run_cli(capsys, "synthesize", config=path, out=tmp_path / "out")
    assert code == 0
    assert summary["fidelities"][0] > 1 - 1e-6
    doc = json.loads((tmp_path / "out" / "synthesis.json").read_text())
    job = doc["jobs"][0]
    assert job["status"] == "ok"
    assert job["fidelity"] == summary["fidelities"][0]
    assert 1 <= job["n_starts_used"] <= 8
    assert len(job["local_angles"]) == 2


def test_synthesize_unreachable_job_fails(capsys, tmp_path):
    path = write_config(tmp_path, {"synthesize": {"jobs": [
        {"entangler": "cphase", "phase": -np.pi / np.sqrt(5.0),
         "n_uses": 1, "n_starts": 2}]}})
    code, summary = run_cli(capsys, "synthesize", config=path, out=tmp_path / "out")
    assert code == 1
    doc = json.loads((tmp_path / "out" / "synthesis.json").read_text())
    assert doc["jobs"][0]["status"] == "fail"
    assert doc["jobs"][0]["best_fidelity"] < 0.999


def test_synthesize_phase_on_exchange_is_config_error(capsys, tmp_path):
    path = write_config(tmp_path, {"synthesize": {"jobs": [
        {"entangler": "exchange", "n_uses": 2, "n_starts": 1, "phase": 1.0}]}})
    code = cli.main(["synthesize", "--config", str(path), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert len(lines) == 1
    summary = json.loads(lines[0])
    assert summary["reason"] == "config_invalid"
    assert "synthesize/jobs/0" in summary["detail"]
    assert not (tmp_path / "out").exists()


def test_synthesize_malformed_config(capsys, tmp_path):
    path = write_config(tmp_path, {"synthesize": {"jobs": [
        {"entangler": "swap", "n_uses": 1}]}})
    code, summary = run_cli(capsys, "synthesize", config=path, out=tmp_path / "out")
    assert code == 2
    assert summary["reason"] == "config_invalid"


# ---------------------------------------------------------------------------
# zeno


def test_zeno_default_success(capsys, tmp_path):
    code, summary = run_cli(capsys, "zeno", out=tmp_path / "out")
    assert code == 0
    assert summary["mean_fidelity"] >= 0.5
    lines = (tmp_path / "out" / "zeno_stats.csv").read_text().strip().splitlines()
    assert lines[0] == "trial,wrong_collapse,fidelity"
    assert len(lines) == 2001
    doc = json.loads((tmp_path / "out" / "zeno_summary.json").read_text())
    assert doc["trials"] == 2000
    assert doc["collapse_interval"] == np.pi / 3
    assert doc["n_collapse_points"] == 20
    assert doc["mean_fidelity"] == summary["mean_fidelity"]
    path = write_config(tmp_path, {"zeno": {"collapse_every_gates": None, "trials": 8}})
    run_cli(capsys, "zeno", config=path, out=tmp_path / "never")
    text = (tmp_path / "never" / "zeno_summary.json").read_text()
    assert '"collapse_interval": null' in text
    assert json.loads(text)["n_collapse_points"] == 1
    # two full blocks of trials and a short third one, written in trial order
    trials = 2 * schemes._ZENO_BLOCK_TRIALS + 3
    path = write_config(tmp_path, {"zeno": {"trials": trials, "gates": 2}}, name="blocks.json")
    run_cli(capsys, "zeno", config=path, out=tmp_path / "blocks")
    rows = (tmp_path / "blocks" / "zeno_stats.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(trials))
    doc = json.loads((tmp_path / "blocks" / "zeno_summary.json").read_text())
    assert doc["trials"] == trials


def test_zeno_strict_fidelity_floor_fails(capsys, tmp_path):
    path = write_config(tmp_path, {"zeno": {"min_fidelity": 0.99}})
    code, summary = run_cli(capsys, "zeno", config=path, out=tmp_path / "out")
    assert code == 1
    assert summary["reason"] == "tolerance_exceeded"


def test_zeno_malformed_config(capsys, tmp_path):
    path = write_config(tmp_path, {"zeno": {"collapse_every_gates": "often"}})
    code, summary = run_cli(capsys, "zeno", config=path, out=tmp_path / "out")
    assert code == 2


def test_zeno_delta_key_is_config_error(capsys, tmp_path):
    # the gate train holds every site at A + J with A = 0, whatever the detuning
    path = write_config(tmp_path, {"zeno": {"delta": 1000.0}})
    code = cli.main(["zeno", "--config", str(path), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert len(lines) == 1 and json.loads(lines[0])["reason"] == "config_invalid"
    assert "zeno" in json.loads(lines[0])["detail"]
    assert not (tmp_path / "out").exists()


def test_zeno_seed_flag_changes_trajectories(capsys, tmp_path):
    cfg = write_config(tmp_path, {"zeno": {"trials": 64}})
    run_cli(capsys, "zeno", config=cfg, out=tmp_path / "a", extra=["--seed", "1"])
    run_cli(capsys, "zeno", config=cfg, out=tmp_path / "b", extra=["--seed", "2"])
    run_cli(capsys, "zeno", config=cfg, out=tmp_path / "c", extra=["--seed", "1"])
    a = (tmp_path / "a" / "zeno_stats.csv").read_bytes()
    b = (tmp_path / "b" / "zeno_stats.csv").read_bytes()
    c = (tmp_path / "c" / "zeno_stats.csv").read_bytes()
    assert a != b
    assert a == c


# ---------------------------------------------------------------------------
# six-settings


def test_six_settings_default_success(capsys, tmp_path):
    code, summary = run_cli(capsys, "six-settings", out=tmp_path / "out")
    assert code == 0
    doc = json.loads((tmp_path / "out" / "six_settings.json").read_text())
    assert len(doc["settings"]) == 6
    assert all(entry["passed"] is True for entry in doc["settings"])


def test_six_settings_unreachable_tolerance_fails(capsys, tmp_path):
    path = write_config(tmp_path, {"six_settings": {"tol_same": 1e-13}})
    code, summary = run_cli(capsys, "six-settings", config=path, out=tmp_path / "out")
    assert code == 1
    assert summary["reason"] == "tolerance_exceeded"


def test_six_settings_malformed_config(capsys, tmp_path):
    path = write_config(tmp_path, {"six_settings": {"tol_same": "tight"}})
    code, summary = run_cli(capsys, "six-settings", config=path, out=tmp_path / "out")
    assert code == 2


SIX_SETTINGS_KEYS = {   # figures per setting, beside "label" and "passed"
    "even:B odd:A": {"driven_gate_mismatch", "parked_distance_to_diagonal"},
    "even:B odd:A+J": {"driven_gate_mismatch", "parked_distance_to_diagonal"},
    "even:B odd:C+J": {"pair_schmidt_weight", "parked_distance_to_diagonal", "note"},
    "even:A odd:B": {"cross_parity_mismatch", "edge_gate_mismatch",
                     "parked_distance_to_diagonal"},
    "even:A+J odd:B": {"cross_parity_mismatch", "edge_gate_mismatch",
                       "parked_distance_to_diagonal"},
    "even:C+J odd:B": {"pair_schmidt_weight", "cross_parity_mismatch", "edge_pair_mismatch"},
}


def test_six_settings_json_pins_keys_and_gates(capsys, tmp_path, monkeypatch):
    def run(name, section):
        path = write_config(tmp_path, {"six_settings": section}, name=f"{name}.json")
        run_cli(capsys, "six-settings", config=path, out=tmp_path / name)
        return json.loads((tmp_path / name / "six_settings.json").read_text())

    doc = run("default", {})
    assert [entry["label"] for entry in doc["settings"]] == list(SIX_SETTINGS_KEYS)
    for entry in doc["settings"]:
        assert set(entry) == {"label", "passed"} | SIX_SETTINGS_KEYS[entry["label"]]
        assert entry["passed"] is True
        assert entry.get("parked_distance_to_diagonal", 0.0) < doc["tol_identity"]
        for key in ("driven_gate_mismatch", "cross_parity_mismatch"):
            assert entry.get(key, 0.0) < doc["tol_same"]
        assert entry.get("pair_schmidt_weight", 1.0) > 1 - 1e-6
    # each gate fails, on its own, exactly the settings that carry its figure
    passed = [e["passed"] for e in run("idle", {"tol_identity": 1e-6})["settings"]]
    assert passed == [False, False, False, False, False, True]
    passed = [e["passed"] for e in run("same", {"tol_same": 1e-13})["settings"]]
    assert passed == [False, False, True, False, False, False]
    factor = cli.operator_schmidt_factor
    monkeypatch.setattr(cli, "operator_schmidt_factor",
                        lambda m, n, group: (factor(m, n, group)[0], 1.0 - 1e-5))
    passed = [e["passed"] for e in run("product", {})["settings"]]
    assert passed == [True, True, False, True, True, False]


# ---------------------------------------------------------------------------
# declared entry point


@pytest.fixture
def chainlab_on_path(tmp_path, monkeypatch):
    """Put a ``chainlab`` launcher built from ``[project.scripts]`` on PATH.

    The launcher has the shape pip generates for a console script, so the
    test checks the declared entry point whether or not the package is
    installed. The imported package's source tree goes first on the child's
    PYTHONPATH, so the child runs the same code as this process.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["chainlab"]
    module, func = spec.split(":")
    assert callable(getattr(importlib.import_module(module), func, None)), spec

    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "chainlab"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {module} import {func}\n"
                        f"sys.exit({func}())\n")
    launcher.chmod(0o755)
    monkeypatch.setenv("PATH", str(bindir), prepend=os.pathsep)
    monkeypatch.setenv("PYTHONPATH", str(Path(chainlab.__file__).resolve().parents[1]),
                       prepend=os.pathsep)


def test_console_script_runs(tmp_path, chainlab_on_path):
    proc = subprocess.run(["chainlab", "verify-m", "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip())["command"] == "verify-m"


def python(*argv, **environ):
    """Run a fresh interpreter on the imported package's source tree, with
    environ added to this process's environment (a None value removes the
    variable)."""
    env = {k: v for k, v in {**os.environ, **environ}.items() if v is not None}
    src = str(Path(chainlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, timeout=120, env=env)


def python_m(*argv):
    """Run ``python -m chainlab`` on the imported package's source tree."""
    return python("-m", "chainlab", *argv)


def test_python_dash_m_runs(tmp_path):
    proc = python_m("verify-m", "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip())["command"] == "verify-m"


# modules the package must not load: scipy costs more than half a second of
# start-up and jsonschema about a tenth, and numpy.ma is imported lazily by np.unique
HEAVY_MODULES = """
import json, sys
def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema")
                  or m == "numpy.ma" or m.startswith("numpy.ma."))
from chainlab import cli
after_import = heavy()
codes = [cli.main([c, "--config", sys.argv[1], "--out", sys.argv[2]]) for c in cli.COMMANDS]
print(json.dumps([after_import, codes, heavy()]))
"""


def test_no_command_loads_scipy_or_numpy_ma(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synthesize": {"jobs": [{"entangler": "cphase", "n_uses": 2, "n_starts": 8}]},
        "zeno": {"trials": 100}}))
    proc = python("-c", HEAVY_MODULES, str(config), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    after_import, codes, after_commands = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == []
    assert codes == [0] * 6
    assert after_commands == []


# ---------------------------------------------------------------------------
# honest failures and defaults


def test_unwritable_output_is_an_io_failure(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    proc = python_m("verify-m", "--out", str(blocker))
    assert proc.returncode == 3, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    summary = json.loads(lines[0])
    assert summary["reason"] == "internal_error" and "IoFailure" in summary["detail"]
    assert "Traceback" not in proc.stderr
    assert blocker.read_text() == "not a directory\n"
    # an artifact path taken by a directory fails the same way
    (tmp_path / "out" / "pair_gate_report.json").mkdir(parents=True)
    code, summary = run_cli(capsys, "verify-m", out=tmp_path / "out")
    assert code == 3 and "IoFailure" in summary["detail"]


def test_unexpected_exception_is_an_internal_error(capsys, tmp_path, monkeypatch):
    def boom(cfg, built, out):
        return 1 / 0

    monkeypatch.setitem(cli.COMMANDS, "zeno", boom)
    code = cli.main(["zeno", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 3 and len(lines) == 1
    summary = json.loads(lines[0])
    assert summary["exit_code"] == 3 and summary["reason"] == "internal_error"
    assert summary["detail"].startswith("ZeroDivisionError")
    assert "Traceback" not in captured.out + captured.err


def test_default_thread_count_starts_no_pool(capsys, tmp_path, monkeypatch):
    import concurrent.futures
    from chainlab import analysis

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started at the default thread count")

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    path = write_config(tmp_path, {
        "sweep": {"delta_values": [300, 1000]},
        "synthesize": {"jobs": [{"entangler": "cphase", "phase": np.pi,
                                 "n_uses": 1, "n_starts": 1}]}})
    code, _ = run_cli(capsys, "sweep", config=path, out=tmp_path / "sweep")
    assert code == 0
    code, _ = run_cli(capsys, "synthesize", config=path, out=tmp_path / "synth")
    assert code in (0, 1)


# ---------------------------------------------------------------------------
# BLAS threads: every command but cli.THREADED_BLAS_COMMAND runs on one


# Left threaded, six-settings keeps a worker busy with its 12-site sector eigh
# calls (20-28 worker ticks on 2 vCPU); on one thread its wall time rose by
# 15-20% and 14 values of six_settings.json moved in their last digits.
@pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != cli.THREADED_BLAS_COMMAND])
def test_command_leaves_blas_workers_idle(blas_worker_ticks, tmp_path, command):
    # unpinned, a second BLAS thread spun beside the main one through sweep
    # (23-34 worker ticks, twice its wall time in CPU) and verify-g
    worker_ticks, cpu_s = blas_worker_ticks(
        f"cli.main([{command!r}, '--out', {str(tmp_path / 'out')!r}])")
    assert worker_ticks <= 2, f"BLAS workers took {worker_ticks} ticks of {cpu_s:.2f} CPU s"


@pytest.mark.parametrize("command", ["sweep", "verify-g", cli.THREADED_BLAS_COMMAND])
def test_pinned_artifacts_match_a_one_thread_process(capsys, tmp_path, command):
    # in process, cli.main pins whatever thread count this process has; a
    # process started with OPENBLAS_NUM_THREADS=1 never had a second thread.
    # six-settings grows the count that the import pinned back to OpenBLAS's
    # own: a default process writes what one started with that count writes
    if command == cli.THREADED_BLAS_COMMAND:
        binding = linalg._openblas_threads()
        if binding is None:
            pytest.skip("numpy's BLAS exports no thread-count functions here")
        first = python("-m", "chainlab", command, "--out", str(tmp_path / "first"), **NO_BLAS_COUNT)
        assert first.returncode == 0, first.stderr
        code, threads = first.returncode, str(binding[2]())
    else:
        code, _ = run_cli(capsys, command, out=tmp_path / "first")
        threads = "1"
    proc = python("-m", "chainlab", command, "--out", str(tmp_path / "fresh"),
                  OPENBLAS_NUM_THREADS=threads)
    assert code == proc.returncode == 0, proc.stderr
    assert artifacts(tmp_path / "first") == artifacts(tmp_path / "fresh")


# The pin at import: OpenBLAS loads on one thread, and the environment is
# left as the user set it.
NO_BLAS_COUNT = dict.fromkeys(chainlab.BLAS_THREAD_VARIABLES)   # all three unset

BLAS_STATE = """
import json, os, sys
from pathlib import Path
exec(sys.argv[1])
import chainlab.cli
from chainlab import linalg
binding = linalg._openblas_threads()
tasks = Path("/proc/self/task")
print(json.dumps({"pinned": chainlab.BLAS_PINNED_AT_IMPORT,
                  "threads": len(list(tasks.iterdir())) if tasks.is_dir() else None,
                  "count": binding[0]() if binding else None,
                  "environ_kept": dict(os.environ) == before}))
"""


def blas_state(before="", **environ):
    """The pin, thread and count state of a fresh process right after
    `import chainlab.cli`, which runs after the statement before; environ_kept
    tells whether os.environ then equals its copy taken just before the
    import."""
    proc = python("-c", BLAS_STATE, before + "\nbefore = dict(os.environ)", **environ)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_pins_blas_to_one_thread_and_restores_the_environment():
    state = blas_state(**NO_BLAS_COUNT)
    assert state["pinned"] and state["environ_kept"]
    if state["threads"] is None:
        pytest.skip("no /proc to count this process's threads")
    assert state["threads"] == 1, "OpenBLAS started a worker at import"


def test_import_keeps_a_blas_count_the_user_set():
    state = blas_state(**{**NO_BLAS_COUNT, "OPENBLAS_NUM_THREADS": "2"})
    assert not state["pinned"] and state["environ_kept"]
    if state["count"] is None:
        pytest.skip("numpy's BLAS exports no thread-count functions here")
    assert state["count"] == 2


def test_import_after_numpy_leaves_the_environment_untouched():
    state = blas_state("import numpy", **NO_BLAS_COUNT)
    assert not state["pinned"] and state["environ_kept"]
