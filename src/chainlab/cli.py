"""Command-line front end.

One JSON config document carries chain-level defaults plus one section per
subcommand; command-line flags override config fields.  CONFIG_SCHEMA judges
its shape, and _build then makes every library object the config names, so
that their constructors judge the rest before any output.  Every command
takes the object of its section, writes its artifacts into the output
directory and returns (ok, summary fields);
main prints them as a single JSON summary line to stdout with the exit code:
0 success, 1 scientific-tolerance failure, 2 configuration error, 3 internal
error.  Reruns with identical config on one machine produce byte-identical
artifacts.  Every command runs on one BLAS thread, so its artifacts do not
depend on the BLAS thread count.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, schemes
from .errors import (ConfigInvalid, ExcessiveLeakage, IoFailure, NoRevivalFound,
                     NotDiagonalizableLocally, NotUnitary, SynthesisFailed)
from .gates import (SYNTH_SUCCESS_FIDELITY, controlled_phase, derive_local_corrections,
                    exchange_gate_target, extract_gate, logical_block,
                    operator_schmidt_factor, synthesize_cnot)
from .linalg import op_distance, single_blas_thread
from .model import ZeemanLevels

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

ENTANGLING_PHASE = 2.0 * np.pi / np.sqrt(5.0)  # measured conditional phase of the pair gate

_NUM = {"type": "number"}
_INT = {"type": "integer"}
_POSNUM = {"type": "number", "exclusiveMinimum": 0}
_POSINT = {"type": "integer", "minimum": 1}


def _nullable(schema: dict) -> dict:
    return {**schema, "type": [schema["type"], "null"]}


def _closed(properties: dict, **keywords) -> dict:
    """An object that takes only the named keys."""
    return {"type": "object", "additionalProperties": False, "properties": properties,
            **keywords}


# Shape only, plus the ranges that no library object judges before the run.  The constructors
# _build calls judge coupling, delta, pad, eps, tol_identity (given or defaulted), delta_values,
# seed and the Zeno run's trials, jitter_stddev, collapse_every_gates and jitter_mode.
CONFIG_SCHEMA = _closed({
    "coupling": _NUM,
    "seed": _INT,
    "threads": _POSINT,
    "output_dir": {"type": "string"},
    "verify_g": _closed({"delta": _NUM, "tolerance": _POSNUM, "pad": _NUM}),
    "verify_m": _closed({"delta": _NUM, "tolerance": _POSNUM, "target_phase": _NUM,
                         "eps": _nullable(_NUM)}),
    "sweep": _closed({"delta_values": {"type": "array", "items": _NUM},
                      "format": {"enum": ["csv", "json"]}}),
    "synthesize": _closed({"jobs": {"type": "array", "minItems": 1, "items": _closed(
        {"entangler": {"enum": ["exchange", "cphase"]}, "phase": _NUM,
         "n_uses": _POSINT, "n_starts": _POSINT},
        required=["entangler", "n_uses"],
        # a phase sets the controlled phase, so only cphase takes one
        dependencies={"phase": {"properties": {"entangler": {"const": "cphase"}}}})}}),
    "zeno": _closed({"gates": _POSINT, "trials": _INT, "jitter_stddev": _NUM,
                     "collapse_every_gates": _nullable(_INT),
                     "jitter_mode": {"type": "string"}, "min_fidelity": _NUM}),
    "six_settings": _closed({"delta": _NUM, "tol_identity": _nullable(_NUM),
                             "tol_same": _POSNUM}),
})

DEFAULT_CONFIG = {
    "coupling": 1.0,
    "seed": 1234,
    "threads": 1,   # one core per run; README gives the pool's timings on 2 vCPU
    "output_dir": "chainlab_out",
    "verify_g": {"delta": 1000.0, "tolerance": 1e-3, "pad": schemes.DEFAULT_PAD},
    "verify_m": {"delta": 4000.0, "tolerance": 1e-3,
                 "target_phase": ENTANGLING_PHASE, "eps": None},
    "sweep": {"delta_values": list(analysis.DEFAULT_DELTA_GRID), "format": "csv"},
    "synthesize": {"jobs": [
        {"entangler": "exchange", "n_uses": 4, "n_starts": 16},
        {"entangler": "cphase", "phase": ENTANGLING_PHASE, "n_uses": 2, "n_starts": 16},
    ]},
    "zeno": {"gates": 20, "trials": 2000, "jitter_stddev": 0.05,
             "collapse_every_gates": 1, "jitter_mode": "independent",
             "min_fidelity": 0.5},
    "six_settings": {"delta": 1000.0, "tol_identity": None, "tol_same": 1e-6},
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path: str | None) -> dict:
    """Built-in defaults, deep-merged with the user's JSON document."""
    user = {}
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    _validate_config(user)
    return _merge(DEFAULT_CONFIG, user)


def _finite_number(x) -> bool:
    """JSON true/false are no numbers, although Python's bool is an int; and
    Python's json reads NaN, Infinity, 1e400 and integers beyond float range,
    which no field takes."""
    return not isinstance(x, bool) and abs(x) <= sys.float_info.max


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, (int, float)) and _finite_number(x),
    "integer": lambda x: isinstance(x, int) and _finite_number(x),   # so 2.0 is no integer
}


def _violations(schema: dict, x, path: tuple = ()):
    """(path, message) of each way x breaks schema, reading only the JSON Schema
    keywords CONFIG_SCHEMA uses."""
    kinds = schema.get("type", [])
    kinds = kinds if isinstance(kinds, list) else [kinds]
    if kinds and not any(_TYPES[k](x) for k in kinds):
        yield path, f"{x!r} is not of type {' or '.join(kinds)}"
        return
    if "enum" in schema and x not in schema["enum"]:
        yield path, f"{x!r} is not one of {schema['enum']}"
    if "const" in schema and x != schema["const"]:
        yield path, f"{x!r} is not {schema['const']!r}"
    if x is not None and "minimum" in schema and x < schema["minimum"]:
        yield path, f"{x!r} is less than {schema['minimum']}"
    if x is not None and "exclusiveMinimum" in schema and x <= schema["exclusiveMinimum"]:
        yield path, f"{x!r} is not greater than {schema['exclusiveMinimum']}"
    if isinstance(x, dict):
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False and set(x) - set(props):
            yield path, f"unknown keys {sorted(set(x) - set(props))}"
        missing = [k for k in schema.get("required", ()) if k not in x]
        if missing:
            yield path, f"missing keys {missing}"
        for key, sub in schema.get("dependencies", {}).items():
            if key in x:
                yield from _violations(sub, x, path)
        for key, sub in props.items():
            if key in x:
                yield from _violations(sub, x[key], path + (key,))
    if isinstance(x, list):
        if len(x) < schema.get("minItems", 0):
            yield path, f"{x!r} has fewer than {schema['minItems']} items"
        for i, item in enumerate(x):
            yield from _violations(schema.get("items", {}), item, path + (i,))


def _validate_config(doc: dict) -> None:
    """Raise ConfigInvalid at the first schema violation, by path."""
    first = min(_violations(CONFIG_SCHEMA, doc), key=lambda e: e[0], default=None)
    if first is not None:
        where = "/".join(map(str, first[0])) or "<root>"
        raise ConfigInvalid(f"config invalid at {where}: {first[1]}")


def _build(cfg: dict) -> dict:
    """The library object of each config section, built for every command
    before any output: the three architectures' sections, the SweepSpec and
    the ZenoConfig.  Their constructors alone judge the fields they take; a
    refusal becomes ConfigInvalid at its section."""
    coupling, z = cfg["coupling"], cfg["zeno"]
    built, where = {}, None
    try:
        for where, layout, key in (("verify_g", schemes.arch1_section, "pad"),
                                   ("verify_m", schemes.arch2_section, "eps"),
                                   ("six_settings", schemes.arch3_section, "tol_identity")):
            built[where] = layout(ZeemanLevels(coupling, cfg[where]["delta"]), cfg[where][key])
        where = "sweep"
        built[where] = analysis.SweepSpec(tuple(cfg[where]["delta_values"]), coupling)
        where = "zeno"
        built[where] = schemes.ZenoConfig(
            collapse_every_gates=z["collapse_every_gates"], jitter_stddev=z["jitter_stddev"],
            trials=z["trials"], seed=cfg["seed"], jitter_mode=z["jitter_mode"])
    except (ConfigInvalid, ValueError) as exc:
        raise ConfigInvalid(f"config invalid at {where}: {exc}") from exc
    return built


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def _summary(command: str, code: int, reason: str | None, **extra) -> dict:
    return {"command": command, "exit_code": code, "reason": reason, **extra}


# ---------------------------------------------------------------------------
# commands: each takes the config, the object _build made for its section
# (synthesize needs none) and the output directory


def cmd_verify_g(cfg: dict, arch: schemes.ArchitectureOne, out: Path) -> tuple[bool, dict]:
    """Run the alternate-site pipeline and compare the extracted gate to the
    ideal exchange gate after two-sided z-phase alignment."""
    c = cfg["verify_g"]
    doc = {"delta": c["delta"], "tolerance": c["tolerance"]}
    try:
        t_r, p, gate, leakage, al = schemes.arch1_exchange_gate(arch)
        doc.update({"logical_unitary": _matrix_json(gate),
                    "leakage": leakage, "revival_time": t_r,
                    "revival_probability": p, "distance_to_target": al.distance})
        ok = al.distance < c["tolerance"]
    except (NoRevivalFound, ExcessiveLeakage) as exc:
        doc["failure"] = f"{type(exc).__name__}: {exc}"
        ok = False
    doc["status"] = "ok" if ok else "fail"
    analysis.emit_json(doc, out / "gate_report.json")
    return ok, {"distance": doc.get("distance_to_target")}


def cmd_verify_m(cfg: dict, arch: schemes.ArchitectureTwo, out: Path) -> tuple[bool, dict]:
    """Run the section's paired-encoding gate, by default at the simultaneous-revival
    working point, and check the conditional phase of the extracted gate."""
    c = cfg["verify_m"]
    doc = {"delta": c["delta"], "eps": arch.eps, "t_gate": arch.gate.total_duration,
           "target_phase": c["target_phase"], "tolerance": c["tolerance"]}
    block, doc["leakage"] = logical_block(arch.chain, arch.gate, arch.enc, arch.passive_energies)
    try:
        _, _, phi, resid = derive_local_corrections(extract_gate(block, doc["leakage"]))
        doc.update({"conditional_phase": phi, "off_diagonal_residual": resid})
        err = abs(np.angle(np.exp(1j * (phi - c["target_phase"]))))
        doc["phase_error"] = err
        ok = err < c["tolerance"]
    except (ExcessiveLeakage, NotDiagonalizableLocally, NotUnitary) as exc:
        doc["failure"] = f"{type(exc).__name__}: {exc}"
        ok = False
    doc["status"] = "ok" if ok else "fail"
    analysis.emit_json(doc, out / "pair_gate_report.json")
    return ok, {"phase": doc.get("conditional_phase")}


def cmd_sweep(cfg: dict, spec: analysis.SweepSpec, out: Path) -> tuple[bool, dict]:
    c = cfg["sweep"]
    records = analysis.defect_sweep(spec, threads=cfg["threads"])
    fmt = c["format"]
    path = out / f"defect_sweep.{fmt}"
    if records:
        analysis.emit_table(analysis.record_columns(records), path, fmt=fmt)
    missing = len(spec.delta_values) - len(records)
    defects = [r.defect_worst for r in records]
    monotone = all(b <= a + 1e-6 for a, b in zip(defects, defects[1:]))
    ok = missing == 0 and monotone
    return ok, {"rows": len(records), "missing": missing, "monotone": monotone,
                "table": str(path) if records else None}


def cmd_synthesize(cfg: dict, _: None, out: Path) -> tuple[bool, dict]:
    results = []
    for job in cfg["synthesize"]["jobs"]:
        if job["entangler"] == "exchange":
            ent = exchange_gate_target()
            label = "exchange"
        else:
            phase = job.get("phase", ENTANGLING_PHASE)
            ent = controlled_phase(phase)
            label = f"cphase({phase:.6f})"
        n_starts = job.get("n_starts", 16)
        entry = {"entangler": label, "n_uses": job["n_uses"], "n_starts": n_starts}
        try:
            res = synthesize_cnot(ent, job["n_uses"], seed=cfg["seed"],
                                  n_starts=n_starts)
            entry.update({"fidelity": res.fidelity, "local_angles": res.local_angles.tolist(),
                          "n_starts_used": res.n_starts_used})
            entry["status"] = "ok" if res.fidelity > SYNTH_SUCCESS_FIDELITY else "below_target"
        except SynthesisFailed as exc:
            entry.update({"status": "fail", "best_fidelity": exc.best_fidelity})
        results.append(entry)
    analysis.emit_json({"jobs": results}, out / "synthesis.json")
    fidelities = [r.get("fidelity", r.get("best_fidelity")) for r in results]
    return all(r["status"] == "ok" for r in results), {"fidelities": fidelities}


def cmd_zeno(cfg: dict, zcfg: schemes.ZenoConfig, out: Path) -> tuple[bool, dict]:
    c = cfg["zeno"]
    chain, enc, gate, t_gate, psi0 = schemes.zeno_gate_train(cfg["coupling"])
    k = zcfg.collapse_every_gates
    stats = schemes.zeno_run(chain, [gate] * c["gates"], enc, zcfg, psi0=psi0)
    analysis.emit_table({"trial": np.arange(zcfg.trials),
                         "wrong_collapse": stats.wrong_collapse.astype(np.uint8),
                         "fidelity": stats.fidelity}, out / "zeno_stats.csv")
    doc = {"wrong_collapse_probability": stats.wrong_collapse_probability,
           "mean_fidelity": stats.mean_fidelity,
           "n_collapse_points": stats.n_collapse_points, "trials": zcfg.trials,
           "collapse_interval": None if k is None else k * t_gate,
           "jitter_stddev": zcfg.jitter_stddev, "seed": zcfg.seed}
    analysis.emit_json(doc, out / "zeno_summary.json")
    return stats.mean_fidelity >= c["min_fidelity"], {
        "wrong_collapse_probability": stats.wrong_collapse_probability,
        "mean_fidelity": stats.mean_fidelity}


def _distance_to_diagonal(u: np.ndarray) -> float:
    d = np.diag(u)
    d = d / np.where(np.abs(d) > 1e-12, np.abs(d), 1.0)
    return op_distance(u, np.diag(d))


# One row per setting of schemes.ArchitectureThree.settings, in that order: setting; parked
# qubits, which must stay diagonal; driven group, its mismatch key and the
# (setting, group) whose gate it must equal; an edge key and group compared with
# the driven group but only reported, since qubit 0 sits at the open chain's
# edge; groups that must stay product; note.
_SIX_CHECKS = (
    (0, (0, 2), (1,), "driven_gate_mismatch", (0, (3,)), None, None, (), None),
    (1, (0, 2), (1,), "driven_gate_mismatch", (1, (3,)), None, None, (), None),
    (2, (0,), None, None, None, None, None, ((1, 2),), "boundary-driven qubit 3 not compared"),
    (3, (1, 3), (2,), "cross_parity_mismatch", (0, (1,)), "edge_gate_mismatch", (0,), (), None),
    (4, (1, 3), (2,), "cross_parity_mismatch", (1, (1,)), "edge_gate_mismatch", (0,), (), None),
    (5, (), (2, 3), "cross_parity_mismatch", (2, (1, 2)), "edge_pair_mismatch", (0, 1),
     ((0, 1), (2, 3)), None),
)


def cmd_six_settings(cfg: dict, arch: schemes.ArchitectureThree, out: Path) -> tuple[bool, dict]:
    """Enumerate the six global settings on a 12-site chain and verify that
    each drives exactly its own parity group.

    Per-qubit and per-pair gates come from the operator-Schmidt factorization
    of the full logical map, so driven neighbors do not corrupt the
    extraction.  Checks (_SIX_CHECKS): parked groups stay diagonal; driven
    gates agree across qubits with equivalent environments, including across
    parity (the same knob value must produce the same gate on either group);
    pair maps stay product across the pair/rest cut.
    """
    c = cfg["six_settings"]
    logical = [logical_block(arch.chain, s.schedule, arch.enc, arch.passive_energies)[0]
               for s in arch.settings]

    @functools.cache
    def factor(setting, group):
        return operator_schmidt_factor(logical[setting], 4, group)

    results = []
    for k, parked, driven, key, ref, edge_key, edge, product, note in _SIX_CHECKS:
        entry = {"label": arch.settings[k].label}
        if parked:
            entry["parked_distance_to_diagonal"] = max(
                _distance_to_diagonal(factor(k, (q,))[0]) for q in parked)
        if driven:
            entry[key] = op_distance(factor(k, driven)[0], factor(*ref)[0])
        if edge:
            entry[edge_key] = op_distance(factor(k, edge)[0], factor(k, driven)[0])
        if product:
            entry["pair_schmidt_weight"] = min(factor(k, g)[1] for g in product)
        if note:
            entry["note"] = note
        entry["passed"] = bool(entry.get("parked_distance_to_diagonal", 0.0) < arch.tol_identity
                               and entry.get(key, 0.0) < c["tol_same"]
                               and entry.get("pair_schmidt_weight", 1.0) > 1 - 1e-6)
        results.append(entry)
    doc = {"delta": c["delta"], "tol_identity": arch.tol_identity, "tol_same": c["tol_same"],
           "settings": results}
    analysis.emit_json(doc, out / "six_settings.json")
    passed = [r["passed"] for r in results]
    return all(passed), {"passed": passed}


COMMANDS = {
    "verify-g": cmd_verify_g,
    "verify-m": cmd_verify_m,
    "sweep": cmd_sweep,
    "synthesize": cmd_synthesize,
    "zeno": cmd_zeno,
    "six-settings": cmd_six_settings,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chainlab",
                                     description="spin-chain gate studies")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--threads", type=int, help="sweep worker threads (overrides config)")
        p.add_argument("--tolerance", type=float,
                       help="override the command's tolerance field")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.threads is not None:
            if args.command != "sweep":
                raise ConfigInvalid(f"--threads does not apply to {args.command}")
            cfg["threads"] = args.threads
        if args.out is not None:
            cfg["output_dir"] = args.out
        section = args.command.replace("-", "_")
        if args.tolerance is not None:
            if "tolerance" not in cfg[section]:
                raise ConfigInvalid(f"--tolerance does not apply to {args.command}")
            cfg[section]["tolerance"] = args.tolerance
        _validate_config(cfg)
        built = _build(cfg)
        out = Path(cfg["output_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot create output directory: {exc}") from exc
        with single_blas_thread():
            ok, fields = COMMANDS[args.command](cfg, built.get(section), out)
        summary = _summary(args.command, EXIT_OK if ok else EXIT_TOLERANCE,
                           None if ok else "tolerance_exceeded", **fields)
    except ConfigInvalid as exc:
        summary = _summary(args.command, EXIT_CONFIG, "config_invalid", detail=str(exc))
    except Exception as exc:    # any other failure is internal: a summary line, never a traceback
        summary = _summary(args.command, EXIT_INTERNAL, "internal_error",
                           detail=f"{type(exc).__name__}: {exc}")
    print(json.dumps(summary, sort_keys=True))
    return summary["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
