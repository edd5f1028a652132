"""Nine-site exchange-gate pipeline report across detunings.

For each detuning: revival time, revival probability, distance of the
extracted two-qubit gate to the ideal exchange gate, leakage, and the
local-invariant deviation.  Results land in revival_report.json; a
detuning whose pipeline fails gets a row with the failure reason instead.
"""

import argparse
from pathlib import Path

from chainlab import analysis, gates, linalg, schemes
from chainlab.errors import ChainlabError
from chainlab.model import ZeemanLevels


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--deltas", default="100,300,1000,3000")
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--pad", type=float, default=schemes.DEFAULT_PAD,
                   help="passive hold on each side of the gate, in units of 1/J")
    p.add_argument("--out", type=Path, default="revival_out")
    args = p.parse_args()
    if not 0 < args.coupling < float("inf"):
        p.error("--coupling must be positive and finite")
    try:
        args.sections = [schemes.arch1_section(ZeemanLevels(args.coupling, float(tok)), args.pad)
                         for tok in args.deltas.split(",")]
    except ValueError as exc:   # the section's refusals of its pad name it first
        p.error(f"--{exc}" if str(exc).startswith("pad") else f"--deltas: {exc}")
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        p.error(f"--out: cannot create {args.out}: {exc.strerror}")
    return args


def pipeline(arch):
    t_r, p, gate, leakage, aligned = schemes.arch1_exchange_gate(arch)
    return {
        "delta": arch.levels.delta,
        "revival_time": t_r,
        "revival_probability": p,
        "distance_to_target": aligned.distance,
        "leakage": leakage,
        "invariant_deviation": gates.invariant_deviation(gate, gates.exchange_gate_target()),
    }


def main():
    args = parse_args()
    with linalg.single_blas_thread():   # as in cli.main
        rows = []
        for arch in args.sections:
            try:
                row = pipeline(arch)
            except ChainlabError as exc:   # no revival, or a gate too leaky to compare
                row = {"delta": arch.levels.delta, "failure": str(exc)}
            rows.append(row)
            if "failure" in row:
                print(f"delta={row['delta']:8.1f}  failed: {row['failure']}")
            else:
                print(f"delta={row['delta']:8.1f}  t_r={row['revival_time']:.9f}  "
                      f"distance={row['distance_to_target']:.3e}  "
                      f"leakage={row['leakage']:.3e}  "
                      f"invariant_dev={row['invariant_deviation']:.3e}")
        analysis.emit_json(rows, args.out / "revival_report.json")


if __name__ == "__main__":
    main()
