"""Nine-site exchange-gate pipeline report across detunings.

For each detuning: revival time, revival probability, distance of the
extracted two-qubit gate to the ideal exchange gate, leakage, and the
local-invariant deviation.  Results land in revival_report.json; a
detuning whose pipeline fails gets a row with the failure reason instead.
"""

import argparse
import json
from pathlib import Path

from chainlab import gates, schemes
from chainlab.errors import ChainlabError
from chainlab.model import ZeemanLevels


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--deltas", default="100,300,1000,3000")
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--pad", type=float, default=schemes.DEFAULT_PAD)
    p.add_argument("--out", default="revival_out")
    return p.parse_args()


def pipeline(delta, coupling, pad):
    levels = ZeemanLevels.from_delta(coupling, delta)
    _, t_r, p, report, aligned = schemes.arch1_exchange_gate(levels, coupling, pad=pad)
    target = gates.exchange_gate_target()
    return {
        "delta": delta,
        "revival_time": t_r,
        "revival_probability": p,
        "distance_to_target": aligned.distance,
        "leakage": report.leakage,
        "invariant_deviation": gates.invariant_deviation(report.logical_unitary,
                                                         target),
    }


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for tok in args.deltas.split(","):
        delta = float(tok)
        try:
            row = pipeline(delta, args.coupling, args.pad)
        except ChainlabError as exc:   # no revival, or a gate too leaky to compare
            row = {"delta": delta, "failure": str(exc)}
        rows.append(row)
        if "failure" in row:
            print(f"delta={delta:8.1f}  failed: {row['failure']}")
        else:
            print(f"delta={delta:8.1f}  t_r={row['revival_time']:.9f}  "
                  f"distance={row['distance_to_target']:.3e}  "
                  f"leakage={row['leakage']:.3e}  "
                  f"invariant_dev={row['invariant_deviation']:.3e}")
    (out / "revival_report.json").write_text(
        json.dumps(rows, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
