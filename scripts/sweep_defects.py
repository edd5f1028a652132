"""Defect sweep over detuning plus the effective-Ising convergence fit.

Writes defect_sweep.<fmt> and ising_fit.json under --out and prints one row
per detuning.
"""

import argparse
import json
from pathlib import Path

from chainlab import analysis
from chainlab.errors import ConfigInvalid


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--deltas", default=",".join(str(d) for d in analysis.DEFAULT_DELTA_GRID),
                   help="comma-separated detuning ratios (ascending)")
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default="sweep_out")
    args = p.parse_args()
    if args.threads is not None and args.threads < 1:
        p.error("--threads must be >= 1")
    try:
        args.spec = analysis.SweepSpec(
            delta_values=tuple(float(x) for x in args.deltas.split(",")), coupling=args.coupling)
    except ValueError:
        p.error("--deltas takes comma-separated numbers")
    except ConfigInvalid as exc:
        p.error(f"--deltas: {exc}")
    return args


def main():
    args = parse_args()
    deltas = args.spec.delta_values
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    records = analysis.defect_sweep(args.spec, threads=args.threads)
    for r in records:
        print(f"delta={r.delta:8.1f}  t_r={r.t_r:.9f}  defect={r.defect_worst:.6e}  "
              f"phase_noise={r.phase_noise_rad:.6e}  leakage={r.leakage:.6e}")
    missing = len(deltas) - len(records)
    if missing:
        print(f"{missing} grid point(s) had no revival and were dropped")
    if records:
        analysis.emit_table(records, out / f"defect_sweep.{args.format}", fmt=args.format)

    fit_grid = tuple(d for d in deltas if d >= 10.0)
    if len(fit_grid) >= 3 and max(fit_grid) >= 10 * min(fit_grid):
        fit = analysis.ising_convergence(fit_grid, coupling=args.coupling)
        doc = {"delta_grid": list(fit_grid),
               "distance_slope": fit.distance_slope,
               "leakage_slope": fit.leakage_slope,
               "records": [{"delta": r.delta, "distance": r.distance,
                            "leakage": r.leakage} for r in fit.records]}
        (out / "ising_fit.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"ising fit: distance slope {fit.distance_slope:.3f}, "
              f"leakage slope {fit.leakage_slope:.3f}")


if __name__ == "__main__":
    main()
