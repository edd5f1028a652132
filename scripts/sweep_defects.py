"""Defect sweep over detuning plus the effective-Ising convergence fit.

Writes defect_sweep.<fmt> and ising_fit.json under --out and prints one row
per detuning.
"""

import argparse
from dataclasses import asdict
from pathlib import Path

from chainlab import analysis, linalg
from chainlab.errors import ConfigInvalid


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--deltas", default=",".join(str(d) for d in analysis.DEFAULT_DELTA_GRID),
                   help="comma-separated detuning ratios (ascending)")
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", type=Path, default="sweep_out")
    args = p.parse_args()
    if args.threads is not None and args.threads < 1:
        p.error("--threads must be >= 1")
    if not 0 < args.coupling < float("inf"):
        p.error("--coupling must be positive and finite")
    try:
        args.spec = analysis.SweepSpec(
            delta_values=tuple(float(x) for x in args.deltas.split(",")), coupling=args.coupling)
    except ValueError:
        p.error("--deltas takes comma-separated numbers")
    except ConfigInvalid as exc:
        p.error(f"--deltas: {exc}")
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        p.error(f"--out: cannot create {args.out}: {exc.strerror}")
    return args


def main():
    args = parse_args()
    deltas = args.spec.delta_values

    with linalg.single_blas_thread():   # as in cli.main
        records = analysis.defect_sweep(args.spec, threads=args.threads)
        for r in records:
            print(f"delta={r.delta:8.1f}  t_r={r.t_r:.9f}  defect={r.defect_worst:.6e}  "
                  f"phase_noise={r.phase_noise_rad:.6e}  leakage={r.leakage:.6e}")
        missing = len(deltas) - len(records)
        if missing:
            print(f"{missing} grid point(s) had no revival and were dropped")
        if records:
            analysis.emit_table(analysis.record_columns(records),
                                args.out / f"defect_sweep.{args.format}", fmt=args.format)

        fit_grid = tuple(d for d in deltas if d >= 10.0)
        if len(fit_grid) >= 3 and max(fit_grid) >= 10 * min(fit_grid):
            fit = analysis.ising_convergence(fit_grid, coupling=args.coupling)
            doc = {"delta_grid": list(fit_grid), **asdict(fit)}
            analysis.emit_json(doc, args.out / "ising_fit.json")
            print(f"ising fit: distance slope {fit.distance_slope:.3f}, "
                  f"leakage slope {fit.leakage_slope:.3f}")


if __name__ == "__main__":
    main()
