"""Wrong-collapse probability and fidelity versus collapse frequency.

Runs the three-spin gate train with timing jitter for a list of collapse
intervals and both jitter models, writing zeno_curve.csv under --out.
"""

import argparse
import csv
from pathlib import Path

from chainlab import schemes

MODES = ("independent", "systematic")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--gates", type=int, default=20)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--stddev", type=float, default=0.05,
                   help="relative gate-timing jitter")
    p.add_argument("--intervals", default="1,2,4,inf",
                   help="collapse intervals in gates; inf = final readout only")
    p.add_argument("--modes", default="independent,systematic")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", default="zeno_out")
    args = p.parse_args()
    if args.gates < 1 or args.trials < 1:
        p.error("--gates and --trials must be >= 1")
    if not 0 <= args.stddev < float("inf"):
        p.error("--stddev must be a finite number >= 0")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not all(tok == "inf" or (tok.isdecimal() and int(tok) >= 1)
               for tok in args.intervals.split(",")):
        p.error("--intervals takes comma-separated positive integers or inf")
    if not set(args.modes.split(",")) <= set(MODES):
        p.error(f"--modes takes a comma-separated subset of {','.join(MODES)}")
    return args


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    chain, enc, gate, _, psi0 = schemes.zeno_gate_train()

    rows = []
    for mode in args.modes.split(","):
        for tok in args.intervals.split(","):
            cfg = schemes.ZenoConfig(collapse_every_gates=None if tok == "inf" else int(tok),
                                     jitter_stddev=args.stddev, trials=args.trials,
                                     seed=args.seed)
            stats = schemes.zeno_run(chain, [gate] * args.gates, enc, cfg,
                                     psi0=psi0, jitter_mode=mode)
            rows.append({
                "mode": mode,
                "interval_gates": tok,
                "n_collapse_points": stats.n_collapse_points,
                "wrong_collapse_probability": stats.wrong_collapse_probability,
                "mean_fidelity": stats.mean_fidelity,
            })
            print(f"{mode:12s} every {tok:>4s} gates: "
                  f"wrong={stats.wrong_collapse_probability:.4f}  "
                  f"fidelity={stats.mean_fidelity:.4f}")

    with open(out / "zeno_curve.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


if __name__ == "__main__":
    main()
