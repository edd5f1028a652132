"""Wrong-collapse probability and fidelity versus collapse frequency.

Runs the three-spin gate train with timing jitter for a list of collapse
intervals and both jitter models, writing zeno_curve.csv under --out.
"""

import argparse
from pathlib import Path

from chainlab import analysis, schemes


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--gates", type=int, default=20)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--stddev", type=float, default=0.05,
                   help="relative gate-timing jitter")
    p.add_argument("--intervals", default="1,2,4,inf",
                   help="collapse intervals in gates; inf = final readout only")
    p.add_argument("--modes", default=",".join(schemes.JITTER_MODES))
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", type=Path, default="zeno_out")
    args = p.parse_args()
    if args.gates < 1:
        p.error("--gates must be >= 1")
    try:
        args.runs = [(tok, schemes.ZenoConfig(
            collapse_every_gates=None if tok == "inf" else int(tok), jitter_stddev=args.stddev,
            trials=args.trials, seed=args.seed, jitter_mode=mode))
            for mode in args.modes.split(",") for tok in args.intervals.split(",")]
    except ValueError as exc:
        p.error(str(exc))
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        p.error(f"--out: cannot create {args.out}: {exc.strerror}")
    return args


def main():
    args = parse_args()
    chain, enc, gate, _, psi0 = schemes.zeno_gate_train(1.0)

    rows = []
    for tok, cfg in args.runs:
        stats = schemes.zeno_run(chain, [gate] * args.gates, enc, cfg, psi0=psi0)
        rows.append({
            "mode": cfg.jitter_mode,
            "interval_gates": tok,
            "n_collapse_points": stats.n_collapse_points,
            "wrong_collapse_probability": stats.wrong_collapse_probability,
            "mean_fidelity": stats.mean_fidelity,
        })
        print(f"{cfg.jitter_mode:12s} every {tok:>4s} gates: "
              f"wrong={stats.wrong_collapse_probability:.4f}  "
              f"fidelity={stats.mean_fidelity:.4f}")

    analysis.emit_table({name: [r[name] for r in rows] for name in rows[0]},
                        args.out / "zeno_curve.csv")


if __name__ == "__main__":
    main()
