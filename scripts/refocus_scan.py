"""Residual entangling power of the echo cycle versus pulse period.

Also prints the unpulsed baseline at the largest period for contrast.
"""

import argparse
from pathlib import Path

from chainlab import analysis, gates, schemes   # first: chainlab loads numpy on one BLAS thread
from chainlab.evolve import Segment, check_phase
from chainlab.model import ChainSpec, ZeemanLevels, site_energies

import numpy as np


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--periods", default="0.001,0.003,0.01,0.03,0.1,0.3",
                   help="comma-separated pulse periods in units of 1/J")
    p.add_argument("--cycles", type=int, default=1)
    p.add_argument("--delta", type=float, default=1000.0)
    p.add_argument("--out", type=Path, default="refocus_out")
    args = p.parse_args()
    if args.cycles < 1:
        p.error("--cycles must be >= 1")
    try:   # a pulse period is a hold's duration: Segment judges each, check_phase the longest
        args.periods = [Segment(float(x), ()).duration for x in args.periods.split(",")]
        args.levels = ZeemanLevels(1.0, args.delta)
        args.chain = ChainSpec(n=2, coupling=args.levels.coupling, roles="AB")
        check_phase(args.chain, site_energies(args.chain, args.levels), max(args.periods))
    except ValueError as exc:
        p.error(str(exc))
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        p.error(f"--out: cannot create {args.out}: {exc.strerror}")
    return args


def main():
    args = parse_args()

    records = schemes.refocus_demo(args.chain, args.levels, args.periods, cycles=args.cycles)
    for rec in records:
        print(f"period={rec.pulse_period:8.4f}  residual={rec.residual:.6e}")
    analysis.emit_table(analysis.record_columns(records), args.out / "refocus.csv", fmt="csv")

    tau = max(args.periods)
    u_free = schemes.echo_cycle(args.chain, site_energies(args.chain, args.levels), tau,
                                pulsed_sites=(), cycles=args.cycles)
    baseline = gates.invariant_deviation(u_free, np.eye(4))
    print(f"unpulsed baseline at period={tau}: {baseline:.6e}")


if __name__ == "__main__":
    main()
