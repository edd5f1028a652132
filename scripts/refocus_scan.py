"""Residual entangling power of the echo cycle versus pulse period.

Also prints the unpulsed baseline at the largest period for contrast.
"""

import argparse
from pathlib import Path

import numpy as np

from chainlab import analysis, gates, schemes
from chainlab.model import ChainSpec, ZeemanLevels, site_energies


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--periods", default="0.001,0.003,0.01,0.03,0.1,0.3",
                   help="comma-separated pulse periods in units of 1/J")
    p.add_argument("--cycles", type=int, default=1)
    p.add_argument("--delta", type=float, default=1000.0)
    p.add_argument("--out", default="refocus_out")
    return p.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    periods = [float(x) for x in args.periods.split(",")]
    levels = ZeemanLevels.from_delta(1.0, args.delta)
    chain = ChainSpec(n=2, coupling=1.0, roles="AB")

    records = schemes.refocus_demo(chain, levels, periods, cycles=args.cycles)
    for rec in records:
        print(f"period={rec.pulse_period:8.4f}  residual={rec.residual:.6e}")
    analysis.emit_table(records, out / "refocus.csv", fmt="csv")

    tau = max(periods)
    u_free = schemes.echo_cycle(chain, site_energies(chain, levels), tau,
                                pulsed_sites=(), cycles=args.cycles)
    baseline = gates.invariant_deviation(u_free, np.eye(4))
    print(f"unpulsed baseline at period={tau}: {baseline:.6e}")


if __name__ == "__main__":
    main()
