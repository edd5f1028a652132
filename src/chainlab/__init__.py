"""chainlab: gate construction on always-coupled Heisenberg spin chains.

Submodules:
  linalg    dense Hermitian eigensolvers, spectral propagators, distances
  model     chain spec, Zeeman levels, Heisenberg / effective-Ising builders
  evolve    piecewise-constant schedules and cached sector-blocked evolution
  gates     revival search, gate extraction, invariants, CNOT synthesis
  schemes   the three chain architectures, the arch-1 exchange-gate
            pipeline, Zeno runs, refocusing demo
  analysis  detuning sweeps, Ising-limit convergence, table output
  cli       the `chainlab` command line tool
"""

__version__ = "0.1.0"
