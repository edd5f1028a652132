"""chainlab: gate construction on always-coupled Heisenberg spin chains.

Submodules:
  linalg    operator distance, unitarity, polar projection, golden-section
            search; the dense spectral exp(-iHt) the tests check against
  model     chain spec, Zeeman levels, Heisenberg sector blocks and the
            classical (effective-Ising) energies
  evolve    piecewise-constant schedules, cached sector-blocked evolution
            (every propagator) and the passive Zeeman frame
  gates     revival search, gate readout, invariants, CNOT synthesis
  schemes   the three chain architectures, each built once as a section
            (chain, levels, encoding) that its schedule builders act on;
            the arch-1 exchange-gate pipeline, Zeno runs, refocusing demo
  analysis  detuning sweeps, Ising-limit convergence, table output
  cli       the `chainlab` command line tool
"""

__version__ = "0.1.0"
